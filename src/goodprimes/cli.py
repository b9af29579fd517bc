"""Command-line front end.

One binary, subcommand style.  Exit codes: 0 success / assertions hold,
1 assertion failure (counterexample, not-good verdict, failed
verification), 2 usage error (also an unusable --cache or -o path),
3 budget or resource exhaustion with an inconclusive result.

Global flags may also be set through environment variables prefixed
GOODPRIMES_ (GOODPRIMES_CACHE, GOODPRIMES_DEPTH, GOODPRIMES_TRIAL_BOUND,
GOODPRIMES_RHO_CAP, GOODPRIMES_MAX_BITS, GOODPRIMES_FORMAT); a flag on
the command line wins over its environment variable.

In --format json every result is one canonical JSON record per line, so
long scans stream and identical inputs produce byte-identical output.
"""

import argparse
import os
import sys

from . import arith
from .factor import DEFAULT_BUDGET, FactorCache, SearchBudget, factorize
from .goodness import (
    GOOD,
    INCONCLUSIVE,
    NOT_GOOD,
    GoodnessCertificate,
    goodness_sweep,
    is_good,
    verify_certificate,
)
from .jsonio import canonical_dumps, dec
from .oracles import sigma_exact_power
from .scan import (
    FORM_105,
    FORM_CYCLOTOMIC,
    FORM_ODD,
    FORM_SQUAREFREE,
    ResourceLimitError,
    scan_105,
    scan_cyclotomic_form,
    scan_odd_perfect,
    scan_squarefree_form,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_ENV_PREFIX = "GOODPRIMES_"


def _env(name: str, default=None):
    return os.environ.get(_ENV_PREFIX + name, default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodprimes",
        description="Good-prime chain search, divisor-sum oracles, and perfect-number scans.",
    )
    parser.add_argument("--cache", default=_env("CACHE"), help="path to the factorization cache file")
    parser.add_argument("--depth", type=int, default=_env("DEPTH"), help="closure depth limit")
    parser.add_argument("--trial-bound", type=int, default=_env("TRIAL_BOUND"), help="trial division bound")
    parser.add_argument("--rho-cap", type=int, default=_env("RHO_CAP"), help="rho iterations per composite")
    parser.add_argument("--max-bits", type=int, default=_env("MAX_BITS"), help="bit cap on rho candidates")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=_env("FORMAT", "text"),
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("good", help="goodness verdict for a prime > 7")
    cmd.add_argument("prime", type=int)

    cmd = sub.add_parser("cert", help="print the canonical goodness certificate")
    cmd.add_argument("prime", type=int)
    cmd.add_argument("-o", "--output", help="write the certificate to a file instead of stdout")

    cmd = sub.add_parser("verify", help="re-check a serialized certificate")
    cmd.add_argument("file", help="certificate file, or - for stdin")

    cmd = sub.add_parser("sweep", help="goodness of every prime 7 < p < LIMIT")
    cmd.add_argument("limit", type=int, nargs="?", default=160)

    cmd = sub.add_parser("scan", help="bounded perfect-number scan")
    cmd.add_argument("form", choices=(FORM_ODD, FORM_SQUAREFREE, FORM_CYCLOTOMIC, FORM_105))
    cmd.add_argument("bound", type=int)

    cmd = sub.add_parser("oracle", help="exact-divisibility witness for q^b || sigma(p^c)")
    cmd.add_argument("q", type=int)
    cmd.add_argument("b", type=int)
    cmd.add_argument("p", type=int)
    cmd.add_argument("c", type=int)

    cmd = sub.add_parser("factor", help="factor n within the configured budget")
    cmd.add_argument("n", type=int)
    return parser


def _budget_from(args) -> SearchBudget:
    return SearchBudget(
        trial_division_bound=(
            int(args.trial_bound) if args.trial_bound is not None else DEFAULT_BUDGET.trial_division_bound
        ),
        rho_iteration_cap=int(args.rho_cap) if args.rho_cap is not None else DEFAULT_BUDGET.rho_iteration_cap,
        max_candidate_bits=int(args.max_bits) if args.max_bits is not None else DEFAULT_BUDGET.max_candidate_bits,
        max_depth=int(args.depth) if args.depth is not None else DEFAULT_BUDGET.max_depth,
    )


def _usage_error(message: str) -> int:
    print(f"goodprimes: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_root(p: int) -> str | None:
    if p <= 7:
        return f"{p} is not a prime greater than 7"
    if not arith.is_prime(p):
        return f"{p} is not prime"
    return None


_VERDICT_EXIT = {GOOD: EXIT_OK, NOT_GOOD: EXIT_FAIL, INCONCLUSIVE: EXIT_BUDGET}


def _cmd_good(args, budget, cache) -> int:
    problem = _check_root(args.prime)
    if problem:
        return _usage_error(problem)
    result = is_good(args.prime, budget, cache)
    if args.format == "json":
        record = {
            "prime": dec(args.prime),
            "verdict": result.verdict,
            "depth": dec(result.depth) if result.depth is not None else None,
        }
        print(canonical_dumps(record))
    else:
        extra = f" depth={result.depth}" if result.depth is not None else ""
        print(f"{result.verdict}{extra}")
    return _VERDICT_EXIT[result.verdict]


def _cmd_cert(args, budget, cache) -> int:
    problem = _check_root(args.prime)
    if problem:
        return _usage_error(problem)
    result = is_good(args.prime, budget, cache)
    if result.verdict != GOOD:
        print(f"no certificate: {args.prime} is {result.verdict}", file=sys.stderr)
        return _VERDICT_EXIT[result.verdict]
    text = result.certificate.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
        cert = GoodnessCertificate.from_json(text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _usage_error(f"cannot read certificate: {exc}")
    check = verify_certificate(cert)
    if check.ok:
        print(f"valid: {cert.root} -> {cert.terminal} (depth {cert.depth})")
        return EXIT_OK
    print(f"INVALID: {check.failure}")
    return EXIT_FAIL


def _cmd_sweep(args, budget, cache) -> int:
    if args.limit < 11:
        return _usage_error(f"sweep limit must be at least 11, got {args.limit}")
    report = goodness_sweep(args.limit, budget, cache)
    if args.format == "json":
        sys.stdout.write(report.to_json_lines())
    else:
        for entry in report.entries:
            extra = f" depth={entry.depth}" if entry.depth is not None else ""
            print(f"{entry.prime}: {entry.verdict}{extra}")
        counts = report.counts()
        print(
            f"{len(report.entries)} primes below {args.limit}: "
            f"{counts[GOOD]} good, {counts[NOT_GOOD]} not_good, "
            f"{counts[INCONCLUSIVE]} inconclusive"
        )
    counts = report.counts()
    if counts[NOT_GOOD]:
        return EXIT_FAIL
    if counts[INCONCLUSIVE]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_scan(args, budget, cache) -> int:
    try:
        if args.form == FORM_ODD:
            report = scan_odd_perfect(args.bound)
        elif args.form == FORM_105:
            report = scan_105(args.bound)
        elif args.form == FORM_SQUAREFREE:
            report = scan_squarefree_form(args.bound)
        else:
            report = scan_cyclotomic_form(args.bound, budget, cache)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"form={report.form} bound={report.bound} candidates={report.candidates_checked}")
        if report.perfect_found:
            print("even perfect:", " ".join(str(v) for v in report.perfect_found))
        for key, value in report.notes:
            print(f"{key}={value}")
        if report.counterexamples:
            for rec in report.counterexamples:
                print(f"COUNTEREXAMPLE n={rec.value} sigma={rec.sigma_value}")
        else:
            print("counterexamples: none")
    return EXIT_OK if report.clean else EXIT_FAIL


def _cmd_oracle(args, budget) -> int:
    try:
        witness = sigma_exact_power(args.q, args.b, args.p, args.c)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.format == "json":
        record = {
            "q": dec(witness.q),
            "b": dec(witness.b),
            "p": dec(witness.p),
            "c": dec(witness.c),
            "branch": witness.branch,
            "order": dec(witness.d),
            "order_valuation": dec(witness.a),
            "holds": witness.holds,
        }
        print(canonical_dumps(record))
    else:
        word = "holds" if witness.holds else "does not hold"
        print(
            f"{witness.q}^{witness.b} || sigma({witness.p}^{witness.c}) {word} "
            f"(branch {witness.branch}, d={witness.d}, a={witness.a})"
        )
    return EXIT_OK


def _cmd_factor(args, budget, cache) -> int:
    if args.n < 2:
        return _usage_error(f"factor needs n >= 2, got {args.n}")
    result = factorize(args.n, budget, cache)
    # primality beyond the deterministic witness range is high-confidence
    # (strong base-2 + strong Lucas), and says so
    confidence = "proven"
    if any(arith.primality(pp.prime) == "probable_prime" for pp in result.factors):
        confidence = "probable"
    if args.format == "json":
        record = {
            "target": dec(result.target),
            "status": result.status,
            "factors": [[dec(pp.prime), dec(pp.exponent)] for pp in result.factors],
            "cofactor": dec(result.cofactor),
            "primality": confidence,
        }
        print(canonical_dumps(record))
    else:
        suffix = "" if confidence == "proven" else "  [primality: probable]"
        print(result.to_line() + suffix)
    return EXIT_OK if result.complete else EXIT_BUDGET


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.format not in ("text", "json"):
            raise ValueError(f"--format must be text or json, got {args.format!r}")
        budget = _budget_from(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        cache = FactorCache(args.cache) if args.cache else None
        if args.command == "good":
            return _cmd_good(args, budget, cache)
        if args.command == "cert":
            return _cmd_cert(args, budget, cache)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args, budget, cache)
        if args.command == "scan":
            return _cmd_scan(args, budget, cache)
        if args.command == "oracle":
            return _cmd_oracle(args, budget)
        if args.command == "factor":
            return _cmd_factor(args, budget, cache)
    except OSError as exc:
        # an unusable --cache or -o path is a usage error, not a failed assertion
        return _usage_error(str(exc))
    return _usage_error(f"unknown command {args.command!r}")


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
