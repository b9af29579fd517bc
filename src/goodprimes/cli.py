"""Command-line front end.

One binary, subcommand style.  Exit codes: 0 success / assertions hold,
1 assertion failure (counterexample, not-good verdict, failed
verification), 2 usage error, 3 budget or resource exhaustion with an
inconclusive result; any command whose sieve would pass 1e8 exits 3.

The front end checks no argument itself: the library function that owns
a rule raises ValueError, and any ValueError or OSError (an unusable -o
path) becomes exit 2 with one `goodprimes: error:` line on stderr.  The
four global flags are the only settings; the environment configures
nothing.  The budget flags reach `good`, `cert`, `sweep`, `scan
cyclotomic`, `oracle` and `factor`; the sigma-sieve self-checks of the
scans always use the default budget.

In --format json every result is one canonical JSON record per line, so
long scans stream and identical inputs produce byte-identical output.
"""

import argparse
import sys

from . import arith
from .arith import ResourceLimitError
from .factor import DEFAULT_BUDGET, SearchBudget, factorize
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
    scan_105,
    scan_cyclotomic_form,
    scan_odd_perfect,
    scan_squarefree_form,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodprimes",
        description="Good-prime chain search, divisor-sum oracles, and perfect-number scans.",
    )
    parser.add_argument("--depth", type=int, default=DEFAULT_BUDGET.max_depth, help="closure depth limit")
    parser.add_argument(
        "--trial-bound", type=int, default=DEFAULT_BUDGET.trial_division_bound, help="trial division bound"
    )
    parser.add_argument(
        "--rho-cap", type=int, default=DEFAULT_BUDGET.rho_iteration_cap, help="rho iterations (<= 2^16); more adds ECM"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format (default text)")
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


def _usage_error(message: str) -> int:
    print(f"goodprimes: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _confidence(primes) -> str:
    # beyond the deterministic witness range primality is high-confidence (BPSW), and says so
    return "probable" if any(arith.primality(p) == arith.PROBABLE_PRIME for p in primes) else "proven"


_VERDICT_EXIT = {GOOD: EXIT_OK, NOT_GOOD: EXIT_FAIL, INCONCLUSIVE: EXIT_BUDGET}


def _cmd_good(args, budget) -> int:
    result = is_good(args.prime, budget)
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


def _cmd_cert(args, budget) -> int:
    result = is_good(args.prime, budget)
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


def _cmd_verify(args, budget) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
        cert = GoodnessCertificate.from_json(text)
    except (OSError, ValueError) as exc:
        return _usage_error(f"cannot read certificate: {exc}")
    check = verify_certificate(cert)
    if check.ok:
        confidence = _confidence([cert.root, *(b for *_, b in cert.path)])
        suffix = "" if confidence == "proven" else "  [primality: probable]"
        print(f"valid: {cert.root} -> {cert.terminal} (depth {cert.depth}){suffix}")
        return EXIT_OK
    print(f"INVALID: {check.failure}")
    return EXIT_FAIL


def _cmd_sweep(args, budget) -> int:
    report = goodness_sweep(args.limit, budget)
    counts = report.counts()
    if args.format == "json":
        sys.stdout.write(report.to_json_lines())
    else:
        for entry in report.entries:
            extra = f" depth={entry.depth}" if entry.depth is not None else ""
            print(f"{entry.prime}: {entry.verdict}{extra}")
        print(
            f"{len(report.entries)} primes below {args.limit}: "
            f"{counts[GOOD]} good, {counts[NOT_GOOD]} not_good, "
            f"{counts[INCONCLUSIVE]} inconclusive"
        )
    if counts[NOT_GOOD]:
        return EXIT_FAIL
    if counts[INCONCLUSIVE]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_scan(args, budget) -> int:
    if args.form == FORM_ODD:
        report = scan_odd_perfect(args.bound)
    elif args.form == FORM_105:
        report = scan_105(args.bound)
    elif args.form == FORM_SQUAREFREE:
        report = scan_squarefree_form(args.bound)
    else:
        report = scan_cyclotomic_form(args.bound, budget)
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
    witness = sigma_exact_power(args.q, args.b, args.p, args.c, budget)
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


def _cmd_factor(args, budget) -> int:
    result = factorize(args.n, budget)
    confidence = _confidence(p for p, _ in result.factors)
    if args.format == "json":
        record = {
            "target": dec(result.target),
            "status": result.status,
            "factors": [[dec(p), dec(e)] for p, e in result.factors],
            "cofactor": dec(result.cofactor),
            "primality": confidence,
        }
        print(canonical_dumps(record))
    else:
        suffix = "" if confidence == "proven" else "  [primality: probable]"
        print(result.to_line() + suffix)
    return EXIT_OK if result.complete else EXIT_BUDGET


_COMMANDS = {
    "good": _cmd_good,
    "cert": _cmd_cert,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "scan": _cmd_scan,
    "oracle": _cmd_oracle,
    "factor": _cmd_factor,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        budget = SearchBudget(
            trial_division_bound=args.trial_bound, rho_iteration_cap=args.rho_cap, max_depth=args.depth
        )
        return _COMMANDS[args.command](args, budget)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        # the library raises ValueError only for arguments outside their
        # domain; an unusable -o path is a usage error, not a failed assertion
        return _usage_error(str(exc))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
