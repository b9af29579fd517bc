"""Workload inputs, runs and correctness checks; imported by the worker.

The library is driven only through names in `goodprimes.__all__` (plus
the `annotate_goodness` keyword of `scan_cyclotomic_form`), with the
default budgets and no `jobs` argument.  Every worker is a fresh
interpreter, so the library's process-wide memos start cold without the
benchmark touching private state.

Inputs depend only on the workload, the seed and the smoke flag, and are
generated with the benchmark's own arithmetic, so a change to the library
cannot change what it is asked.
"""

import hashlib
import json
import random
import time

WORKLOADS = ("annotate", "certify", "scan")

# the criterion-4 oracle grid as (largest prime q and p, largest c, largest b);
# smoke mode shrinks it
GRID = (49, 30, 6)
SMOKE_GRID = (19, 8, 3)

# certify: a fixed pool of roots in [1e12, 2e12); see root_pool
CERTIFY_ROOTS = 48
SMOKE_ROOT_LO = 10**6

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime_below_3e24(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (bases: first 13 primes)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _jitter(rng: random.Random, centre: int, share: float) -> int:
    return rng.randint(int(centre * (1 - share)), int(centre * (1 + share)))


def root_pool(size: int, lo: int = 10**12) -> list[int]:
    """The first `size` primes drawn uniformly from [lo, 2 lo) by a fixed seed."""
    rng = random.Random("certify-pool")
    pool = []
    while len(pool) < size:
        p = rng.randrange(lo, 2 * lo)
        if is_prime_below_3e24(p):
            pool.append(p)
    return pool


def make_inputs(workload: str, seed: int, smoke: bool) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "annotate":
        return {"bound": _jitter(rng, 10**8 if smoke else 10**9, 0.1)}
    if workload == "certify":
        roots = root_pool(3, SMOKE_ROOT_LO) if smoke else root_pool(CERTIFY_ROOTS)
        rng.shuffle(roots)
        return {"roots": roots}
    if workload == "scan":
        sieve = 10**6 if smoke else 2 * 10**7
        form = 98 * 10**6 if smoke else 98 * 10**10  # +2% stays within the 1e12 form limit
        return {
            "odd": _jitter(rng, sieve, 0.02),
            "105": _jitter(rng, sieve, 0.02),
            "squarefree": _jitter(rng, form, 0.02),
            "cyclotomic": _jitter(rng, form, 0.02),
            "grid": SMOKE_GRID if smoke else GRID,
            "betas": 20 if smoke else 100,
        }
    raise ValueError(f"unknown workload {workload!r}")


class Gate:
    """Counts operations and failures; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.messages: list[str] = []
        self.outputs: dict[str, str] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def output(self, name: str, text: str) -> None:
        self.outputs[name] = text

    def digests(self) -> dict[str, str]:
        return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(self.outputs.items())}


def scan_report_ok(report, form: str, bound: int) -> bool:
    """A scan report is clean, names the requested form and bound, and
    survives its own JSON round trip."""
    return (
        report.clean
        and report.counterexamples == ()
        and report.form == form
        and report.bound == bound
        and report.candidates_checked > 0
        and type(report).from_json(report.to_json()).to_json() == report.to_json()
    )


def tampered_variants(cert_dict: dict):
    """Every single-bit tamper of a certificate's integers (lowest bit
    flipped), one field at a time, as in acceptance criterion 9."""
    for name in ("root", "terminal", "terminal_residue"):
        mutated = json.loads(json.dumps(cert_dict))
        mutated[name] = str(int(mutated[name]) ^ 1)
        yield name, mutated
    for i in range(len(cert_dict["path"])):
        for j in range(3):
            mutated = json.loads(json.dumps(cert_dict))
            mutated["path"][i][j] = str(int(mutated["path"][i][j]) ^ 1)
            yield f"path[{i}][{j}]", mutated


def certify_root(gp, p: int, gate: Gate) -> dict:
    """is_good, JSON round trip, verification and every tamper check."""
    result = gp.is_good(p)
    gate.attempted += 1  # the verdict itself
    record = {"root": p, "verdict": result.verdict, "depth": result.depth, "terminal": None, "certificate": None}
    if result.verdict == "inconclusive":
        gate.inconclusive += 1
        return record
    if not gate.check(result.verdict == "good", f"{p}: verdict {result.verdict}"):
        return record
    cert = result.certificate
    record["terminal"] = cert.terminal
    record["certificate"] = cert
    text = cert.to_json()
    back = gp.GoodnessCertificate.from_json(text)
    gate.check(
        back == cert and back.to_json() == text and bool(gp.verify_certificate(back)),
        f"{p}: certificate does not verify after its JSON round trip",
    )
    for field, mutated in tampered_variants(cert.to_dict()):
        tampered = gp.GoodnessCertificate.from_dict(mutated)
        gate.check(not gp.verify_certificate(tampered), f"{p}: tamper of {field} accepted")
    return record


def root_line(record: dict) -> str:
    return f"{record['root']} {record['verdict']} {record['depth']} {record['terminal']}"


def run_annotate(gp, inputs: dict, gate: Gate, phase) -> None:
    bound = inputs["bound"]
    with phase("bench.annotate"):
        report = gp.scan_cyclotomic_form(bound, annotate_goodness=True)
    notes = dict(report.notes)
    gate.check(scan_report_ok(report, "cyclotomic", bound), "annotate: report not clean")
    distinct = int(notes.get("distinct_primes", "0"))
    inconclusive = int(notes.get("goodness_inconclusive_primes", "0"))
    gate.check(distinct > 0, "annotate: no primes annotated")
    gate.attempted += distinct  # one verdict per distinct prime
    gate.inconclusive += inconclusive
    gate.output("annotate", report.to_json())


def run_certify(gp, inputs: dict, gate: Gate, phase) -> list[dict]:
    """Certify every root of the run, timing each from is_good to its last check."""
    records = []
    for p in inputs["roots"]:
        with phase("bench.root"):
            t0 = time.perf_counter()
            record = certify_root(gp, p, gate)
            record["seconds"] = time.perf_counter() - t0
        records.append(record)
    gate.output("certify", "\n".join(root_line(r) for r in sorted(records, key=lambda r: r["root"])))
    return records


def oracle_grid(grid):
    q_limit, c_max, b_max = grid
    primes = _primes_below(q_limit + 1)
    for q in primes:
        if q == 2:
            continue
        for p in primes:
            if p == q:
                continue
            for c in range(1, c_max + 1):
                s, direct = (p ** (c + 1) - 1) // (p - 1), 0
                while s % q == 0:
                    s //= q
                    direct += 1
                for b in range(1, b_max + 1):
                    yield q, b, p, c, direct


def run_scan(gp, inputs: dict, gate: Gate, phase) -> None:
    with phase("bench.odd"):
        odd = gp.scan_odd_perfect(inputs["odd"])
    gate.check(scan_report_ok(odd, "odd", inputs["odd"]), "odd: report not clean")
    gate.check(odd.perfect_found == (6, 28, 496, 8128), f"odd: found {odd.perfect_found}")
    gate.output("odd", odd.to_json())
    del odd  # the sieve array is gone before the next one is built

    with phase("bench.105"):
        r105 = gp.scan_105(inputs["105"])
    gate.check(scan_report_ok(r105, "105", inputs["105"]), "105: report not clean")
    gate.check(r105.candidates_checked == len(range(105, inputs["105"] + 1, 210)), "105: wrong count")
    gate.output("105", r105.to_json())

    with phase("bench.squarefree"):
        sqf = gp.scan_squarefree_form(inputs["squarefree"])
    gate.check(scan_report_ok(sqf, "squarefree", inputs["squarefree"]), "squarefree: report not clean")
    gate.output("squarefree", sqf.to_json())

    with phase("bench.cyclotomic"):
        cyc = gp.scan_cyclotomic_form(inputs["cyclotomic"], annotate_goodness=False)
    gate.check(scan_report_ok(cyc, "cyclotomic", inputs["cyclotomic"]), "cyclotomic: report not clean")
    gate.check(cyc.notes == (), "cyclotomic: annotated although annotation is off")
    gate.output("cyclotomic", cyc.to_json())

    lines = []
    with phase("bench.oracle_grid"):
        for q, b, p, c, direct in oracle_grid(inputs["grid"]):
            w = gp.sigma_exact_power(q, b, p, c)
            gate.check(w.holds == (direct == b), f"oracle q={q} b={b} p={p} c={c} disagrees")
            lines.append(f"{q} {b} {p} {c} {w.branch} {w.d} {w.a} {int(w.holds)}")
    gate.output("oracle_grid", "\n".join(lines))

    with phase("bench.beta_feasible"):
        feasible = [beta for beta in range(1, inputs["betas"] + 1) if gp.beta_feasible(beta)]
    gate.check(feasible == [1, 2], f"beta_feasible window is {feasible}")
    gate.output("beta_feasible", json.dumps(feasible))
