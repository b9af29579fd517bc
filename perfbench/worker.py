"""One repetition of a workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py '{"workload": "scan", "seed": 1, "smoke": false, "trace": null, "result": "r.json"}'

Imports goodprimes from the checkout's `src`, makes the inputs, prints
`ready`, runs the workload with its correctness checks and writes its
measurements as JSON to the spec's `result` path.  With
`"setup_only": true` it stops after `ready`; with `"trace": PATH` it
wraps the library's public functions first and writes the spans to PATH
as JSONL.
"""

import contextlib
import importlib.util
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import goodprimes as gp  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# primality verdict of a prime the library has only BPSW-tested
_PROBABLE = "probable_prime"


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _percentiles(seconds: list[float]) -> dict:
    """Median and the highest whole percentile with at least 10 values
    beyond it (nearest rank), in milliseconds."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": None}
    p50 = ordered[(n - 1) // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    if n > 10:
        pct = 100 * (n - 10) // n
        rank = max(1, -(-pct * n // 100))
        tail, tail_pct = ordered[rank - 1], pct
    else:
        tail, tail_pct = ordered[-1], 100
    return {"n": n, "p50_ms": p50 * 1e3, "tail_ms": tail * 1e3, "tail_percentile": tail_pct}


def _layer_metrics(tracer: spans.Tracer, wall: float) -> tuple[dict, int | None]:
    out = {}
    calls, total, own, longest = tracer.stat("factor.factorize")
    complete = tracer.counts["factor.factorize.complete"]
    out.update(
        {
            "factor.factorize.calls": calls,
            "factor.factorize.self_s": own,
            "factor.factorize.share": total / wall if wall > 0 else 0.0,
            "factor.factorize.complete": complete,
            "factor.factorize.partial": tracer.counts["factor.factorize.partial"],
            "factor.factorize.exhausted": tracer.counts["factor.factorize.exhausted"],
            "factor.factorize.exhausted_s": float(tracer.counts["factor.factorize.exhausted_s"]),
            "factor.factorize.max_s": longest,
            "factor.complete_ratio": complete / calls if calls else 0.0,
        }
    )
    roots = tracer.stat("goodness.is_good")[0]
    children = tracer.stat("goodness.cyclotomic_children")[0]
    out.update(
        {
            "goodness.is_good.calls": roots,
            "goodness.is_good.inconclusive": tracer.counts["goodness.verdict.inconclusive"],
            "goodness.cyclotomic_children.calls": children,
            "goodness.expand.calls": tracer.stat("goodness.expand")[0],
            "goodness.children_per_root": children / roots if roots else 0.0,
            "goodness.is_good.self_s": tracer.stat("goodness.is_good")[2],
            "goodness.expand.self_s": tracer.stat("goodness.expand")[2],
        }
    )
    pct = _percentiles(tracer.root_seconds)
    out["goodness.is_good.p50_ms"] = pct["p50_ms"]
    out["goodness.is_good.tail_ms"] = pct["tail_ms"]
    for name in ("goodness.verify_certificate", "arith.primality", "arith.cyclotomic_value",
                 "oracles.sigma_exact_power", "enclosure.log_enclosure"):
        calls, _, own, _ = tracer.stat(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for name in ("sieve_sigma", "scan_odd_perfect", "scan_105", "scan_squarefree_form", "scan_cyclotomic_form"):
        out[f"scan.{name}.self_s"] = tracer.stat(f"scan.{name}")[2]
    out["scan.candidates_checked"] = tracer.counts["scan.candidates_checked"]
    out["oracles.beta_feasible.self_s"] = tracer.stat("oracles.beta_feasible")[2]
    return out, pct["tail_percentile"]


def main() -> None:
    spec = json.loads(sys.argv[1])
    inputs = workloads.make_inputs(spec["workload"], spec["seed"], spec["smoke"])
    print("ready", flush=True)
    if spec.get("setup_only"):
        return

    tracer = None
    phase = lambda name: contextlib.nullcontext()  # noqa: E731
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install(gp)
        phase = tracer.span

    gate = workloads.Gate()
    records = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        if spec["workload"] == "annotate":
            workloads.run_annotate(gp, inputs, gate, phase)
        elif spec["workload"] == "certify":
            records = workloads.run_certify(gp, inputs, gate, phase)
        else:
            workloads.run_scan(gp, inputs, gate, phase)
    except Exception as exc:  # a crash is a failed operation, reported with the run
        gate.check(False, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "inconclusive": gate.inconclusive,
        "messages": gate.messages,
        "digests": gate.digests(),
        "root_latency": _percentiles([r["seconds"] for r in records]),
        "env": {
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        },
    }
    if tracer is not None:
        layers, tail_pct = _layer_metrics(tracer, wall)
        tracer.dump(spec["trace"], {"workload": spec["workload"], "seed": spec["seed"], "wall_s": wall})
        layers["goodness.cert.probable_edges"] = sum(
            1 for r in records if r["certificate"] for *_, b in r["certificate"].path if gp.primality(b) == _PROBABLE
        )
        result["layers"] = layers
        result["layers_tail_percentile"] = tail_pct
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
