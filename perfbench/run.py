"""The goodprimes benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload annotate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from `src`.
Every repetition runs in a fresh interpreter (`worker.py`), so the
library's memos start cold.  Repetitions of the workload's unit of work
repeat while `--seconds` allows (at least one); extra interpreters are
started until set-up has been timed at least SETUP_SAMPLES times.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` the run also repeats one unit with the library's public
functions wrapped and the last line carries the per-layer metrics.  The
line before it is a JSON record of the environment, the output digests
and the per-root latencies.  `--smoke` runs every workload at toy size;
`--record-reference` rewrites reference.json from the default seed.
"""

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
SETUP_SAMPLES = 9
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")  # worker results and trace files
HARD_LIMIT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker(spec: dict, timeout: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it was ready, its result)."""
    if timeout <= 0:
        raise BenchError(f"no time left for another worker within {HARD_LIMIT_S} s")
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = dict(spec, result=os.path.join(OUT_DIR, f"result-{os.getpid()}.json"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready: {line.strip()!r}")
        proc.wait(timeout=max(1.0, timeout - setup))
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if spec.get("setup_only"):
        return setup, None
    with open(spec["result"]) as fh:
        result = json.load(fh)
    os.remove(spec["result"])
    return setup, result


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _reference_problems(workload: str, reps: list[dict]) -> list[str]:
    """Compare the default seed's outputs with the recorded reference."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)[workload]
    return [
        f"{key} is {rep[key]}, reference has {ref[key]}"
        for rep in reps
        for key in ("digests", "attempted", "inconclusive")
        if rep[key] != ref[key]
    ]


def measure(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, check_reference: bool = True
) -> tuple[dict, dict]:
    t_run = time.perf_counter()
    deadline = t_run + HARD_LIMIT_S
    spec = {"workload": workload, "seed": seed, "smoke": smoke, "trace": None}
    load_start = os.getloadavg()[0]

    setups: list[float] = []
    reps: list[dict] = []
    while True:
        setup, rep = _worker(spec, deadline - time.perf_counter())
        setups.append(setup)
        reps.append(rep)
        elapsed = time.perf_counter() - t_run
        per_rep = elapsed / len(reps)
        if smoke or elapsed + per_rep > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(dict(spec, setup_only=True), deadline - time.perf_counter())[0])

    traced = None
    if trace:
        path = os.path.join(OUT_DIR, f"{workload}-{seed}{'-smoke' if smoke else ''}.jsonl")
        traced = _worker(dict(spec, trace=path), deadline - time.perf_counter())[1]

    problems = [m for rep in reps + ([traced] if traced else []) for m in rep["messages"]]
    if check_reference and not smoke and seed == DEFAULT_SEED:
        problems += _reference_problems(workload, reps)
    if any(rep["digests"] != reps[0]["digests"] for rep in reps):
        problems.append("repetitions of the same inputs gave different outputs")

    wall = statistics.median(rep["wall_s"] for rep in reps)
    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    inconclusive = sum(rep["inconclusive"] for rep in reps)
    if trace:
        metrics = dict(traced["layers"])
        metrics["run.cpu_s"] = statistics.median(rep["cpu_s"] for rep in reps)
        metrics["run.trace_overhead_s"] = traced["wall_s"] - wall
        attempted += traced["attempted"]
        failed += traced["failed"]
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": parent_rss + max(rep["peak_rss_mb"] for rep in reps),
        }
    info = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "repetitions": len(reps),
        "setup_samples_s": setups,
        "rep_wall_s": [rep["wall_s"] for rep in reps],
        "rep_cpu_s": [rep["cpu_s"] for rep in reps],
        "traced_wall_s": traced["wall_s"] if traced else None,
        "inconclusive": inconclusive,
        "fail_ratio": (failed + inconclusive) / attempted if attempted else None,
        "root_latency": reps[0]["root_latency"],
        "is_good_tail_percentile": traced["layers_tail_percentile"] if traced else None,
        "digests": reps[0]["digests"],
        "problems": problems,
        "env": dict(
            reps[0]["env"],
            nproc=os.cpu_count(),
            loadavg_1m_start=load_start,
            loadavg_1m_end=os.getloadavg()[0],
            commit=_commit(),
        ),
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def record_reference(seconds: float) -> None:
    ref = {}
    for workload in WORKLOADS:
        info, result = measure(workload, DEFAULT_SEED, seconds, False, False, check_reference=False)
        if not result["correct"]:
            raise BenchError(f"{workload}: {info['problems']}")
        ref[workload] = {
            "digests": info["digests"],
            "attempted": result["attempted"] // info["repetitions"],
            "inconclusive": info["inconclusive"] // info["repetitions"],
            "fail_ratio": info["fail_ratio"],
        }
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one repetition")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "goodprimes", "__init__.py")):
        print("run.py: no src/goodprimes here; run from the root of a goodprimes checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    with open(SPEC) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    if units.keys() != metrics.keys():
        print(f"run.py: metrics differ from {SPEC}: {sorted(units.keys() ^ metrics.keys())}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
