"""Spans and counts recorded around calls into the library's public functions.

`Tracer.install` wraps every public function of the layer modules
(`arith`, `factor`, `goodness`, `scan`, `oracles`, `enclosure`) at every
loaded module that binds it, so calls the library makes internally are
captured too: `scan.is_good`, `goodness.factorize`, `factor.factorize`
(which `arith.multiplicative_order` imports at call time), `arith.primality`
behind `is_prime`, and so on.  Private helpers such as `factor._brent` are
not wrapped, so counts within one factorization (rho iterations, cap hits)
are not seen here; they need a counter inside the program.

A span records its name, start, end, the span that was open when it
started, and the root or phase it belongs to: the nearest enclosing
`goodness.is_good` call or span the benchmark opened itself.
Self time is a span's duration minus the part its child spans cover.
Spans and counts stay in memory and are written out as JSONL by `dump`.
The tracer assumes one thread, which holds because the benchmark never
passes a `jobs` argument.
"""

import contextlib
import functools
import itertools
import json
import sys
import time
from collections import Counter

LAYERS = ("arith", "factor", "goodness", "scan", "oracles", "enclosure")
SPAN_CAP = 100_000  # spans kept for the JSONL file; statistics cover every call


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s, max_s]
        self.counts: Counter = Counter()
        self.root_seconds: list[float] = []  # one entry per is_good call
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, seconds covered by children, root id]
        self._ids = itertools.count(1)
        self._hooks = {
            "factor.factorize": self._on_factorize,
            "goodness.is_good": self._on_is_good,
        }

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> tuple[list, float]:
        span_id = next(self._ids)
        is_root = name.startswith("bench.") or name == "goodness.is_good"
        root = span_id if is_root or not self._stack else self._stack[-1][2]
        frame = [span_id, 0.0, root]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, frame: list, start: float) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        stat[3] = max(stat[3], duration)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None, frame[2]))
        else:
            self.dropped_spans += 1
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one root, one scan phase);
        spans of library calls nest under it."""
        frame, start = self._open(name)
        try:
            yield
        finally:
            self._close(name, frame, start)

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        if hook is None and name.startswith("scan.scan_"):
            hook = self._on_scan_report

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(name, frame, start)
            if hook is not None:
                hook(result, duration)
            return result

        return traced

    def _on_factorize(self, result, duration: float) -> None:
        self.counts[f"factor.factorize.{result.status}"] += 1
        if result.status == "exhausted":
            self.counts["factor.factorize.exhausted_s"] += duration

    def _on_is_good(self, result, duration: float) -> None:
        self.root_seconds.append(duration)
        self.counts[f"goodness.verdict.{result.verdict}"] += 1

    def _on_scan_report(self, report, duration: float) -> None:
        self.counts["scan.candidates_checked"] += report.candidates_checked

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer module wherever they are bound."""
        prefix = package.__name__
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])

    # -- output ----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float, float]:
        calls, total, own, longest = self.stats.get(name, (0, 0.0, 0.0, 0.0))
        return int(calls), total, own, longest

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "dropped_spans": self.dropped_spans}) + "\n")
            for span_id, name, start, end, parent, root in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "root": root})
                    + "\n"
                )
            for name, (calls, total, own, longest) in sorted(self.stats.items()):
                fh.write(
                    json.dumps({"stat": name, "calls": calls, "total_s": total, "self_s": own, "max_s": longest})
                    + "\n"
                )
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": value}) + "\n")
