"""Spans and counts recorded around the package's public functions.

The package is not changed: while a traced phase runs, the functions
the CLI and the library call are replaced, at the module attributes
they are looked up through, by wrappers that record a span (name,
start, end, parent) or a count, and the originals are put back after.
Wrappers record only inside an operation, so the benchmark's own
checks stay out of the trace.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

#: (module name, attribute, span name); a missing attribute is skipped
SPANS = (
    ("cli", "mub_quorum", "quorum.build"),
    ("quorum", "mub_quorum", "quorum.build"),
    ("cli", "pmatrix", "quorum.build"),
    ("reconstruct", "pmatrix", "quorum.build"),
    ("cli", "simulate_counts", "measure.simulate"),
    ("cli", "sample_frequencies", "measure.sample"),
    ("cli", "average_projector", "measure.average"),
    ("cli", "mle_from_frequencies", "reconstruct.mle"),
    ("cli", "covariance_predict", "reconstruct.covariance"),
    ("reconstruct", "covariance_predict", "reconstruct.covariance"),
    ("cli", "state_fidelity", "qmath.diagnostics"),
    ("cli", "trace_distance", "qmath.diagnostics"),
    ("cli", "accessible_subspace_dimension", "quorum.subspace"),
    ("_kernels", "mle_ascend", "kernels.mle_ascend"),
    ("_kernels", "average_conjugated", "kernels.average"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))
#: counts taken from a wrapped call's arguments or result
RESULT_COUNTS = {
    "kernels.mle_ascend": ("kernels.mle_iterations", lambda args, res: int(res[2])),
    "kernels.average": ("kernels.average_samples", lambda args, res: len(args[1])),
}
COUNT_NAMES = ("qmath.streams", "kernels.mle_iterations", "kernels.average_samples",
               "quorum.subspace_rows", "cli.bytes_written")


class Tracer:
    def __init__(self):
        self.spans = []  # [op, id, parent, name, start, end]
        self.counts = Counter()
        self.stack = []
        self.op = None

    def open(self, name: str) -> list:
        span = [self.op, len(self.spans), self.stack[-1][1] if self.stack else None,
                name, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, index: int) -> list:
        self.op = index
        return self.open("op")

    def end_op(self, span: list) -> None:
        self.close(span)
        self.op = None

    def _span(self, fn, name):
        count = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count:
                self.counts[count[0]] += count[1](args, result)
            return result

        return wrapper

    def _counter(self, fn, count, when=lambda: True, size=lambda args: 1):
        def wrapper(*args, **kwargs):
            if self.op is not None and when():
                self.counts[count] += size(args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> list:
        """Put the wrappers in place; returns what ``uninstall`` restores."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for mod, attr, name in SPANS:
            owner = modules[mod]
            if hasattr(owner, attr):
                patch(owner, attr, self._span(getattr(owner, attr), name))
        for mod in ("qmath", "measure"):
            if hasattr(modules[mod], "stream"):
                patch(modules[mod], "stream",
                      self._counter(modules[mod].stream, "qmath.streams"))
        in_subspace = lambda: bool(self.stack) and self.stack[-1][3] == "quorum.subspace"
        patch(np.linalg, "svd", self._counter(np.linalg.svd, "quorum.subspace_rows",
                                               in_subspace, lambda args: len(args[0])))
        return saved

    @staticmethod
    def uninstall(saved: list) -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation span times (inclusive, ms) and the op's self time."""
        total = Counter()
        child = Counter()
        op_ms = 0.0
        for op, sid, parent, name, start, end in self.spans:
            dur = 1e3 * (end - start)
            if name == "op":
                op_ms += dur
                continue
            total[name] += dur
            if self.spans[parent][3] == "op":
                child[parent] += dur
        out = {f"{name}_ms": total[name] / n_ops for name in SPAN_NAMES}
        out["cli.self_ms"] = (op_ms - sum(child.values())) / n_ops
        out.update({name: self.counts[name] / n_ops for name in COUNT_NAMES})
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("op", "id", "parent", "name", "start", "end")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
