"""End-to-end and per-layer benchmark of the spintomo command line.

    python3 perfbench/run.py --workload tomo_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One caller in one process calls ``spintomo.cli.main`` back to back (a
closed loop) on operations generated from the seed before timing
starts.  Every run replays whole rounds of that operation list and
checks every output.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread: a single caller, steadier figures on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5


def _import_package():
    """spintomo from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import spintomo.cli as cli
    except ImportError as exc:
        sys.exit(f"cannot import spintomo from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"spintomo imported from {cli.__file__}, not from {SRC}")
    from spintomo import _kernels, measure, qmath, quorum, reconstruct

    return {"cli": cli, "quorum": quorum, "measure": measure, "qmath": qmath,
            "reconstruct": reconstruct, "_kernels": _kernels}


def measure_setup(work: Path) -> list:
    """Fresh-interpreter import plus warm-up, SETUP_PROBES times in a row."""
    probes = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


class Runner:
    """Runs, times and checks the operations of one workload."""

    def __init__(self, mods, ops):
        import workloads

        self.wl = workloads
        self.cli = mods["cli"]
        self.ops = ops
        self.checker = workloads.Checker(SimpleNamespace(**mods))
        self.attempted = 0
        self.failures = []  # operations that did not exit 0
        self.errors = []  # operations whose outputs failed a check
        self.sink = open(os.devnull, "w")

    def close(self):
        self.sink.close()

    def run_op(self, index, op, tracer=None) -> float:
        self.attempted += 1
        span = tracer.begin_op(index) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                code = self.cli.main(op.argv)
        except Exception:  # noqa: BLE001 - an escaping exception is a failed operation
            code = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
            tracer.counts["cli.bytes_written"] += self.wl.output_bytes(op.out)
        if code != 0:
            self.failures.append(f"op {index} {op.argv}: exit {code}")
            return elapsed
        self.check(index, op)
        return elapsed

    def check(self, index, op) -> None:
        try:
            if op.digest is None:
                self.checker.check(op)
                op.digest = self.wl.output_digest(op.out)
            elif self.wl.output_digest(op.out) != op.digest:
                raise self.wl.CheckError("outputs differ from the first run")
        except Exception as exc:  # noqa: BLE001 - any check failure marks the run incorrect
            self.errors.append(f"op {index} {op.argv}: {type(exc).__name__}: {exc}")

    def run_rounds(self, seconds: float, rounds: int | None = None, tracer=None) -> tuple:
        """Whole rounds; without ``rounds``, as many as fill ``seconds``
        at the pace of the first round (at least one)."""
        times = []
        done = 0
        while rounds is None or done < rounds:
            times += [self.run_op(i, op, tracer) for i, op in enumerate(self.ops)]
            done += 1
            if rounds is None:
                rounds = max(1, round(seconds / sum(times)))
        return times, done


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "bytes" if name == "cli.bytes_written" else "count"


def run_workload(args) -> dict:
    mods = _import_package()
    import numpy as np
    import workloads
    from setup_probe import warm_up
    from tracing import Tracer

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probes = measure_setup(work)
    warm_up(mods["cli"], work / "warmup")
    ops = workloads.make_ops(args.workload, args.seed, args.seconds, work)
    runner = Runner(mods, ops)
    try:
        times, rounds = runner.run_rounds(args.seconds)
        setup = [p["import_s"] + p["warmup_s"] for p in probes]
        if not args.trace:
            import resource

            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (len(times) / sum(times), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(times), "ms"),
                # the order statistic at or below the 95% point: in a short
                # run of slow operations one stalled call does not set it
                "op_p95_ms": (1e3 * float(np.percentile(times, 95, method="lower")), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            tracer = Tracer()
            saved = tracer.install(mods)
            try:
                traced, _ = runner.run_rounds(args.seconds, rounds, tracer)
            finally:
                tracer.uninstall(saved)
            tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            metrics = {name: (value, layer_unit(name))
                       for name, value in tracer.layer_metrics(len(traced)).items()}
            untraced_rate, traced_rate = len(times) / sum(times), len(traced) / sum(traced)
            metrics.update({
                "setup.import_ms": (1e3 * statistics.median(p["import_s"] for p in probes), "ms"),
                "setup.modules_loaded": (statistics.median(p["modules_loaded"] for p in probes),
                                         "count"),
                "trace.ops_per_s": (traced_rate, "1/s"),
                "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
                "trace.overhead_pct": (100.0 * (untraced_rate / traced_rate - 1.0), "%"),
            })
    finally:
        runner.close()
    for line in (runner.failures + runner.errors)[:20]:
        print(line, file=sys.stderr)
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_smoke(seed: int) -> int:
    """A few operations of every workload, every check on."""
    mods = _import_package()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        work = WORK / "smoke" / name
        shutil.rmtree(work, ignore_errors=True)
        runner = Runner(mods, workloads.make_ops(name, seed, 1, work, smoke=True))
        try:
            times, _ = runner.run_rounds(0, rounds=1)
        finally:
            runner.close()
        problems = runner.failures + runner.errors
        status |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {name}: {runner.attempted} ops, "
              f"{len(runner.failures)} failed, {1e3 * sum(times):.0f} ms")
        for line in problems:
            print(f"  {line}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("tomo_stream", "cov_study", "noisy_tomo", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a few operations of every workload with all checks")
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
