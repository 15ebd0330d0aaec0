"""Byte identity of every CLI output on a fixed panel of configs.

Each case runs one subcommand in-process and compares every file it
writes, byte for byte, with the file of the same name under
``tests/golden/<case>/``.  Only the tool version is masked, so a version
bump alone moves no golden file.  A change that claims to keep the
outputs (a refactor, a speed-up) must match every file; a change that
moves outputs on purpose bumps ``__version__`` and re-records them, and
the diff then shows exactly the files that moved.  A mismatch names the
first differing CSV line, or the JSON path with its old and new values.
In one process the cases share the constants built once per process
(both quorums, the MUB readout circuits, the argument parser), so two
cases also run in a fresh interpreter, where they are built cold, and
compare against the same files.

The files hold for the numpy and LAPACK build that recorded them; a
different build may move the last digits of the floats.  Run this file
as a script to re-record the files whose masked text moved:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import spintomo
from spintomo.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

_RANDOM3 = {"kind": "random", "seed": 3}
#: shots beyond 2**53, where int64 division would move the last digits
_HUGE_SHOTS = [1152921504606859191, 9007199254740993] + [2**53 + 7919 * k + 1 for k in range(13)]

#: (case id, subcommand, config or None, extra arguments)
PANEL = (
    ("spectrum", "spectrum",
     {"dot": {"epsilon": 0.0, "U": 1.0, "t": 0.02, "h1": [0, 0, 0.05], "h2": [0, 0, 0.045]},
      "eps_start": 0.0, "eps_stop": 1.2, "eps_count": 41}, []),
    ("quorum_mub", "quorum", {"name": "mub"}, []),
    ("quorum_james", "quorum", {"name": "james"}, []),
    ("plan", "plan", {"delta": [0.05, 0.01], "p_limit": 0.05, "fidelity": [1.0, 0.8, 0.5]}, []),
    ("verify", "verify", None, []),
    ("tomo_plain", "tomography", {"state": _RANDOM3, "shots": 500}, ["--seed", "7"]),
    ("tomo_exact", "tomography", {"state": _RANDOM3, "shots": 500}, ["--exact"]),
    ("tomo_reps", "tomography", {"state": _RANDOM3, "shots": 500}, ["--seed", "7", "--reps", "10"]),
    ("tomo_exact_reps", "tomography", {"state": _RANDOM3, "shots": 500},
     ["--seed", "7", "--exact", "--reps", "10"]),
    ("tomo_shots_list", "tomography",
     {"state": {"kind": "random", "seed": 7, "rank": 3}, "shots": list(range(100, 1600, 100))},
     ["--seed", "17", "--reps", "5"]),
    ("tomo_readout", "tomography",
     {"state": _RANDOM3, "shots": 1000, "readout_fidelity": 0.9}, ["--seed", "7", "--reps", "20"]),
    ("tomo_noise", "tomography",
     {"state": {"kind": "named", "name": "singlet"}, "shots": 2000,
      "noise": {"gradient_z": {"mean_rad": 0.01, "std_rad": 0.05},
                "esr_x_qubit1": {"std_rad": 0.1}}},
     ["--seed", "4", "--reps", "10"]),
    ("tomo_noise_readout", "tomography",
     {"state": {"kind": "random", "seed": 5, "rank": 2}, "shots": 1500, "readout_fidelity": 0.95,
      "noise": {"exchange_pulse": {"std_rad": 0.03},
                "z_rot_both": {"mean_rad": -0.02, "std_rad": 0.04},
                "esr_x_qubit1": {"mean_rad": 0.01, "std_rad": 0.08}}},
     ["--seed", "6", "--reps", "8"]),
    ("tomo_noise_all_kinds", "tomography",
     {"state": {"kind": "random", "seed": 8, "rank": 3}, "shots": 1200,
      "noise": {"exchange_pulse": {"mean_rad": 0.02, "std_rad": 0.05},
                "z_rot_qubit1": {"mean_rad": -0.01, "std_rad": 0.06},
                "z_rot_qubit2": {"mean_rad": 0.015, "std_rad": 0.07},
                "z_rot_both": {"std_rad": 0.04},
                "gradient_z": {"mean_rad": 0.01, "std_rad": 0.03},
                "esr_x_qubit1": {"mean_rad": -0.02, "std_rad": 0.09}}},
     ["--seed", "8", "--reps", "6"]),
    ("tomo_up_up", "tomography", {"state": {"kind": "named", "name": "up_up"}, "shots": 100},
     ["--reps", "10"]),
    ("tomo_triplet_zero", "tomography",
     {"state": {"kind": "named", "name": "triplet_zero"}, "shots": 100}, ["--reps", "10"]),
    ("tomo_rank1", "tomography", {"state": {"kind": "random", "seed": 11, "rank": 1}, "shots": 4000},
     ["--seed", "2"]),
    ("tomo_rank2", "tomography", {"state": {"kind": "random", "seed": 12, "rank": 2}, "shots": 300},
     ["--seed", "3"]),
    ("tomo_rank3", "tomography", {"state": {"kind": "random", "seed": 13, "rank": 3}, "shots": 50},
     ["--seed", "4", "--exact"]),
    ("tomo_rank4", "tomography", {"state": {"kind": "random", "seed": 14, "rank": 4}, "shots": 800},
     ["--seed", "5", "--reps", "3"]),
    ("tomo_huge_shots", "tomography", {"state": _RANDOM3, "shots": _HUGE_SHOTS}, ["--seed", "9"]),
)


#: the version value, as a JSON output's top-level field and a CSV output's header line
_VERSION = re.compile(r'^(  "version": "|# version=)[^"\n]*', re.M)


def _masked(text: str) -> str:
    return _VERSION.sub(r"\1*", text)


def run_case(case, tmp: Path) -> dict:
    """Run one panel case in ``tmp``; the text of each file it wrote, by name."""
    case_id, command, cfg, extra = case
    out = tmp / "out"
    argv = [command, "--out", str(out)] + extra
    if cfg is not None:
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_OK, case_id
    return {p.name: p.read_bytes().decode() for p in sorted(out.iterdir())}


_ABSENT = object()


def _json_difference(old, new, path: str = "$"):
    """The first path at which two parsed JSON values differ, with both
    values, or None when they are equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            found = _json_difference(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                     f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            found = _json_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(old) is type(new) and old == new:
        return None
    old, new = ("absent" if v is _ABSENT else repr(v) for v in (old, new))
    return f"{path}: {old} -> {new}"


def _first_difference(name: str, old: str, new: str) -> str:
    """Where two different texts of one output file first differ: the
    JSON path for a JSON file whose values differ, else the line."""
    if name.endswith(".json"):
        found = _json_difference(json.loads(old), json.loads(new))
        if found:
            return found
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for n, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"line {n}: {a!r} -> {b!r}"
    return f"{len(old_lines)} lines -> {len(new_lines)} lines"


def mismatches(case_id: str, outputs: dict) -> list:
    """One message per output file that differs from its golden file,
    the version masked; empty when the case matches."""
    golden = {p.name: p.read_bytes().decode() for p in sorted((GOLDEN / case_id).iterdir())}
    found = []
    if golden.keys() != outputs.keys():
        found.append(f"{case_id}: wrote {sorted(outputs)}, golden {sorted(golden)}")
    for name in sorted(golden.keys() & outputs.keys()):
        old, new = _masked(golden[name]), _masked(outputs[name])
        if old != new:
            found.append(f"{case_id}/{name}: {_first_difference(name, old, new)}")
    return found


@pytest.mark.parametrize("case", PANEL, ids=[c[0] for c in PANEL])
def test_outputs_are_byte_identical(case, tmp_path, capsys):
    outputs = run_case(case, tmp_path)
    capsys.readouterr()
    found = mismatches(case[0], outputs)
    assert not found, "\n".join(found)


#: run one panel case in a fresh interpreter and print the files it wrote
_COLD_RUN = """
import json, sys, tempfile
from pathlib import Path
from spintomo import cli, gates, quorum
# numpy.random is loaded by the first stream, not by import
assert "numpy.random" not in sys.modules, "import loaded numpy.random"
from test_golden_outputs import PANEL, run_case
cached = (quorum.mub_preparations, quorum.mub_quorum, quorum.james_quorum, quorum.adjoint_table,
          quorum.mub_readouts, gates._kind_tables, cli._build_parser)
assert all(fn.cache_info().currsize == 0 for fn in cached), "import built a constant"
case = next(c for c in PANEL if c[0] == sys.argv[1])
with tempfile.TemporaryDirectory() as tmp:
    outputs = run_case(case, Path(tmp))
# verify draws nothing, so it loads no numpy.random either
assert case[0] != "verify" or "numpy.random" not in sys.modules, "verify loaded numpy.random"
print(json.dumps(outputs))
"""


@pytest.mark.parametrize("case_id", ["tomo_noise_readout", "verify"])
def test_cold_process_outputs_are_byte_identical(case_id):
    # the panel above runs in one process, so every case after the first
    # reads the quorum, readout circuits and parser built for an earlier
    # one; a one-shot spintomo process builds them afresh
    path = [str(Path(spintomo.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, case_id], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stderr
    found = mismatches(case_id, json.loads(proc.stdout.splitlines()[-1]))
    assert not found, "\n".join(found)


if __name__ == "__main__":
    # rewrite only the files whose masked text moved, so that a version
    # bump alone leaves every file as it was
    for case in PANEL:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(case, Path(tmp))
        folder = GOLDEN / case[0]
        folder.mkdir(parents=True, exist_ok=True)
        for path in sorted(folder.iterdir()):
            if path.name not in outputs:
                path.unlink()
                print(f"removed {path}", file=sys.stderr)
        for name, text in outputs.items():
            path = folder / name
            if not path.exists() or _masked(path.read_bytes().decode()) != _masked(text):
                path.write_bytes(text.encode())
                print(f"recorded {path}", file=sys.stderr)
