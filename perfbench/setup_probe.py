"""One set-up measurement in a fresh interpreter: import, then a warm-up call.

    python3 setup_probe.py <src dir> <output dir>

Prints one JSON line: import and warm-up seconds, and the number of
modules that importing ``spintomo.cli`` loaded.
"""

import contextlib
import json
import os
import sys
import time
from pathlib import Path

WARMUP_CONFIG = {"state": {"kind": "random", "seed": 0, "rank": 4}, "shots": 1000}


def warm_up(cli, out: Path) -> None:
    """One cheap tomography call: argument parsing, quorum build, both
    estimators and output writing all run once."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "warmup.json"
    config.write_text(json.dumps(WARMUP_CONFIG))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(["tomography", "--config", str(config), "--out", str(out), "--seed", "1"])
    if code != 0:
        raise RuntimeError(f"warm-up call exited with {code}")


def main() -> None:
    src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    sys.path.insert(0, str(src))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import spintomo.cli as cli

    t1 = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"spintomo imported from {cli.__file__}, not from {src}")
    loaded = len(sys.modules) - before
    warm_up(cli, out)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1, "modules_loaded": loaded}))


if __name__ == "__main__":
    main()
