"""Byte identity of every CLI output on a fixed panel of configs.

Each case runs one subcommand in-process and compares the sha256 of
every file it writes with a pinned digest.  A change that claims to keep
the outputs (a refactor, a speed-up) must keep every digest; a change
that moves outputs on purpose bumps ``__version__``, which moves every
digest, and re-records the table.  In one process the cases share the
constants built once per process (the MUB quorum, its readout circuits,
the argument parser), so two cases also run in a fresh interpreter,
where they are built cold.

The digests hold for the numpy and LAPACK build that recorded them; a
different build may move the last digits of the floats.  Run this file
as a script to print the table for the code as it stands:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import spintomo
from spintomo.cli import EXIT_OK, main

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

DIGESTS = {
    "spectrum": {
        "spectrum.csv": "a8134e648bcbd44767a74f54e3d5803a13f413e1909924150cdf5c2d12b8f99a",
    },
    "quorum_mub": {
        "circuits.json": "afe106d60ee17f08ba4d635945654da3581410b07bbccf3b9140cf983a188c93",
        "pmatrix.csv": "dbde84051256b044fbfb71f7067c52408055b0ae82cebc85b36da57f8429f6cf",
        "quorum.json": "a676f076346b2a9e6bae9d9f2a9808ca8a8abe6813176c61dff1f4c2a7231953",
    },
    "quorum_james": {
        "pmatrix.csv": "a6a362734d7891998ec39dfe93d847957ef9e64ce27dccaf10e199b1c9373806",
        "quorum.json": "242bb8b4731d9d4119351a3acb275bb22ab065e33bf490aad3ebf49ce2f7d3e7",
    },
    "plan": {
        "plan.csv": "deb6bb138885469fa5d67283c0ce9632ba06ba3e3e708fc68ba36565242f84a2",
    },
    "verify": {
        "verify.json": "88c07eee746f6ea5079dccdb05f3c54d65dfcbceef6b2173be37a1d9cfef879b",
    },
    "tomo_plain": {
        "covariance_predicted.csv": "56cfda600209c5c3c66251e6e80ad7fa68dc9cdb0461a165add6bdd6ddf907a7",
        "records.csv": "65907f3796798fe07e76ff6c6769ff36c0ceecb6b69173ec6250f71db52cf19a",
        "result.json": "1bd67eb4ba847bd46bad79a71a33fec3196099682b631350c87594ac91dbd5dd",
    },
    "tomo_exact": {
        "covariance_predicted.csv": "fb197e976435a0a0bc22a3823c5b2c8fe3bcfa0987d83324bbc899c68ba96e08",
        "result.json": "adaf6f7e7f305233185605df4d86e294e47bebecfe2e5e087e55fe312b8a723b",
    },
    "tomo_reps": {
        "covariance_empirical.csv": "dd36a74497248818c86cd3076d99232d4137966f25e5126299d37aff9ad07c35",
        "covariance_predicted.csv": "56cfda600209c5c3c66251e6e80ad7fa68dc9cdb0461a165add6bdd6ddf907a7",
        "records.csv": "65907f3796798fe07e76ff6c6769ff36c0ceecb6b69173ec6250f71db52cf19a",
        "result.json": "cfd91e10adf2daf8ba486e23c5a387aa6bfa17581832b15d81a17d6cebdf6cdb",
    },
    "tomo_exact_reps": {
        "covariance_empirical.csv": "dd36a74497248818c86cd3076d99232d4137966f25e5126299d37aff9ad07c35",
        "covariance_predicted.csv": "fb197e976435a0a0bc22a3823c5b2c8fe3bcfa0987d83324bbc899c68ba96e08",
        "result.json": "e0697ca32b193361dbb0eaadab51696fc906f7312773b787fee44989042e1768",
    },
    "tomo_shots_list": {
        "covariance_empirical.csv": "26a2ca56f1d4d1dfe28b78310798d610f92a3a400bb368dbcdf34d3ca71b8973",
        "covariance_predicted.csv": "770a86aeb10487690274c6e43545aec775022d10fc25d0e5bf801dd49546efe5",
        "records.csv": "fad14534c8ae975974ffac0ea077abd3c9b0ab467e1292ec554f83c5cc114a37",
        "result.json": "559f539af0352986d1642f5b24f3eb74639524be9f0622d5e040985d15bf42d1",
    },
    "tomo_readout": {
        "covariance_empirical.csv": "1353e388392dcbfea8e4c74b5188dab44f5c7ba4c94341f00336b18a26a69649",
        "covariance_predicted.csv": "9612b7dfec115cf21732e897b6fc7c9cb684b5258823fc383ae3a517ab89623d",
        "records.csv": "edf3a6452f3474f8099081c5b4024d916924ffc5a11e4a8774e4382bebbb42ea",
        "result.json": "c89d93bff2cbbf4e77c50ada41e9b0d7877fa0a263fccaa83729a1f6d0a3caac",
    },
    "tomo_noise": {
        "covariance_empirical.csv": "6aa60a1b6ad633bf2815ede35776bbd045cd867106195b3f46c5f356c7dfcf54",
        "covariance_predicted.csv": "9e4d15d61dea5f1572378c63362a98e0899ed678ae16f753eb6b573fb281e6f5",
        "records.csv": "36470003ee8e10b85646d431d6a7125dcc43dc71e6f64fa9ff710b21724ba951",
        "result.json": "39e44bfae7848ac4878ef4dd65ce74ad014c3c197406053e124d3a991df4a64c",
    },
    "tomo_noise_readout": {
        "covariance_empirical.csv": "5d0579b0268077e52a598ce07b0435e24cc6308af01c6b9c20fe79198e8371b5",
        "covariance_predicted.csv": "82bbfca9cc6cc4b65bf751543ad9307ee8198f1109f085cabcca3160681f052b",
        "records.csv": "028535b1e54024083c97e6f0e8aea810800ee0cbb14a1cef9f501ee8cb51c337",
        "result.json": "aca8f5cca2de880553e7d27c084608691045482e92eab6da1a084d6b313fcc43",
    },
    "tomo_up_up": {
        "covariance_empirical.csv": "faefa0a8f6d5b82a535506f1a735fa4e4001cbc3732f5e35ca5b0966b3773ea4",
        "covariance_predicted.csv": "b03d2769f4d5a643255a990b501903dc37555bbd488fe9fbc6f348df782f1734",
        "records.csv": "d1e89fcd64e766e6aff8e38c7bc07befcd11d15b6b2a443f864a7a680b026926",
        "result.json": "045afae0afefba5d863464f50bd023be0c4b06dc1222e89bad65ffb8a0cf47ab",
    },
    "tomo_triplet_zero": {
        "covariance_empirical.csv": "39fc71fc1070c43170a570ef6c1f7bb5548607b6954f0fb1faa8c2c061a89e64",
        "covariance_predicted.csv": "3f8744ab16059742c6573f995a75642f8664506420c2045b82c0165444b22760",
        "records.csv": "b9940a7b5d3d38ddf2a5552c498fe614675c183d02c1adf16e69db59d57d3b69",
        "result.json": "638d853357077e91eaada06d500f894069a11f9bf1b1fbf8aa749103a3fb65ef",
    },
    "tomo_rank1": {
        "covariance_predicted.csv": "7417f63f12aa24a795b6ee8b1e29592e65319efbe1681b40fbf1c2c9b17503b0",
        "records.csv": "63671827b9fbbeea4dbeba9810dc8c5bcfde55297e50b506967290f39fcf43e7",
        "result.json": "c6b2ee622ecaaa0090edc1e5fd3b93ae42a8108d665b75bfa09a9729aa523d26",
    },
    "tomo_rank2": {
        "covariance_predicted.csv": "97c56f29a19be7393720ad822c42e6415edbe088d4c2f4ed05e8a3b9a2e5d847",
        "records.csv": "7fe78a62d86ec07c24c7aa27435141027b4598ac80395bd7ab7b771e97a14342",
        "result.json": "22c5cb601b498794cb139287b104a3c448327277e6ce2ddc04f2e93270437d04",
    },
    "tomo_rank3": {
        "covariance_predicted.csv": "e08c0a407287cd8854a849a52f3aad597037ec9bd9f775994becb6c79a7b2d89",
        "result.json": "6580604e9914d99a7d8b27cd488ec6cf401d18c9f1dad56863658269a70a5bb5",
    },
    "tomo_rank4": {
        "covariance_empirical.csv": "909bdf7a656bc5aa68357456bef679a67e74dfe6ae680159e9523c48c546dacb",
        "covariance_predicted.csv": "f50e54c8b33ab67f540c85f29843cf2214ede958d3e8f3709e9ad4eced3918ec",
        "records.csv": "01dd168f36fc675f543fb9131b08ad870702346edfae822b4bb004ddbe261174",
        "result.json": "423ff49cb9f2a3d2d331777755d07efd5ea23dfa36c219c3a4b72a43f01f41fb",
    },
    "tomo_huge_shots": {
        "covariance_predicted.csv": "049e5f325ae1361ff531d15e6c8ec5fab9b68217f8be76126cadae8bbe014255",
        "records.csv": "a353ae8ffcb8388b37cffef455339895c019c31cc1fd0c16be3f56f40b7eceea",
        "result.json": "e308bc7da409a467d67ba5c6ed6780f6425d8771bf057d8e4dc4bb989d47a22e",
    },
}


def run_case(case, tmp: Path) -> dict:
    """Run one panel case in ``tmp``; the sha256 of each file it wrote, by name."""
    case_id, command, cfg, extra = case
    out = tmp / "out"
    argv = [command, "--out", str(out)] + extra
    if cfg is not None:
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_OK, case_id
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", PANEL, ids=[c[0] for c in PANEL])
def test_outputs_are_byte_identical(case, tmp_path, capsys):
    digests = run_case(case, tmp_path)
    capsys.readouterr()
    assert digests == DIGESTS[case[0]]


#: run one panel case in a fresh interpreter and print its digests
_COLD_RUN = """
import json, sys, tempfile
from pathlib import Path
from spintomo import cli, quorum
from test_golden_outputs import PANEL, run_case
cached = (quorum.mub_preparations, quorum.mub_quorum, cli._noise_readouts, cli._build_parser)
assert all(fn.cache_info().currsize == 0 for fn in cached), "import built a constant"
case = next(c for c in PANEL if c[0] == sys.argv[1])
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(run_case(case, Path(tmp))))
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
    assert json.loads(proc.stdout.splitlines()[-1]) == DIGESTS[case_id]


if __name__ == "__main__":
    table = {}
    for case in PANEL:
        with tempfile.TemporaryDirectory() as tmp:
            table[case[0]] = run_case(case, Path(tmp))
    print(json.dumps(table, indent=4), file=sys.stderr)
