"""Byte identity of every CLI output on a fixed panel of configs.

Each case runs one subcommand in-process and compares the sha256 of
every file it writes with a pinned digest.  A change that claims to keep
the outputs (a refactor, a speed-up) must keep every digest; a change
that moves outputs on purpose bumps ``__version__``, which moves every
digest, and re-records the table.  In one process the cases share the
constants built once per process (both quorums, the MUB readout circuits,
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

DIGESTS = {
    "spectrum": {
        "spectrum.csv": "5c29a63b5b527a3c016fb78dc03aabde6228183cf9d3f73281044b232d243a7c",
    },
    "quorum_mub": {
        "circuits.json": "3547faa3deb1b75975e194ef7d2f4e8701d055bc12ab4d90d83140f984b59ce2",
        "pmatrix.csv": "66145b25b15af9e90138d98c237a18eec290bfd013105598ce7da36d1f4f5c3e",
        "quorum.json": "7763f949e3a3ac2dca3d43decd8fc254e1a80f75ae9649687f37c9d5f5e17d87",
    },
    "quorum_james": {
        "pmatrix.csv": "da3a7e85761d36a6d05e5e477618dbbbab964367387142891305ef96f902b591",
        "quorum.json": "1c3d27581b2987ef934efffd6c90d87bad7d0e389a6ae03bfe70133a50afa4b8",
    },
    "plan": {
        "plan.csv": "d1f3a70ae5706c513a7f76da22a9c1dfabdc0eef95295c4b1888971db0972aa7",
    },
    "verify": {
        "verify.json": "18a3a74e5395d2c9bbb8feba2c118f49b93290763b94271e4ee5c8b3cba43c38",
    },
    "tomo_plain": {
        "covariance_predicted.csv": "6790107ab0ef3d98d9ea04e412eac9e573f04bb1563a45db6d09cf6a5159082b",
        "records.csv": "7684c6c821d5e6d948dd8fcfa5e4b9accd28a85fff0a3d76cc32c91c6402b685",
        "result.json": "f620162c7a550bb85b244a14475314aaa0eb03c5e88048749a6bc333dd5f36d5",
    },
    "tomo_exact": {
        "covariance_predicted.csv": "da1a96fc7f1089268b5a0343ad31da4c82af74d89bcec695abf7499f814eb6db",
        "result.json": "0640b5b67b7090544514a1b9d70a1077325db5ae93d11b607074acfdd5048e54",
    },
    "tomo_reps": {
        "covariance_empirical.csv": "6fb0f8fb976fb44520d01a061e9ce7ed951b325a263c77b5ea8accf931ce83aa",
        "covariance_predicted.csv": "6790107ab0ef3d98d9ea04e412eac9e573f04bb1563a45db6d09cf6a5159082b",
        "records.csv": "7684c6c821d5e6d948dd8fcfa5e4b9accd28a85fff0a3d76cc32c91c6402b685",
        "result.json": "59436022d89da36c6d6500c71d1431b6f95d0a95fd3cb357bf98b7034add4dfb",
    },
    "tomo_exact_reps": {
        "covariance_empirical.csv": "6fb0f8fb976fb44520d01a061e9ce7ed951b325a263c77b5ea8accf931ce83aa",
        "covariance_predicted.csv": "da1a96fc7f1089268b5a0343ad31da4c82af74d89bcec695abf7499f814eb6db",
        "result.json": "c995f6ba9341973fcd75dad7e544414866eb04390886609367b8e5105341c3d8",
    },
    "tomo_shots_list": {
        "covariance_empirical.csv": "56f3b396614c7987a8896ed89a473ebf3a7b5e9e53dd326ce74a556ccc3882bb",
        "covariance_predicted.csv": "f762f73a2518bc111e7a8a23865a132fdf1255409b3a0096ec2b9ea1c7d25f95",
        "records.csv": "6d7de3b471055d43990f42dba5fdaba679677d359e8dda62082e63d21fb75e3e",
        "result.json": "32806c6c2f0a772d1fd8b777f59b0bb7329e97360533f34031a9119d19acf2ee",
    },
    "tomo_readout": {
        "covariance_empirical.csv": "0afc9613a7c66ffbc5331409c1371f85666af325d3e2af866668c2920a30220f",
        "covariance_predicted.csv": "fc66a51573383d9a5291c19b006bba259dda1ecb051bd20b7bb6757b609e4884",
        "records.csv": "e22651c970a285d8abca9d15321810d43254a95e901b490468071d58c433ec98",
        "result.json": "b80f0f3f65adbb67488cd8d329d75c917d237f9b2284ff4cd8420a9e8b060765",
    },
    "tomo_noise": {
        "covariance_empirical.csv": "3da62ee4d95146343d4fd8ee5d3798ebb4b1f5789bcdd69f30cfc7e2bb72b176",
        "covariance_predicted.csv": "6468b65764ad3a7ce8635b5de7b574eecb0cb97d3e8db8b21d4ef98da50bcabc",
        "records.csv": "b7854ac6b5ec493c8e9172a9636eaa6c1120ed810a214c0571710ec6c6722b79",
        "result.json": "7a89090cc7c184c61be6637cb9b3d3c8b0a8261dcb195b76f1b2db41fbabb2f0",
    },
    "tomo_noise_readout": {
        "covariance_empirical.csv": "a05e627c650052f44e5b59cc108c37e23c00df7149bb1c0335a1b9dadeecf1e1",
        "covariance_predicted.csv": "b98017f7f030c610119df1b617c3dd65e46a1aaf4e673efc3e36df43c36d7485",
        "records.csv": "26ca504997ff60cfcf6a0af0993ef1dd07ccc0d55cb7019c63d19d901a43c4ea",
        "result.json": "d7580ce74396d1ec44f3edbc6952469e0a49c57545956cca37e28a0f5b95cbb5",
    },
    "tomo_noise_all_kinds": {
        "covariance_empirical.csv": "07aedcf8233eeb04198ef0f8152dc81bf982a5b2b21b078d28729908b9393eb8",
        "covariance_predicted.csv": "88082832a03614a4fc519c5eecda9690ba801e5435d05fbd69ede9959d8dc47b",
        "records.csv": "c0ce5a36bf44973b3d51f631abe44848556b82f5e0393afba2eac3925f5dc081",
        "result.json": "bbc861077e908bb1a8eaa78a2e7af4b0f9d4933a4f350535c7ba30e37250202a",
    },
    "tomo_up_up": {
        "covariance_empirical.csv": "697b0c202606ca14f9f0da5572952ef4651408715e7031c063f2acf8e60545a5",
        "covariance_predicted.csv": "97b1d5fc559622b01fd55f737c6551f7751e954464bb1cc772b1239ae6469c5b",
        "records.csv": "808ae80ead0f2313b53d1e0a8d3fb74e31fb935be81a6a0e5e103f5750390021",
        "result.json": "8875692f33e17364d4e6843ee304b5d4664c7d3e2dba85412596aabf419412ef",
    },
    "tomo_triplet_zero": {
        "covariance_empirical.csv": "8bb410dfea1a1ecff5b4e086c15eed17863bc1fb9bbf9b1cf468cdfd35ad509b",
        "covariance_predicted.csv": "a2298c5cbfe7a7817119a2a6de1f2948f9f2eb24e6cebe6f208d9e4902b2a4bf",
        "records.csv": "a8f3bc5fc91a6c084d6ba16f6a3fd76e5dff1ec54386bbed379fce0633a9d67d",
        "result.json": "35787f8dec0fce8fa0facd60ccdcb9167d609cfd657d3181b335671fe0c0c3d3",
    },
    "tomo_rank1": {
        "covariance_predicted.csv": "36a74293fd7bbefb09e3f3cb7d4fee0c9ebe184044c29bd68884cc9837689a91",
        "records.csv": "415c8e228698ce2fff7d4e119960e20c167098cbd07f03be1fc6ef3eca6d55e2",
        "result.json": "97da31cec0b4641742a4bf13031926de15623ec1d23df95af2361a6926c3a2a3",
    },
    "tomo_rank2": {
        "covariance_predicted.csv": "234645973e0761df5010f3331c6708ae2b3492fecd398a453c7304130ebc3a39",
        "records.csv": "a9026db54745455085b1799a4b50306b914d6ee31a9c92a7a4106afd4d8ad8e0",
        "result.json": "b57bd1bd6c271f5218c85e40b70b8227b78c87ee92a21a0948a668f582539252",
    },
    "tomo_rank3": {
        "covariance_predicted.csv": "abc21929debfa3aa4b8de3b40789998daf2f44e6b450160c5d5f11020b6ce342",
        "result.json": "279900ac54ed7c17eef432e5ef4643444c1cb269216a24fb66471defd6507cb0",
    },
    "tomo_rank4": {
        "covariance_empirical.csv": "8a3a09adbdb2885488c74a3fae93e801351f7c3893d3d549f36d4162ecc96fca",
        "covariance_predicted.csv": "c45287366fda3fe9fd315571c97432c3d4c08b7c2afe31477f3d463a8f870dbf",
        "records.csv": "7ed73b9e7b67b49c567c0137a0c3058dfa38d6acb13261e006239faaa83c91a9",
        "result.json": "6858625ed880ab9887e3b1b660d4df65d3c440d2815cc2d53e885938cb1eeee6",
    },
    "tomo_huge_shots": {
        "covariance_predicted.csv": "25f2e7b2c8499ab3cc442b9729831ad43db33cf7de9b490feefa384085845ddb",
        "records.csv": "18496d88832f68dbfb77e8aac849fc48b420c4e317151730d0b331356229d55a",
        "result.json": "f76a3d996cc0d70b848e45ef41772c2e23cef69411aafb204cbe83b967d9e4be",
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
cached = (quorum.mub_preparations, quorum.mub_quorum, quorum.james_quorum, quorum.adjoint_table,
          cli._noise_readouts, cli._build_parser)
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
