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
        "spectrum.csv": "1d721d5c78b308885e9a4704331add8d171fa3bf8020b37fe53bb32f1fc1f385",
    },
    "quorum_mub": {
        "circuits.json": "8dce7e666fee397d7820334ec6f57cc95a0d24b7c1a4fceea75f17bd4a79a23e",
        "pmatrix.csv": "82f7e62f0dd6fa12c2e3c6f444947aa7664a35cc868c131a453d423d2bdf097b",
        "quorum.json": "27bb2d99d1d01306a1116716fa34e4060c9e8c0ccdebbeb753b2eb7d453e2b26",
    },
    "quorum_james": {
        "pmatrix.csv": "31a562bc8d9369492ea3f48fe40b3d80604309240ac18690771015b80bd4e932",
        "quorum.json": "0cd2a133ad1821f528bf03298f28ba5caef4228ea7ed3079f3005b81aab17173",
    },
    "plan": {
        "plan.csv": "a64cbbbcbd64df0133f14c828aa5159b3af8ddbdfc5f7e54842af6fd04f45788",
    },
    "verify": {
        "verify.json": "e6102fe7256c20b442de162e3a10682e7da937cf275fc593dbc91ef5f4de37a8",
    },
    "tomo_plain": {
        "covariance_predicted.csv": "b39c747df2ebb3e230f0fbcc28f4be06ce81d9af052b2114b5ca0098d723c089",
        "records.csv": "6833dbc49d49de8b6b8e0289e15e860f6a9651f019b3b2580dfb3dbb9adfc9ae",
        "result.json": "77a252cac8455adad5d85ed65864c408ef708ea28c89af2d56486d880fffe22b",
    },
    "tomo_exact": {
        "covariance_predicted.csv": "7fcbdf02e2710b179cffeff0507c3874b57447913778f73304324008a71c5374",
        "result.json": "5525d4ee838400574b808207224d9529fcff3c865644e904763e1632537f2eb9",
    },
    "tomo_reps": {
        "covariance_empirical.csv": "b038b195d2ffe0cbbf9589fcfbdaf50ce7b4486ad5e98f2c20bb9dd24010bf45",
        "covariance_predicted.csv": "b39c747df2ebb3e230f0fbcc28f4be06ce81d9af052b2114b5ca0098d723c089",
        "records.csv": "6833dbc49d49de8b6b8e0289e15e860f6a9651f019b3b2580dfb3dbb9adfc9ae",
        "result.json": "639cc7a2f4fe61717e95e103f67855f328e0f57498d44fba55e250406fb81818",
    },
    "tomo_exact_reps": {
        "covariance_empirical.csv": "b038b195d2ffe0cbbf9589fcfbdaf50ce7b4486ad5e98f2c20bb9dd24010bf45",
        "covariance_predicted.csv": "7fcbdf02e2710b179cffeff0507c3874b57447913778f73304324008a71c5374",
        "result.json": "26ab4f87ae1b4fc36b6bc8772b11ed49ab0dad4f12b0607641cb4c1fb44b194a",
    },
    "tomo_shots_list": {
        "covariance_empirical.csv": "127d5785707719d7ce4b7c54e2ef66771aa79d1fcbc938cf6aa4388fd8664b48",
        "covariance_predicted.csv": "db83e1db8d9a92eaa58092716eb762d59e01a43e3414b0b68c177a2717dc6e72",
        "records.csv": "929806754304d2d2b516fd72f57502f569b603ada372aacd00eab1f67e50b7fc",
        "result.json": "e503984267e2d23f5b2d8d2fefe2740b17bf323cdd8cae87bc31e32fa2799d1a",
    },
    "tomo_readout": {
        "covariance_empirical.csv": "644c35b647c4af266db85c71466c852ae9286bef7d636ee19b3c58f360b45dc1",
        "covariance_predicted.csv": "377498196c47e382d376443f849b16af780c922e0d0e10c77eb636e80d0c6935",
        "records.csv": "b43e8639a909d1cb9529b0b1712b6aacec2ad0e69ad01fee2a845d9ac131328d",
        "result.json": "33531ec185ac0a2e531c4882c8e33d0e08a57d90a843c97edb5e6c1606139f7e",
    },
    "tomo_noise": {
        "covariance_empirical.csv": "3d558dbee6dda2a227985d986199c71d9d59e3dbe3958e64d787a6a67523c467",
        "covariance_predicted.csv": "3459b0f0eccdcc321ba03c70104a17ef288c1f31ad584c982a3d3622499dee68",
        "records.csv": "4b7c1ab608a135b3975e4dfe6c7bbb00f2a756995144f49f2199748848f2c383",
        "result.json": "abcb7a20086ac2d0899b0f79a35c75aeac9fbcd370d00181bbf6537a66a57a41",
    },
    "tomo_noise_readout": {
        "covariance_empirical.csv": "bbe02212d3e91a304e7b4f6929fa95df95341e5b74b52adb32c4eff23c5e9f7b",
        "covariance_predicted.csv": "961d3cb12e463538cf0a5a010d4a8720db35f9e5b1f6e023deb38f7b7b9ab021",
        "records.csv": "6554a765c1a5604440ee636395d00aa003cf7f3340f8ca8d4e4d9ead846bc0cc",
        "result.json": "467c24fa51318ff084107daa518a116255910657c2f7528b8f75d766e9b4000a",
    },
    "tomo_noise_all_kinds": {
        "covariance_empirical.csv": "cb8fe9c7dee400a4a55908edb07424b6dbf1befca62a4754b076252b8800162a",
        "covariance_predicted.csv": "13e4096e06e05c6ae50d50026752e125d84e686562b5388c54f8a7875111b926",
        "records.csv": "b2009db6641087a791d3af28fc1fd7168e4f97c9b44f30bece53ca8c3a917f94",
        "result.json": "68022a3bcec844117182efef407dd8256e7509da02afa837c7c64fee2fc10f94",
    },
    "tomo_up_up": {
        "covariance_empirical.csv": "f5a19ebf54bf8cf68d53d92f908e64c9c4f19696e2c34cb9441f5659ac813188",
        "covariance_predicted.csv": "8352828122a92f51636e82143698fe2f0551792b0bd6bc459697d461f0601eef",
        "records.csv": "0ac3d4590a87e0e1c29d3408af5f16790a843fcc00f474ccb9589424db5e6350",
        "result.json": "f8d21f559e86b1113749d210308fd40628beb1da91e9ffecb2d444e110ebf11d",
    },
    "tomo_triplet_zero": {
        "covariance_empirical.csv": "c84228c33577b533f56ebb968f788005c83ea4e97dbc8a21cbbdfa124e0d1110",
        "covariance_predicted.csv": "0511730d929f518e66b821657ee38128c15d63db310304c743b141cf3858becd",
        "records.csv": "f3b4755ab43ff4586fb858874e0defb426dce487537ad997b83b36280ca5ae65",
        "result.json": "1249caccd1b1c8b0ab8d6ee361e804760ee1b3aa6269bdcc6e84fb8665adff65",
    },
    "tomo_rank1": {
        "covariance_predicted.csv": "c127edf7b5c204ca679a26b9e2906a76663bdb04eee3bdbbdf7bfdf931e1642e",
        "records.csv": "40f95a52a7dd6935d8cbb42c8cd4f32b1b9546167ed0c2e3c4b775731e0b98a6",
        "result.json": "158b37962e4a8c8cc8e4c7ea7d0cfecfff1e368404b17517c982502f10b369f0",
    },
    "tomo_rank2": {
        "covariance_predicted.csv": "f6b7c6ed50b2eefed993fb4ea4c4a2bb1d32e51fd40905ef8714d3647b01b849",
        "records.csv": "007b3641c11914359283498d7ba7713598cd3ac05af6be1c89f410bead7b0c65",
        "result.json": "96f8fc15ff521ad10543f040d11737e1802d5466f1295801aef130cb3e78ee13",
    },
    "tomo_rank3": {
        "covariance_predicted.csv": "2eaf68ef53715e9de406d875d71eb0b18f2ced6c52e9c6662312fc57cea6cb98",
        "result.json": "38f18cb8d94943b7183e884358631aa8fae1ccbce8fad16ba534662af61d3c04",
    },
    "tomo_rank4": {
        "covariance_empirical.csv": "ebc222d51673b0d98856e0c4082da217f4dee727173f34f199055016f23afb1d",
        "covariance_predicted.csv": "622d4e56cbc3b0a98b0f7b0e6c379a8fa980d674cbaf23107ff089ec36b71f1c",
        "records.csv": "cec0ed8a0898c6036a33ecac4f9ca0ef20a71752fe7d9cc2054169fba7d3e11b",
        "result.json": "5013ed2da898fb16ee1bd4cc569057c69d9a0acb85998c0bed8ef421fa1c5d1a",
    },
    "tomo_huge_shots": {
        "covariance_predicted.csv": "84a72311fee72f61321e32ec530d9c4c1dab9099616397b75a61b578d89ad7a0",
        "records.csv": "2a06689f19b38ab5f6666b2a2dd8796f4383c2c52f7bb27fa2b06754dc693a3b",
        "result.json": "b236b361aa6782f00e198c523bdce71f8797039b6eeb0cba61640ee678bb35e0",
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
