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
        "spectrum.csv": "c6fc9aa2e222915a34581dece1255872b141ccd89dfe6270ce677a3f167e786c",
    },
    "quorum_mub": {
        "circuits.json": "94a0d67e50f1ebbb13b32c5a1c2be88d9d021fb9b66f5bf5ca73f5f64e9c3fc4",
        "pmatrix.csv": "78c7c3f951c001e3f5fb2626603d4959344f58149b89c644c80942f2c899ea14",
        "quorum.json": "98f9dafc4e03fe3ab3b0214f56e49889579a62ac4f5b62ea03e5da31de6b55ec",
    },
    "quorum_james": {
        "pmatrix.csv": "909151991f0d2ad18fbdb5f5551c99b626ca36ec9b5ca64f0e580d82593701dd",
        "quorum.json": "105e36d491388878aa1e682c9cdcc8bd76fc6c002cb35fe5e90b1f2e0683b31d",
    },
    "plan": {
        "plan.csv": "2b76b8deeb320af8ed57f2cbb053a1222717af72c3fb9b3ec0f75471d42ed8e3",
    },
    "verify": {
        "verify.json": "8bdb4e6e864258eb1127834550b70423aff08e691f8d41ab597089b1c3da2155",
    },
    "tomo_plain": {
        "covariance_predicted.csv": "c74d084965e188f7dd55b3f7bd319a1709e6fe0ab6ecbc7b8c4b621759484a89",
        "records.csv": "40b5dfb4eb9e55972d523a9ecf2233169fffd5fc6fa1e497010c177c3d7ec81c",
        "result.json": "9db4ca9f1de815d8b11d0656ac367c1685aedb2ea3734d76cdb6a667c5dc79ff",
    },
    "tomo_exact": {
        "covariance_predicted.csv": "5086c05a43d9fc57c513249888220ae87f3b70c1ee71dc226d121a451bbc3d12",
        "result.json": "0bdefea906a69ddc4ab61e3ed9b8569552636b6f75f48489cd0c3931a3bf5d3f",
    },
    "tomo_reps": {
        "covariance_empirical.csv": "c1fcca3395bab09c7354978cede55de0f99195ab3574ffc9478bfceef6f2f4cf",
        "covariance_predicted.csv": "c74d084965e188f7dd55b3f7bd319a1709e6fe0ab6ecbc7b8c4b621759484a89",
        "records.csv": "40b5dfb4eb9e55972d523a9ecf2233169fffd5fc6fa1e497010c177c3d7ec81c",
        "result.json": "5062063e3f11dd4885cf6adcecc71ea65eb7fa36aae6b41c9d9d87ad11ef7d43",
    },
    "tomo_exact_reps": {
        "covariance_empirical.csv": "c1fcca3395bab09c7354978cede55de0f99195ab3574ffc9478bfceef6f2f4cf",
        "covariance_predicted.csv": "5086c05a43d9fc57c513249888220ae87f3b70c1ee71dc226d121a451bbc3d12",
        "result.json": "dff3b2a0b646b3db34fc3db771a2251fc7318c4fcec63a470e14ab017d243e0f",
    },
    "tomo_shots_list": {
        "covariance_empirical.csv": "fb8e8249f4b673223aaf8a07a79eadbd0711f17ceebe2a70eefb843bba24babf",
        "covariance_predicted.csv": "70b06f2c52b33ffb9c5182970acec1bc7b9d39cd265d04370dc49f82cefc1d3d",
        "records.csv": "c5743b65b2645ff7ba91928437250d0b68b29325d48edc3084addb886223150e",
        "result.json": "a2486c0587072afa245ac63b744120c0924ced72995921f94c41519ee1e27dcb",
    },
    "tomo_readout": {
        "covariance_empirical.csv": "8684a5dbf58a87228aa1a5404c27a5192b06986258a3d6ee4752711d3bdff9d9",
        "covariance_predicted.csv": "77cb8900163c6c9e67cf9d9cc47437ab68eaa0f3e1244b817160c6d6a25ff58a",
        "records.csv": "2da06eb9f6b915920ecc2c529ce519986cd1d8f4ef97abef776d56a4c919abb8",
        "result.json": "d805af54cbc854817ff82cfbbcf120b30a608901942dd75bf27ce9fa4935b9f7",
    },
    "tomo_noise": {
        "covariance_empirical.csv": "bc0c8fd89e3d928d2be58f986cdeee2b0c3807afbc111442cc138478d7b85779",
        "covariance_predicted.csv": "8be63816d1bfdafd7a6bedc39ce9bdf7b021318ac8340c6787244e3b970ae7bb",
        "records.csv": "2cee843be8da1efa4fb0535d11e21822bac6867de538ebb49edbbdfbf83d03af",
        "result.json": "20cec6c6528a9e537f185324d5268f59f437892b0b50c5136fa33a47dce84653",
    },
    "tomo_noise_readout": {
        "covariance_empirical.csv": "e503efec3dd70b233b1e11e5edabc7a056fc587ca56dc918d58a1b14ef5f19a8",
        "covariance_predicted.csv": "2bcc7391431fe209f027510775c6593df5129be239c1fdfab3f91776b296a0e4",
        "records.csv": "c979171d84a124d55f4ef92cdb3827dd57321791bf2240f56e952e920f925419",
        "result.json": "cbf931c087b31506139a87d45b90ae3dd7b514a80e1c51f8f400283a489c6f2b",
    },
    "tomo_noise_all_kinds": {
        "covariance_empirical.csv": "7c545be26f64ab3c3ed7a1a63d2e5c9e971f00fba6580cacb6366c4c18e737a3",
        "covariance_predicted.csv": "73d35a2f19a48a9bd080e7152e42db376e572557100a807a8bbc3b28c8647587",
        "records.csv": "77ba4635244cb8f3bdaea027cf02e04067c3f5da2434f984ae6be21f773ec728",
        "result.json": "94ff95fa71f50d70059405e1601983539105756ecee9199ff249f171b5ed5e56",
    },
    "tomo_up_up": {
        "covariance_empirical.csv": "8a4d4fd193e1bc601deca621785b6e65ba64b847aa227517b0a0ae655331beea",
        "covariance_predicted.csv": "febec4fad0b5fd7e20c1b4b07cbb5dda4c847f1a59a72473c3654459c26e4fd1",
        "records.csv": "e1a1e9eb89a17c44ca9350aba598eb389289d3810c97bea412848463ec0e5709",
        "result.json": "c230293bab7c6d4d6ea5f1c3227a431ed078d38ab975beaaa5cc3e78e7513538",
    },
    "tomo_triplet_zero": {
        "covariance_empirical.csv": "067974fa414d4906ac9618a312268503b17e7bd8473a0f49ad649dc6b68552bb",
        "covariance_predicted.csv": "b95597fb2cc20e8326e5f3f1c9122fb61c96f9b7364b9477643a586eb6135b06",
        "records.csv": "dc0785a871175d406e3714a60edfda68c5d576702a3141bfa1b4490ada14ba41",
        "result.json": "a81a9d009668bf3236681bb3b8e8ab2fac73e8a715e7e066e999757da094d43e",
    },
    "tomo_rank1": {
        "covariance_predicted.csv": "2e20248be9ed46ce1a85c7ae63dac3631affe4dab310d09aee5ec1564ae0955e",
        "records.csv": "7ae310d22f4907a2d8e5eb2f05a6e2030ff37b3585acb69fcddf0bdf64fd4637",
        "result.json": "5360a861d469fb911da011221c0140aa092255cd241d3b5a318219b2de7ba082",
    },
    "tomo_rank2": {
        "covariance_predicted.csv": "de24af2902eb58a10fc482854248da7a6f5cd5b5a8810053a46a61420df9a506",
        "records.csv": "f713ddb668bf0b5fe8960c9816423ac1370f0605aa8c63a103703fa50a172e7d",
        "result.json": "6596225e64ae990f5e45fa31f2903faedef9970979f239c2a89764f829398340",
    },
    "tomo_rank3": {
        "covariance_predicted.csv": "ad7ee9db3c93d5707fd27971bc678031166746702e14c1308f88c409f43a00a3",
        "result.json": "454dd58315033c40572e52bf98dcf1779400247c4d01a4d6ae11845901ac4cfc",
    },
    "tomo_rank4": {
        "covariance_empirical.csv": "3654decee8549f607bb6c90b3940635f6d41e693d34a3cd9ca1ba40902bc89b1",
        "covariance_predicted.csv": "58cc23a2f4d3a8f6dec6de168604388c790629d96786caa64e7ddec8063a8669",
        "records.csv": "25847d6f538aefffc0111e8ae105fe35c6f18bdcac74203ae5b5b735996f21e7",
        "result.json": "ac15d9e0d0b97b050cc8b171a543ded0c7be196b480a1fe53362edf70a7f6a60",
    },
    "tomo_huge_shots": {
        "covariance_predicted.csv": "b01c8a6f010704da5a00a2b3b6387fa15670292cca55595be973f6c64dfdaa2e",
        "records.csv": "683f4c66ab7e59f5eb0b91b46c9e12d71c6a02013c5f32704fa67438caeebee2",
        "result.json": "86ce5bdc41acaebc8035a67faa75dd6e1059d54bbe944df8f29b9e78699df704",
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
