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
        "spectrum.csv": "1234c2a43b4ff1ad831b4de3d0ad8f3a60f7812c578ab1f3af3effc85e74df94",
    },
    "quorum_mub": {
        "circuits.json": "f829f785343bbf18c584a7684bbb3774dfc59a680566c72477e6003e16ed41a3",
        "pmatrix.csv": "d33fc58e077a9a09ba00eccf46af9d164cd0ee919e972c142dbd35c82c204c41",
        "quorum.json": "78622d4a2e024ae2d01991ab6057022f68767dfaf91ece536344b80d7d83a2d6",
    },
    "quorum_james": {
        "pmatrix.csv": "dac609b0ed179f5b1f0c0502c9a3aad93c5752fd6513c43a53c6f66c9c39e561",
        "quorum.json": "a2f061b0d99a2da78aff937df74c9f0de8f5e37d20bc95d02b6cfeceb59c6fd2",
    },
    "plan": {
        "plan.csv": "10153e9bbdfe7d57c0bbe7245854c463827b42d1ea793c1cbd12a74240c14a27",
    },
    "verify": {
        "verify.json": "fca1c1739a801e3cf9d3715285d6115a760ff2f6ea5af17ab3e51995cc5fc857",
    },
    "tomo_plain": {
        "covariance_predicted.csv": "f7c4f156d37f509d9077c110acc891f3bb59ae64a736f4804ce1de050a25f2d4",
        "records.csv": "97c8d67d4a378607e5581fe58ce4d14098378bc33429d4cadeda30b88207deb9",
        "result.json": "e0771702eb8bec2205f5e4b6da333722346b89f9707ec69a0b4ec2e20dd0b0b6",
    },
    "tomo_exact": {
        "covariance_predicted.csv": "fe0facbe5bb2fee4d176597131f20af157279db90cda6c90c7bebf657d1ce055",
        "result.json": "4e49ea2b4de33b65640026db6acad8c1119f9733d2df01cfe4198e44c899d1b0",
    },
    "tomo_reps": {
        "covariance_empirical.csv": "ab0b42f6bff262aaf799d4ded59c2aa2b0ce9be5e8c5b42855c6ef94087331af",
        "covariance_predicted.csv": "f7c4f156d37f509d9077c110acc891f3bb59ae64a736f4804ce1de050a25f2d4",
        "records.csv": "97c8d67d4a378607e5581fe58ce4d14098378bc33429d4cadeda30b88207deb9",
        "result.json": "a8d4005a492faba6b9f4bcbfc455b84785fcb9f4ad2743716d57fe84b1612073",
    },
    "tomo_exact_reps": {
        "covariance_empirical.csv": "ab0b42f6bff262aaf799d4ded59c2aa2b0ce9be5e8c5b42855c6ef94087331af",
        "covariance_predicted.csv": "fe0facbe5bb2fee4d176597131f20af157279db90cda6c90c7bebf657d1ce055",
        "result.json": "38db2cf42633f835acd8fa7f25f416bdab57125fc37d077b20ed25f12c814996",
    },
    "tomo_shots_list": {
        "covariance_empirical.csv": "b9fa7a62a8afb8f7b0289ec2fda391e91aa1f973b007f74093b289f2afe56595",
        "covariance_predicted.csv": "25ebf48961dfab94bd68df04f3e853a20663657d446b1e3cb769edbd75a6a01e",
        "records.csv": "13d3b9fcb12f8691d9b456a586f86b9029e0148d4c7610107d8754a7127b8f64",
        "result.json": "2f231606e63fba4e0fb67027a5352433c0a626d23993947849fd4b6fb63c40fd",
    },
    "tomo_readout": {
        "covariance_empirical.csv": "ed799f4216414c795159d03a967a67f359fff85dd13218368b7040c992db64b2",
        "covariance_predicted.csv": "ee1a1535b761e8a675c2c242ea1ddbd7bdf5d6a1e02e10b8cc52ad370c5d69cc",
        "records.csv": "4804782b7e74447eaf7069988fd8f729f62ac07ae45a442083a43c0bf018e88a",
        "result.json": "5ea98ec5bf2f572e7f3809453d2310f3a6ca13fbd6107aec29447f2c32c3ddf0",
    },
    "tomo_noise": {
        "covariance_empirical.csv": "6460a7edaaa5a307f135165cc220334a62befb65ec8f69785f480e8005bf81f0",
        "covariance_predicted.csv": "57c69ce9aa55678cc3424fe1198b7d00bdc67c3f0f6c70ccb7710bafb9922378",
        "records.csv": "b44a4de27ff01e59cc3cabfc253256e8343e8cd3c8e2018b07a8dd7bee61c3a5",
        "result.json": "78aa2810dd833772f21e306b2ee38b060bd35a03754466d2baa50f29947b023f",
    },
    "tomo_noise_readout": {
        "covariance_empirical.csv": "c8a0c0864e75c6afdbc31f61c885fc447ffb9f4cb164dbc44a4e9eb9eedf2bb2",
        "covariance_predicted.csv": "8e2175d10150be325edecada12c1e3b369f71973161428c81b944bedc54c9fef",
        "records.csv": "b0350ae8fefd0b80832d70be99a45c474de75aec603008445fec99a406522393",
        "result.json": "61cb5876aa4ba3ac891d41066f6c4bf50e329febd841ffcb17ab671ddcc7c15c",
    },
    "tomo_noise_all_kinds": {
        "covariance_empirical.csv": "5d95b507bf40adad806d0d29a262a58e71dfa0d12eba82c1ec3b0f9b34b841bc",
        "covariance_predicted.csv": "54b6e2920258f2bd37d6f6f8d1b03b3479080d13853ffcb98933511d5f7f60b6",
        "records.csv": "9c4e1d1de28ccb2eb9da25307a7c2ad17990156ee4cfc918d51cded89bb79cb8",
        "result.json": "a6f8fb3e78cd8082136a96720cf265280fae5eb5f5d67c5f5a285a277cb18b6e",
    },
    "tomo_up_up": {
        "covariance_empirical.csv": "567d578e0c4dd3374804fab434384ecdec1c835ec223ba0b312cac04545673b8",
        "covariance_predicted.csv": "a1d7b1840636bffd362fe1be4ba18031fe73d4ae1007532491296cd65985c9ae",
        "records.csv": "d08f9e100b624b592c5dbb1c69256c90a48121eb17e6fba501daf7a6a8b4ca1e",
        "result.json": "2e018f42e3b89eac4073635c58a40ce6dd8de54db1940f41745c31f075aaa866",
    },
    "tomo_triplet_zero": {
        "covariance_empirical.csv": "f2ca359cc1b5cb2f21e7578d6f5538228ff941971886456b83cfe918eabe079e",
        "covariance_predicted.csv": "b27ce5ece8a0485adff7b641354b02b7c40bb0e1b6f6fda1f2e57083d1d87924",
        "records.csv": "e85dcfc67e2a40351aa40998f27ab2658575d9cb3f6aeeaba604dae2ffc837df",
        "result.json": "e85af5dcd2e6fb8fec0fcfc1fb51846116c076c0e5a93bdf48c991adea8e4e20",
    },
    "tomo_rank1": {
        "covariance_predicted.csv": "5c613ca0399477a6318b93b19f69bb9b0866c0b040f67af8936ed48d5732487a",
        "records.csv": "b3445109976efd15dfda30a179123b71eb67fa7361f8be9b9abf3af3f949707f",
        "result.json": "8957e3a657268ad00314561c0fe689aab96a038b4d0fb6ad67e9b3dc8d6c5c6e",
    },
    "tomo_rank2": {
        "covariance_predicted.csv": "2072ca1db62e4e9a5cbe01d6196a703a5c143ea29874a454de75f28842413d8b",
        "records.csv": "a6adc4622b1b5b85c6fffe59c8ad53719b97d516382b402e72a535330e222f6e",
        "result.json": "8b5625bf60cfd3bef0d199cdd8118b1bb673a021b363e0920ccd3540f67b71e2",
    },
    "tomo_rank3": {
        "covariance_predicted.csv": "123d4b79473de82cb5077a1f4f8d4a1547b2d36e1bb08cac40abe7cb063e392b",
        "result.json": "fb14d74d42c980ee42accae4fdecbf4eb01595e4e4dbed8268d64543cbb3c4c6",
    },
    "tomo_rank4": {
        "covariance_empirical.csv": "03549ed665d0419a1b76deb1af745451be00a9d1b6d3e5793ba11b563e911482",
        "covariance_predicted.csv": "6a574b0e5895647c7ecdb0ce8bd52d783692477460d9dff0e3c0e57a001377b3",
        "records.csv": "fb4144434a8bc4cc04569397a2f5cc3fe193cf5cbf7c4501dd9b0048253f7d99",
        "result.json": "882b1e9833c5f5cabd95d0ef946d75ff2d1e69fd2972e75ffa74572111419463",
    },
    "tomo_huge_shots": {
        "covariance_predicted.csv": "8272b37d916575dc1c86a8fbaea00b1ff6cac2f6b8cc3e03735d511c0543d38f",
        "records.csv": "6fbdb108d1f355551bc91904dc8dac242a13e086b935bdfe213f4c09b2721b07",
        "result.json": "578daa032608db96d904fad2af94fecec0ce4899a0b523b08aa8e8e0cd320a73",
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
          quorum.mub_readouts, cli._build_parser)
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
