"""Command-line interface: exit codes, file outputs, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintomo
from spintomo.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_REPS,
    main,
    run_verification,
)
from spintomo.gates import Circuit, Gate
from spintomo.quorum import (
    Preparation,
    Quorum,
    mub_preparations,
    mub_quorum,
)


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _dot(t=0.1):
    return {"epsilon": 0.0, "U": 1.0, "t": t, "h1": [0, 0, 0], "h2": [0, 0, 0]}


# ------------------------------------------------------------------ spectrum


def test_spectrum_writes_csv(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "s.json",
        {"dot": _dot(), "eps_start": 0.5, "eps_stop": 1.5, "eps_count": 5},
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "spectrum.csv").read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# tool=spintomo") for l in meta)
    assert any(l.startswith("# config_sha256=") for l in meta)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "eps,E1,E2,E3,E4,E5,E6"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 5


def test_spectrum_crossing_without_tunneling(tmp_path):
    # t = 0, no field: at eps = U five of six levels sit at zero energy
    cfg = _write_cfg(
        tmp_path,
        "s.json",
        {"dot": _dot(t=0.0), "eps_start": 0.5, "eps_stop": 1.5, "eps_count": 3},
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [
        l
        for l in (out / "spectrum.csv").read_text().splitlines()
        if not l.startswith("#")
    ][1:]
    mid = [float(x) for x in rows[1].split(",")]
    assert mid[0] == 1.0
    levels = sorted(mid[1:])
    np.testing.assert_allclose(levels[:5], 0.0, atol=1e-12)
    np.testing.assert_allclose(levels[5], 2.0, atol=1e-12)


def test_spectrum_rejects_bad_configs(tmp_path):
    out = str(tmp_path / "o")
    # missing field
    cfg = _write_cfg(tmp_path, "a.json", {"dot": _dot(), "eps_start": 0.0})
    assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CONFIG
    # unknown field
    cfg = _write_cfg(
        tmp_path,
        "b.json",
        {"dot": _dot(), "eps_start": 0, "eps_stop": 1, "eps_count": 3, "z": 1},
    )
    assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CONFIG
    # malformed dot params: an extra field, a missing U, a scalar where a
    # 3-vector is required, a vector of two, and a string in a vector
    no_u = _dot()
    del no_u["U"]
    for bad_dot in (dict(_dot(), extra=1), no_u, dict(_dot(), h1=0.2), dict(_dot(), h1=[0, 0]),
                    dict(_dot(), h2=[0, "x", 0])):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"dot": bad_dot, "eps_start": 0, "eps_stop": 1, "eps_count": 3},
        )
        assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CONFIG
    # a sweep bound that parses to inf, and more points than allowed
    path = tmp_path / "d.json"
    path.write_text(json.dumps(
        {"dot": _dot(t=0.02), "eps_start": 0.0, "eps_stop": "STOP", "eps_count": 3}
    ).replace('"STOP"', "1e400"))
    assert main(["spectrum", "--config", str(path), "--out", out]) == EXIT_CONFIG
    cfg = _write_cfg(
        tmp_path, "e.json", {"dot": _dot(), "eps_start": 0, "eps_stop": 1, "eps_count": 10**30}
    )
    assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CONFIG
    # broken JSON text, text that is not UTF-8, and nesting beyond the
    # decoder's recursion limit (a RecursionError is a RuntimeError)
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["spectrum", "--config", str(path), "--out", out]) == EXIT_CONFIG
    path.write_bytes(b'\xff\xfe{"name": "mub"}')
    assert main(["spectrum", "--config", str(path), "--out", out]) == EXIT_CONFIG
    path.write_text("[" * 2000 + "]" * 2000)
    assert main(["spectrum", "--config", str(path), "--out", out]) == EXIT_CONFIG
    # missing file and missing --config
    assert main(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", out]) == EXIT_CONFIG
    assert main(["spectrum", "--out", out]) == EXIT_CONFIG


def test_spectrum_overflow_exits_numerical(tmp_path, capsys):
    # finite fields so large that the levels overflow to +-inf
    dot = dict(_dot(), h1=[1e308, 0, 0], h2=[0, 0, 1e308])
    cfg = _write_cfg(tmp_path, "s.json", {"dot": dot, "eps_start": 0, "eps_stop": 1, "eps_count": 3})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- quorum


def test_quorum_mub_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, "q.json", {"name": "mub"})
    out = tmp_path / "out"
    assert main(["quorum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "quorum.json").read_text())
    assert abs(payload["abs_determinant"] - 1.0 / 32.0) < 1e-15
    assert len(payload["projectors"]) == 15
    circuits = json.loads((out / "circuits.json").read_text())
    assert len(circuits["circuits"]) == 15
    esr_counts = [c["esr_gate_count"] for c in circuits["circuits"]]
    assert esr_counts[:3] == [0, 0, 0]
    assert all(n == 1 for n in esr_counts[3:])
    pm_lines = [
        l
        for l in (out / "pmatrix.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    assert pm_lines[0] == ",".join(f"k{k}" for k in range(1, 16))
    assert len(pm_lines) == 16


def test_quorum_james_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, "q.json", {"name": "james"})
    out = tmp_path / "out"
    assert main(["quorum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "quorum.json").read_text())
    assert abs(payload["abs_determinant"] - 1.0 / 512.0) < 1e-15
    assert not (out / "circuits.json").exists()


def test_quorum_rejects_unknown_name(tmp_path):
    cfg = _write_cfg(tmp_path, "q.json", {"name": "other"})
    assert main(["quorum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


# ---------------------------------------------------------------- tomography


def _tomo_cfg(tmp_path, **extra):
    payload = {"state": {"kind": "random", "seed": 3}, "shots": 500}
    payload.update(extra)
    return _write_cfg(tmp_path, "t.json", payload)


def test_tomography_seed_reproducibility(tmp_path):
    cfg = _tomo_cfg(tmp_path)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["tomography", "--config", cfg, "--out", str(out_a), "--seed", "7"]) == EXIT_OK
    assert main(["tomography", "--config", cfg, "--out", str(out_b), "--seed", "7"]) == EXIT_OK
    assert main(["tomography", "--config", cfg, "--out", str(out_c), "--seed", "8"]) == EXIT_OK
    for name in ("result.json", "records.csv", "covariance_predicted.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "records.csv").read_bytes() != (out_c / "records.csv").read_bytes()


def test_tomography_exact_mode(tmp_path):
    cfg = _tomo_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["tomography", "--config", cfg, "--out", str(out), "--exact"]) == EXIT_OK
    payload = json.loads((out / "result.json").read_text())
    assert payload["exact"] is True
    assert payload["psd_flag"] is True
    assert payload["converged"] is True
    assert payload["diagnostics"]["linear_max_entry_error"] < 1e-10
    assert payload["diagnostics"]["mle_fidelity_to_truth"] > 1.0 - 1e-6
    assert payload["linear"]["psd_flag"] is True
    assert not (out / "records.csv").exists()
    # MLE never under-fits the data relative to the linear route
    assert payload["loglik"] >= payload["linear"]["loglik"] - 1e-9


def test_tomography_covariance_study(tmp_path):
    cfg = _tomo_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["tomography", "--config", cfg, "--out", str(out), "--seed", "1", "--reps", "400"]
    )
    assert rc == EXIT_OK
    payload = json.loads((out / "result.json").read_text())
    study = payload["covariance_study"]
    assert study["repetitions"] == 400
    assert study["max_diag_relative_deviation"] < 0.5
    emp = (out / "covariance_empirical.csv").read_text().splitlines()
    assert len([l for l in emp if not l.startswith("#")]) == 16


@pytest.mark.parametrize("name, certain", [("up_up", 3), ("triplet_zero", 2)])
def test_covariance_study_leaves_out_zero_variance_coefficients(tmp_path, name, certain):
    # deterministic outcomes give coefficients whose predicted and
    # empirical variances are both zero (triplet_zero: -1e-18 by rounding)
    cfg = _write_cfg(tmp_path, "t.json", {"state": {"kind": "named", "name": name}, "shots": 100})
    out = tmp_path / "o"
    assert main(["tomography", "--config", cfg, "--out", str(out), "--reps", "10"]) == EXIT_OK
    study = _strict_json(out / "result.json")["covariance_study"]
    assert study["zero_variance_coefficients"] == certain
    assert 0.0 < study["max_diag_relative_deviation"] < 5.0


def test_tomography_records_keep_020_counts(tmp_path):
    # repetition 0 is the first draw of each projector's stream, so the
    # counts of a run without --reps are those of spintomo 0.2.0
    shots = list(range(100, 1600, 100))
    payload = {"state": {"kind": "random", "seed": 7, "rank": 3}, "shots": shots}
    cfg = _write_cfg(tmp_path, "t.json", payload)
    out = tmp_path / "o"
    assert main(["tomography", "--config", cfg, "--out", str(out), "--seed", "17"]) == EXIT_OK
    rows = [l.split(",") for l in (out / "records.csv").read_text().splitlines()[4:]]
    assert [int(r[1]) for r in rows] == shots
    assert [int(r[2]) for r in rows] == [
        8, 102, 37, 79, 71, 218, 137, 243, 228, 128, 227, 329, 246, 300, 482
    ]


def test_tomography_run_is_row_0_of_the_study(tmp_path):
    cfg = _tomo_cfg(tmp_path)
    for reps in ("0", "10"):
        argv = ["tomography", "--config", cfg, "--out", str(tmp_path / reps), "--seed", "5"]
        assert main(argv + ["--reps", reps]) == EXIT_OK
    records = [(tmp_path / reps / "records.csv").read_bytes() for reps in ("0", "10")]
    assert records[0] == records[1]


def test_tomography_exact_study_still_samples(tmp_path):
    cfg = _tomo_cfg(tmp_path)
    for run, extra in (("exact", ["--exact"]), ("sampled", [])):
        argv = ["tomography", "--config", cfg, "--out", str(tmp_path / run), "--seed", "5"]
        assert main(argv + ["--reps", "10"] + extra) == EXIT_OK
    assert not (tmp_path / "exact" / "records.csv").exists()
    empirical = [(tmp_path / run / "covariance_empirical.csv").read_bytes()
                 for run in ("exact", "sampled")]
    assert empirical[0] == empirical[1]
    assert _strict_json(tmp_path / "exact" / "result.json")["covariance_study"]["repetitions"] == 10


def test_non_finite_output_exits_numerical(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("spintomo.cli.state_fidelity", lambda a, b: float("nan"))
    out = tmp_path / "o"
    argv = ["tomography", "--config", _tomo_cfg(tmp_path), "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    assert "non-finite" in capsys.readouterr().err
    # every output is rendered before any is written, --out included
    assert not out.exists()


def test_tomography_named_state_with_degraded_readout(tmp_path):
    payload = {
        "state": {"kind": "named", "name": "singlet"},
        "shots": 2000,
        "readout_fidelity": 0.9,
    }
    cfg = _write_cfg(tmp_path, "t.json", payload)
    out = tmp_path / "out"
    assert main(["tomography", "--config", cfg, "--out", str(out), "--exact"]) == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    # reconstructing through the effective quorum undoes the degradation
    assert result["diagnostics"]["linear_max_entry_error"] < 1e-10
    assert result["diagnostics"]["mle_fidelity_to_truth"] > 1.0 - 1e-6


def test_tomography_noise_model_runs(tmp_path):
    payload = {
        "state": {"kind": "named", "name": "up_down"},
        "shots": 1000,
        "noise": {"gradient_z": {"mean_rad": 0.0, "std_rad": 0.05}},
    }
    cfg = _write_cfg(tmp_path, "t.json", payload)
    out = tmp_path / "out"
    assert main(["tomography", "--config", cfg, "--out", str(out), "--exact"]) == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    assert result["diagnostics"]["mle_fidelity_to_truth"] > 0.99


def test_tomography_rejects_bad_configs(tmp_path):
    out = str(tmp_path / "o")
    cfg = _write_cfg(tmp_path, "a.json", {"state": {"kind": "named"}, "shots": 100})
    assert main(["tomography", "--config", cfg, "--out", out]) == EXIT_CONFIG
    cfg = _write_cfg(
        tmp_path, "b.json", {"state": {"kind": "random"}, "shots": [10] * 14}
    )
    assert main(["tomography", "--config", cfg, "--out", out]) == EXIT_CONFIG
    cfg = _write_cfg(
        tmp_path,
        "c.json",
        {"state": {"kind": "random"}, "shots": 100, "readout_fidelity": 0.5},
    )
    assert main(["tomography", "--config", cfg, "--out", out]) == EXIT_CONFIG
    cfg = _write_cfg(
        tmp_path,
        "d.json",
        {"state": {"kind": "random"}, "shots": 100, "noise": {"bogus_gate": {}}},
    )
    assert main(["tomography", "--config", cfg, "--out", out]) == EXIT_CONFIG
    for payload in (
        {"state": {"kind": "random", "rank": 7}, "shots": 10},
        {"state": {"kind": "random", "rank": 0}, "shots": 10},
        {"state": {"kind": "random"}, "shots": 2**63},  # beyond int64
        {"state": {"kind": "random"}, "shots": [10] * 14 + [10**30]},
        {"state": {"kind": "random"}, "shots": 10, "noise": {"not_a_gate": {"std_rad": 0.1}}},
        {"state": {"kind": "random"}, "shots": 10, "noise": {"exchange_pulse": {"stdev": 0.1}}},
    ):
        cfg = _write_cfg(tmp_path, "e.json", payload)
        assert main(["tomography", "--config", cfg, "--out", out]) == EXIT_CONFIG


def test_tomography_rejects_noise_samples(tmp_path, capsys):
    noise = {"gradient_z": {"mean_rad": 0.0, "std_rad": 0.05}, "samples": 200}
    cfg = _tomo_cfg(tmp_path, noise=noise)
    assert main(["tomography", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "exact" in capsys.readouterr().err


_ANY_CONTRACT_EXIT = (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)


@pytest.mark.parametrize(
    "noise, allowed",
    [
        ({"gradient_z": {"mean_rad": 0.0, "std_rad": 1e308}}, _ANY_CONTRACT_EXIT),
        ({"z_rot_both": {"mean_rad": 1e308}}, _ANY_CONTRACT_EXIT),
        ({"gradient_z": 5}, (EXIT_CONFIG,)),
        ({"gradient_z": {"std_rad": [1]}}, (EXIT_CONFIG,)),
    ],
    ids=["huge_std", "huge_mean", "entry_not_object", "field_not_number"],
)
def test_tomography_extreme_noise_keeps_exit_contract(tmp_path, noise, allowed):
    payload = {"state": {"kind": "named", "name": "singlet"}, "shots": 100, "noise": noise}
    cfg = _write_cfg(tmp_path, "t.json", payload)
    assert main(["tomography", "--config", cfg, "--out", str(tmp_path / "o")]) in allowed


def test_tomography_rejects_bad_reps(tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(tmp_path, "t.json",
                     {"state": {"kind": "named", "name": "singlet"}, "shots": 100})
    out = tmp_path / "o"
    # reps beyond the cap are refused before any draw: nothing may be allocated
    monkeypatch.setattr("spintomo.cli.simulate_counts", None)
    for reps in ("-5", "1", str(MAX_REPS + 1), "10000000000000", "100000000000000000000000"):
        argv = ["tomography", "--config", cfg, "--out", str(out), "--reps", reps]
        assert main(argv) == EXIT_CONFIG
        assert "--reps must be 0" in capsys.readouterr().err
    assert not out.exists()


def test_configs_reject_bool_for_int(tmp_path):
    out = str(tmp_path / "o")
    for payload in (
        {"state": {"kind": "named", "name": "singlet"}, "shots": True},
        {"state": {"kind": "random"}, "shots": [100] * 14 + [True]},
        {"state": {"kind": "random", "seed": True}, "shots": 100},
        {"state": {"kind": "random", "rank": True}, "shots": 100},
    ):
        cfg = _write_cfg(tmp_path, "t.json", payload)
        assert main(["tomography", "--config", cfg, "--out", out]) == EXIT_CONFIG
    for payload in (
        {"dot": _dot(), "eps_start": 0, "eps_stop": 1, "eps_count": True},
        {"dot": dict(_dot(), U=True, epsilon=False, h1=[0, True, 0]),
         "eps_start": 0, "eps_stop": 1, "eps_count": 3},
    ):
        cfg = _write_cfg(tmp_path, "s.json", payload)
        assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, text",
    [
        ("tomography", '{"state": {"kind": "random"}, "shots": 10, "readout_fidelity": BIG}'),
        ("tomography", '{"state": {"kind": "random"}, "shots": 10, '
                       '"noise": {"gradient_z": {"mean_rad": BIG}}}'),
        ("tomography", '{"state": {"kind": "random"}, "shots": 1' + "0" * 5000 + "}"),
        ("spectrum", '{"dot": {"epsilon": BIG, "U": 1, "t": 0.02, "h1": [0, 0, 0], '
                     '"h2": [0, 0, 0]}, "eps_start": 0, "eps_stop": 1, "eps_count": 3}'),
        ("plan", '{"delta": BIG, "p_limit": 0.05}'),
        ("plan", '{"delta": NaN, "p_limit": 0.05}'),
        ("tomography", '{"state": {"kind": "random"}, "shots": 10, '
                       '"readout_fidelity": -Infinity}'),
    ],
    ids=["fidelity", "noise_mean", "digits_beyond_int_limit", "dot_field", "plan_delta",
         "plan_nan", "fidelity_infinity"],
)
def test_configs_reject_non_finite_numbers(tmp_path, command, text):
    # number fields are read with float(), which overflows past 1.8e308;
    # json.loads reads NaN and Infinity literals
    path = tmp_path / "c.json"
    path.write_text(text.replace("BIG", "1" + "0" * 400))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


# ---------------------------------------------------------------------- plan


def test_plan_table(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "p.json",
        {"delta": 0.05, "p_limit": 0.05, "fidelity": [1.0, 0.8, 0.5]},
    )
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [
        l.split(",")
        for l in (out / "plan.csv").read_text().splitlines()
        if not l.startswith("#")
    ][1:]
    assert len(rows) == 3
    table = {float(r[2]): r[3] for r in rows}
    assert table[1.0] == "1476"
    assert table[0.8] == "5457"
    assert table[0.5] == "unplannable"


def test_plan_rejects_bad_values(tmp_path):
    for payload in ({"delta": 0.05}, {"delta": ["x"], "p_limit": 0.05}):
        cfg = _write_cfg(tmp_path, "p.json", payload)
        assert main(["plan", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


# -------------------------------------------------------------------- verify


def test_verify_all_checks_pass(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 13
    assert all(l.startswith("PASS") for l in lines)
    report = json.loads((out / "verify.json").read_text())
    assert all(c["passed"] for c in report["checks"])
    ids = {c["check_id"] for c in report["checks"]}
    assert {"det_mub", "det_james", "mub_condition", "tau_partial_sums"} <= ids


def test_verification_detects_perturbed_quorum(monkeypatch):
    q = mub_quorum()
    mats = q.matrices.copy()
    mats[4] = 0.9 * mats[4] + 0.1 * np.eye(4) / 4.0  # PSD, trace 1, smaller det
    broken = Quorum("mub-broken", q.labels, mats, q.basis_index, q.states)
    monkeypatch.setattr("spintomo.cli.mub_quorum", lambda: broken)
    results = {r["check_id"]: r for r in run_verification()}
    assert not results["det_mub"]["passed"]
    assert results["det_james"]["passed"]


def test_verify_cross_check_catches_a_wrong_preparation_angle(monkeypatch):
    preps = list(mub_preparations())
    *head, last = preps[6].circuit.gates  # P07 ends in a z rotation by -pi/4
    preps[6] = Preparation(preps[6].label, preps[6].base_label,
                           Circuit((*head, Gate(last.kind, last.angle / 2))))
    monkeypatch.setattr("spintomo.cli.mub_preparations", lambda: tuple(preps))
    results = {r["check_id"]: r for r in run_verification()}
    assert not results["quorum_cross_check"]["passed"]
    assert results["quorum_cross_check"]["measured"] > 0.1
    assert results["esr_budget"]["passed"] and results["det_mub"]["passed"]
    # the quorum guard reads the same measure and refuses the table
    monkeypatch.setattr("spintomo.quorum.mub_preparations", lambda: tuple(preps))
    with pytest.raises(RuntimeError, match="closed form disagree"):
        mub_quorum()


def test_verify_report_of_a_raising_check_is_strict_json(tmp_path, monkeypatch, capsys):
    def broken(states):
        raise RuntimeError("witness unavailable")

    monkeypatch.setattr("spintomo.cli.orthogonality_witness", broken)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == EXIT_NUMERICAL
    checks = {c["check_id"]: c for c in _strict_json(out / "verify.json")["checks"]}
    for cid in ("tau_partial_sums", "tau_ratio"):
        assert checks[cid]["measured"] is None
        assert checks[cid]["detail"] == "witness unavailable"
    assert checks["det_mub"]["passed"]
    assert "FAIL tau_ratio: measured=nan" in capsys.readouterr().out


def test_verify_non_finite_report_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("spintomo.cli.run_verification",
                        lambda: [{"check_id": "det_mub", "passed": True, "measured": 0.0,
                                  "threshold": float("inf"), "detail": ""}])
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == EXIT_NUMERICAL
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify"]) == EXIT_OK
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------- exit contract


@pytest.mark.parametrize("command", ["spectrum", "quorum", "tomography", "plan", "verify"])
def test_unusable_out_dir_exits_config(tmp_path, command, capsys):
    configs = {
        "spectrum": {"dot": _dot(), "eps_start": 0, "eps_stop": 1, "eps_count": 3},
        "quorum": {"name": "mub"},
        "tomography": {"state": {"kind": "named", "name": "singlet"}, "shots": 100},
        "plan": {"delta": 0.05, "p_limit": 0.05},
    }
    args = [command]
    if command in configs:
        args += ["--config", _write_cfg(tmp_path, "c.json", configs[command])]
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        assert "cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, blocked", [("tomography", "result.json"),
                                              ("verify", "verify.json")])
def test_unwritable_output_file_exits_config(tmp_path, command, blocked, capsys):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    args = [command, "--out", str(out)]
    if command == "tomography":
        # three CSV files come before result.json
        args += ["--config", _tomo_cfg(tmp_path), "--reps", "5"]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and blocked in err
    # the files written before the failure are removed again
    assert list(out.iterdir()) == [out / blocked]


def _strict_json(path):
    def reject(constant):
        raise AssertionError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


#: config values of the wrong type or out of range; json.loads reads NaN
#: and Infinity literals, so configs may hold them
_JUNK = (None, True, "x", [], {}, [1], -1, 0, 0.5, 1e308, float("nan"), float("inf"), 10**30,
         10**400)
_NAMES = ("singlet", "triplet_zero", "up_up", "up_down", "down_up", "down_down",
          "maximally_mixed", "bogus")
_GATES = ("exchange_pulse", "gradient_z", "z_rot_both", "esr_x_qubit1", "bogus")


def _fuzz_tomography(rng, pick):
    if rng.random() < 0.4:
        state = pick(lambda: {"kind": "named", "name": rng.choice(_NAMES)})
    else:
        state = {"kind": pick(lambda: "random"), "seed": pick(lambda: rng.randrange(-5, 2**40)),
                 "rank": pick(lambda: rng.randrange(-1, 8))}
    if rng.random() < 0.5:
        shots = pick(lambda: rng.choice((rng.randrange(-2, 5000), 2**62)))
    else:
        shots = [pick(lambda: rng.randrange(1, 3000)) for _ in range(rng.choice((15, 15, 14)))]
    cfg = {"state": pick(lambda: state), "shots": shots}
    if rng.random() < 0.4:
        cfg["readout_fidelity"] = pick(lambda: rng.uniform(0.4, 1.05))
    if rng.random() < 0.3:
        cfg["noise"] = {
            rng.choice(_GATES): pick(lambda: {"mean_rad": pick(lambda: rng.gauss(0, 0.1)),
                                              "std_rad": pick(lambda: abs(rng.gauss(0, 0.1)))})
            for _ in range(rng.randrange(4))
        }
    if rng.random() < 0.05:
        del cfg[rng.choice(("state", "shots"))]
    argv = ["tomography", "--seed", str(rng.randrange(2**31)),
            "--reps", str(rng.choice((0, 0, 2, 5)))]
    return argv + (["--exact"] if rng.random() < 0.2 else []), cfg


def _fuzz_spectrum(rng, pick):
    def vec():
        return [rng.uniform(-0.1, 0.1) for _ in range(3)]

    dot = {"epsilon": pick(lambda: rng.uniform(-2, 2)), "U": pick(lambda: rng.uniform(-0.5, 2)),
           "t": pick(lambda: rng.uniform(0, 0.3)), "h1": pick(vec), "h2": pick(vec)}
    if rng.random() < 0.1:
        del dot[rng.choice(sorted(dot))]
    cfg = {"dot": pick(lambda: dot), "eps_start": pick(lambda: rng.uniform(-2, 2)),
           "eps_stop": pick(lambda: rng.uniform(-2, 2)),
           "eps_count": pick(lambda: rng.randrange(-1, 12))}
    return ["spectrum"], cfg


def test_fuzzed_configs_keep_exit_contract(tmp_path, capsys):
    """Seeded random and malformed configs: every run exits 0, 2 or 3 and
    writes only strict JSON."""
    rng = random.Random(20261018)

    def pick(valid):
        return rng.choice(_JUNK) if rng.random() < 0.1 else valid()

    codes = []
    for i in range(300):
        argv, cfg = (_fuzz_tomography if i % 2 == 0 else _fuzz_spectrum)(rng, pick)
        path, out = tmp_path / f"{i}.json", tmp_path / str(i)
        path.write_text(json.dumps(cfg))
        rc = main(argv + ["--config", str(path), "--out", str(out)])
        assert rc in _ANY_CONTRACT_EXIT, (argv, cfg)
        for written in out.glob("*.json"):
            _strict_json(written)
        codes.append(rc)
    capsys.readouterr()
    # the loop reaches every exit code, so it probes more than the parser
    assert set(codes) == set(_ANY_CONTRACT_EXIT)


def _fuzz_numbers(rng, pick, lo, hi):
    """A number in [lo, hi) or a list of 0-3 of them, with junk among them."""
    if rng.random() < 0.5:
        return pick(lambda: rng.uniform(lo, hi))
    return [pick(lambda: rng.uniform(lo, hi)) for _ in range(rng.randrange(4))]


def _fuzz_plan(rng, pick):
    cfg = {"delta": _fuzz_numbers(rng, pick, -0.1, 1.1),
           "p_limit": _fuzz_numbers(rng, pick, -0.1, 1.1)}
    if rng.random() < 0.5:
        cfg["fidelity"] = _fuzz_numbers(rng, pick, 0.4, 1.1)
    return ["plan"], cfg


def _fuzz_quorum(rng, pick):
    return ["quorum"], {"name": pick(lambda: rng.choice(("mub", "james", "bogus")))}


def _fuzz_dot_vectors(rng, pick):
    def vec():
        return [pick(lambda: rng.uniform(-0.1, 0.1)) for _ in range(rng.choice((3, 3, 3, 3, 2, 4)))]

    dot = {"epsilon": rng.uniform(-2, 2), "U": rng.uniform(0.5, 2), "t": rng.uniform(0, 0.3),
           "h1": vec(), "h2": vec()}
    cfg = {"dot": dot, "eps_start": -1.0, "eps_stop": 1.0, "eps_count": rng.randrange(1, 6)}
    return ["spectrum"], cfg


def _fuzz_noise_entries(rng, pick):
    def entry():
        fields = {"mean_rad": pick(lambda: rng.gauss(0, 0.1)),
                  "std_rad": pick(lambda: abs(rng.gauss(0, 0.1)))}
        if rng.random() < 0.1:
            fields["stdev"] = 0.1
        return {name: fields[name] for name in fields if rng.random() < 0.8}

    noise = {rng.choice(_GATES): pick(entry) for _ in range(rng.randrange(1, 4))}
    cfg = {"state": {"kind": "named", "name": "singlet"}, "shots": 200, "noise": noise}
    return ["tomography", "--reps", str(rng.choice((0, 2)))], cfg


def test_fuzzed_config_readers_keep_exit_contract(tmp_path, capsys):
    """Seeded plan, quorum, dot-vector and noise-entry configs, with junk
    inside them and, now and then, in place of the whole config: every
    run exits 0, 2 or 3, writes only strict JSON, and a run that fails
    does not even create --out."""
    rng = random.Random(20261019)

    def pick(valid):
        return rng.choice(_JUNK) if rng.random() < 0.1 else valid()

    makers = (_fuzz_plan, _fuzz_quorum, _fuzz_dot_vectors, _fuzz_noise_entries)
    codes = []
    for i in range(160):
        argv, cfg = makers[i % len(makers)](rng, pick)
        if rng.random() < 0.05:
            cfg = rng.choice(_JUNK)
        path, out = tmp_path / f"{i}.json", tmp_path / str(i)
        path.write_text(json.dumps(cfg))
        rc = main(argv + ["--config", str(path), "--out", str(out)])
        assert rc in _ANY_CONTRACT_EXIT, (argv, cfg)
        assert rc == EXIT_OK or not out.exists(), (argv, cfg)
        for written in out.glob("*.json"):
            _strict_json(written)
        codes.append((i % len(makers), rc))
    capsys.readouterr()
    # every reader both accepts and rejects configs, and a run fails numerically
    for k, maker in enumerate(makers):
        assert {EXIT_OK, EXIT_CONFIG} <= {rc for m, rc in codes if m == k}, maker.__name__
    assert EXIT_NUMERICAL in {rc for _, rc in codes}


# -------------------------------------------------------------- dependencies

_LOADED_SCIPY_MODULES = """
import sys
from spintomo.cli import main
spec, tomo, out = sys.argv[1:]
assert main(["spectrum", "--config", spec, "--out", out]) == 0
assert main(["tomography", "--config", tomo, "--out", out, "--reps", "2"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: this test process may have scipy loaded already
    spec = _write_cfg(
        tmp_path, "s.json", {"dot": _dot(t=0.02), "eps_start": 0.0, "eps_stop": 1.2, "eps_count": 9}
    )
    tomo = _tomo_cfg(tmp_path)
    src = str(Path(spintomo.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY_MODULES, spec, tomo, str(tmp_path / "o")],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.stdout.splitlines()[-1] == "[]"
