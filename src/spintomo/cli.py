"""Command line front end.

Subcommands
-----------
spectrum    six-level energy curves along a detuning sweep (CSV)
quorum      projector set export: Pauli coefficients, P matrix, circuits
tomography  simulate a full tomography run and reconstruct the state
plan        Hoeffding-based run-count table over (delta, p_limit, fidelity)
verify      structural self-checks, one PASS/FAIL line each

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Every config object, nested ones included, passes one check
(``_check_fields``), and a run renders all its output files before it
writes any, so a run that fails leaves none of them behind (verify's
report is written whatever its verdict).
Every output file carries the tool version and a sha256 of the
canonicalized configuration, so results can be traced to their inputs.
CSV floats are printed with 17 significant digits; JSON numbers are
exact shortest round-trip representations of the same doubles.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dotmodel import DotParams, spectrum_sweep
from .gates import Circuit, Gate, GateKind, NoiseModel, average_readouts, readout_steps
from .measure import (
    born_probabilities,
    calibration_matrix,
    degrade_readout,
    plan_shots,
    simulate_counts,
)
from .qmath import (
    DOWN_DOWN,
    DOWN_UP,
    SINGLET,
    TRIPLET_ZERO,
    UP_DOWN,
    UP_UP,
    DensityMatrix,
    pauli_assemble,
    pauli_expand,
    random_density,
    state_fidelity,
    trace_distance,
)
from .quorum import (
    Quorum,
    QuorumDegenerateError,
    accessible_subspace_dimension,
    closed_form_deviation,
    constrained_random_kets,
    esr_budget_excess,
    gram_schmidt_lengths,
    ideal_readouts,
    james_quorum,
    mub_preparations,
    mub_quorum,
    mub_readouts,
    orthogonality_witness,
    pmatrix,
    quorum_records,
)
from .reconstruct import covariance_predict, linear_coefficients, mle_from_frequencies

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: binomial draws take int64 trial counts
MAX_SHOTS = int(np.iinfo(np.int64).max)
#: the detuning grid and its levels are built in memory at once
MAX_EPS_COUNT = 1_000_000
#: the covariance study holds its counts, frequencies and coefficients in
#: memory at once, about 0.5 kB per repetition
MAX_REPS = 1_000_000


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _meta(cfg: dict) -> dict:
    return {
        "tool": "spintomo",
        "version": __version__,
        "config_sha256": _config_hash(cfg),
    }


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        raise ConfigError("this subcommand requires --config")
    try:
        text = Path(path).read_text(encoding="utf-8")  # the encoding JSON requires
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        cfg = json.loads(
            text, parse_int=_config_number, parse_float=_config_number,
            parse_constant=_config_number,
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # a RuntimeError, which main reads as numerical
        raise ConfigError(f"config {path} is nested too deeply: {exc}") from exc
    return cfg


def _config_number(text: str) -> int | float:
    """A JSON number (or NaN/Infinity literal) of a config.  Number fields
    are read as floats, so each must be a finite one: NaN, Infinity, 1e400
    and integers beyond 1.8e308 are configuration errors."""
    try:
        value = int(text) if text.lstrip("-").isdigit() else float(text)
        finite = math.isfinite(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config number {text[:20]} is out of range") from exc
    if not finite:
        raise ConfigError(f"config number {text[:20]} is not finite")
    return value


def _check_fields(cfg, required: dict, optional: dict, where: str) -> None:
    """The one check of a config object, nested ones included: a JSON
    object with every required field, no unknown field, and each field of
    its listed types."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(cfg) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    for name in required:
        if name not in cfg:
            raise ConfigError(f"missing {where} field: {name}")
    for name, types in {**required, **optional}.items():
        if name in cfg and not _is_a(cfg[name], types):
            raise ConfigError(f"{where} field {name!r} has the wrong type")


def _is_a(value, types) -> bool:
    """isinstance, except that JSON true/false is not a number (bool subclasses int)."""
    return isinstance(value, types) and not isinstance(value, bool)


def _numbers(value, where: str, count: Optional[int] = None) -> list:
    """A config list of numbers as floats: exactly ``count`` of them, or
    without a count any number of them, where a bare number is a list of one."""
    values = [value] if count is None and not isinstance(value, list) else value
    if not (isinstance(values, list) and all(_is_a(x, (int, float)) for x in values)):
        raise ConfigError(f"{where} must hold numbers")
    if count is not None and len(values) != count:
        raise ConfigError(f"{where} must hold {count} numbers")
    return [float(x) for x in values]


#: how _fmt prints a non-finite float
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _csv(meta: dict, header: str, rows) -> str:
    """CSV text; a NaN or infinity is a numerical failure (exit 3), as in JSON."""
    lines = [",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    # one check per file: no label, count or finite float prints as these
    bad = _NON_FINITE.intersection(",".join(lines).split(","))
    if bad:
        raise RuntimeError(f"an output would hold a non-finite number: {sorted(bad)}")
    lines[:0] = [f"# {k}={v}" for k, v in meta.items()] + [header]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    """Strict JSON text; a NaN or infinity is a numerical failure (exit 3)."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise RuntimeError(f"an output would hold a non-finite number: {exc}") from exc


def _write_all(out: Path, files: dict) -> None:
    """Write every rendered output into ``out``, created if absent.  A
    failed write removes the files this call already wrote, so a run
    leaves all its outputs or none of them."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, text in files.items():
            written.append(out / name)  # before writing: a write may fail halfway
            written[-1].write_text(text)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print("wrote " + ", ".join(str(out / name) for name in files))


# ------------------------------------------------------------------ spectrum


def cmd_spectrum(cfg: dict) -> dict:
    _check_fields(
        cfg,
        required={"dot": dict, "eps_start": (int, float), "eps_stop": (int, float), "eps_count": int},
        optional={},
        where="spectrum config",
    )
    dot = cfg["dot"]
    _check_fields(
        dot,
        required={"epsilon": (int, float), "U": (int, float), "t": (int, float),
                  "h1": list, "h2": list},
        optional={},
        where="dot config",
    )
    h1, h2 = (_numbers(dot[name], f"dot config field {name!r}", 3) for name in ("h1", "h2"))
    try:
        params = DotParams(float(dot["epsilon"]), float(dot["U"]), float(dot["t"]), h1, h2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 1 <= cfg["eps_count"] <= MAX_EPS_COUNT:
        raise ConfigError(f"eps_count must lie in 1..{MAX_EPS_COUNT}")
    start, stop = float(cfg["eps_start"]), float(cfg["eps_stop"])
    if not math.isfinite(stop - start):  # on Python floats: linspace would overflow
        raise ConfigError("eps_stop - eps_start must be a finite number")
    grid = np.linspace(start, stop, cfg["eps_count"])
    levels = spectrum_sweep(params, grid)
    rows = [[float(e)] + [float(x) for x in row] for e, row in zip(grid, levels)]
    return {"spectrum.csv": _csv(_meta(cfg), "eps,E1,E2,E3,E4,E5,E6", rows)}


# -------------------------------------------------------------------- quorum


def _quorum_by_name(name: str) -> Quorum:
    if name == "mub":
        return mub_quorum()
    if name == "james":
        return james_quorum()
    raise ConfigError(f"unknown quorum name {name!r} (expected 'mub' or 'james')")


def cmd_quorum(cfg: dict) -> dict:
    _check_fields(cfg, required={"name": str}, optional={}, where="quorum config")
    q = _quorum_by_name(cfg["name"])
    pm = pmatrix(q)
    meta = _meta(cfg)

    payload = dict(meta)
    payload["name"] = q.name
    payload["determinant"] = pm.det
    payload["abs_determinant"] = abs(pm.det)
    payload["projectors"] = quorum_records(q)
    files = {
        "quorum.json": _json(payload),
        "pmatrix.csv": _csv(
            meta,
            ",".join(f"k{k}" for k in range(1, 16)),
            [[float(x) for x in row] for row in pm.entries],
        ),
    }

    if q.name == "mub":
        circuits = []
        for prep in mub_preparations():
            circuits.append(
                {
                    "label": prep.label,
                    "base_state": prep.base_label,
                    "esr_gate_count": prep.circuit.esr_gate_count(),
                    "gates": prep.circuit.to_records(),
                }
            )
        files["circuits.json"] = _json(dict(meta, circuits=circuits))

    print(f"quorum {q.name}: |det P| = {_fmt(abs(pm.det))}")
    return files


# ---------------------------------------------------------------- tomography

#: the fields each state kind reads beside its kind; any other is a config error
_STATE_FIELDS = {"named": {"name": str}, "random": {"seed": int, "rank": int}}

_NAMED_STATES = {
    "singlet": SINGLET,
    "triplet_zero": TRIPLET_ZERO,
    "up_up": UP_UP,
    "up_down": UP_DOWN,
    "down_up": DOWN_UP,
    "down_down": DOWN_DOWN,
}


def _truth_from_config(state_cfg: dict) -> DensityMatrix:
    _check_fields(state_cfg, required={"kind": str},
                  optional={"name": str, "seed": int, "rank": int}, where="state config")
    kind = state_cfg["kind"]
    if kind not in _STATE_FIELDS:
        raise ConfigError(f"state kind must be 'named' or 'random', got {kind!r}")
    _check_fields(state_cfg, {"kind": str}, _STATE_FIELDS[kind], f"{kind} state config")
    if kind == "named":
        name = state_cfg.get("name")
        if name == "maximally_mixed":
            return DensityMatrix(np.eye(4) / 4.0)
        if name not in _NAMED_STATES:
            known = sorted(_NAMED_STATES) + ["maximally_mixed"]
            raise ConfigError(f"unknown state name {name!r}; known: {known}")
        return DensityMatrix(_NAMED_STATES[name].projector())
    try:
        return random_density(state_cfg.get("seed", 0), state_cfg.get("rank", 4))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _effective_quorum(cfg: dict) -> Quorum:
    """The MUB quorum as the detector actually realizes it: the ideal
    stack, averaged over the config's gate-angle noise, then degraded by
    its readout fidelity."""
    q = mub_quorum()
    noise_cfg = cfg.get("noise")
    fidelity = cfg.get("readout_fidelity")
    if noise_cfg is None and fidelity is None:
        return q
    matrices, labels = q.matrices, q.labels
    if noise_cfg is not None:
        if "samples" in noise_cfg:
            raise ConfigError(
                "'samples' is not a noise field: the average over angle errors is exact"
            )
        _check_fields(noise_cfg, {}, dict.fromkeys((k.value for k in GateKind), dict),
                      "noise config")
        for kind, entry in noise_cfg.items():
            _check_fields(entry, {}, dict.fromkeys(("mean_rad", "std_rad"), (int, float)),
                          f"noise config for {kind}")
    try:
        if noise_cfg is not None:
            matrices = average_readouts(*mub_readouts(), NoiseModel.from_json(noise_cfg))
        if fidelity is not None:
            fidelity = float(fidelity)
            matrices = degrade_readout(matrices, fidelity)
            labels = tuple(f"{label}~f={fidelity:g}" for label in labels)
        # the one check of the averaged, degraded stack
        return Quorum("mub-effective", labels, matrices, q.basis_index)
    except ValueError as exc:
        raise ConfigError(f"bad noise model: {exc}") from exc


def cmd_tomography(cfg: dict, seed: int, reps: int, exact: bool) -> dict:
    _check_fields(
        cfg,
        required={"state": dict, "shots": (int, list)},
        optional={"readout_fidelity": (int, float), "noise": dict},
        where="tomography config",
    )
    if not (reps == 0 or 2 <= reps <= MAX_REPS):
        raise ConfigError(f"--reps must be 0 (no covariance study) or lie in 2..{MAX_REPS}")
    truth = _truth_from_config(cfg["state"])
    fidelity = cfg.get("readout_fidelity")
    if fidelity is not None and not 0.5 < float(fidelity) <= 1.0:
        raise ConfigError("readout_fidelity must lie in (1/2, 1]")

    eff_q = _effective_quorum(cfg)
    shots = cfg["shots"]
    if isinstance(shots, list):
        if len(shots) != 15 or not all(_is_a(n, int) and 1 <= n <= MAX_SHOTS for n in shots):
            raise ConfigError(f"shots list must hold 15 integers in 1..{MAX_SHOTS}")
        shots_arr = np.array(shots, dtype=np.int64)
    else:
        if not 1 <= shots <= MAX_SHOTS:
            raise ConfigError(f"shots must lie in 1..{MAX_SHOTS}")
        shots_arr = np.full(15, shots, dtype=np.int64)

    meta = _meta(cfg)
    # the run is row 0 of the covariance study, which --exact still samples
    counts = None
    if reps > 0 or not exact:
        counts = simulate_counts(truth, eff_q.matrices, shots_arr, seed, max(reps, 1))
    records = None
    if exact:
        freqs = born_probabilities(truth, eff_q.matrices)
    else:
        # Python-int true division: exact beyond 2**53 shots, where int64 division is not
        records = [[label, n, c, c / n] for label, n, c in
                   zip(eff_q.labels, shots_arr.tolist(), counts[0].tolist())]
        freqs = np.array([r[3] for r in records])

    # both estimators, always: fast linear inversion and the physical MLE
    result = mle_from_frequencies(freqs, shots_arr, eff_q)
    rho_mle = result.rho_mle.matrix
    rho_lin = result.rho_linear
    linear_psd = result.linear_psd
    pm = result.pm

    payload = dict(meta)
    payload["exact"] = bool(exact)
    payload["rho_real"] = rho_mle.real.tolist()
    payload["rho_imag"] = rho_mle.imag.tolist()
    payload["pauli_coeffs"] = result.rho_mle.pauli_coeffs.tolist()
    payload["loglik"] = result.loglik
    payload["psd_flag"] = True
    payload["converged"] = result.converged
    payload["iterations"] = result.iterations

    lin_projected = result.psd_projection
    payload["linear"] = {
        "rho_real": rho_lin.real.tolist(),
        "rho_imag": rho_lin.imag.tolist(),
        "pauli_coeffs": pauli_expand(0.5 * (rho_lin + rho_lin.conj().T)).tolist(),
        "loglik": result.linear_loglik,
        "psd_flag": bool(linear_psd),
        "psd_projection_real": lin_projected.real.tolist(),
        "psd_projection_imag": lin_projected.imag.tolist(),
    }

    diag = {
        "mle_trace_distance_to_truth": trace_distance(rho_mle, truth.matrix),
        # the DensityMatrix objects, validated when built, are not checked again
        "mle_fidelity_to_truth": state_fidelity(result.rho_mle, truth),
        "linear_max_entry_error": float(np.max(np.abs(rho_lin - truth.matrix))),
        "linear_fidelity_to_truth": (
            state_fidelity(rho_lin, truth) if linear_psd else None
        ),
    }
    payload["diagnostics"] = diag

    files = {}
    if records is not None:
        files["records.csv"] = _csv(meta, "projector_label,trials,successes,estimate", records)
    k_header = ",".join(f"k{k}" for k in range(1, 16))
    files["covariance_predicted.csv"] = _csv(meta, k_header, result.covariance_predicted.tolist())

    if reps > 0:
        emp = np.cov(linear_coefficients(counts / shots_arr, pm), rowvar=False, ddof=1)
        files["covariance_empirical.csv"] = _csv(meta, k_header, emp.tolist())
        pred = np.diag(covariance_predict(truth.matrix, pm, shots_arr))
        # a coefficient with zero predicted variance (to rounding: a
        # deterministic outcome can leave -1e-18) has no relative deviation
        varied = pred > 1e-12 * np.max(pred)
        rel = np.abs(np.diag(emp)[varied] - pred[varied]) / pred[varied]
        payload["covariance_study"] = {
            "repetitions": reps,
            "max_diag_relative_deviation": float(np.max(rel)),
            "zero_variance_coefficients": int(np.sum(~varied)),
        }

    files["result.json"] = _json(payload)
    print(
        f"mle fidelity_to_truth={diag['mle_fidelity_to_truth']:.6f} "
        f"linear_psd={linear_psd} converged={result.converged}"
    )
    return files


# ---------------------------------------------------------------------- plan


def cmd_plan(cfg: dict) -> dict:
    _check_fields(
        cfg,
        required={"delta": (list, int, float), "p_limit": (list, int, float)},
        optional={"fidelity": (list, int, float)},
        where="plan config",
    )
    deltas, p_limits, fidelities = (  # only fidelity is optional, at 1 by default
        _numbers(cfg.get(name, 1.0), f"plan config field {name!r}")
        for name in ("delta", "p_limit", "fidelity")
    )
    rows = []
    for d in deltas:
        for pl in p_limits:
            for f in fidelities:
                try:
                    n = plan_shots(d, pl, f)
                    rows.append([float(d), float(pl), float(f), n])
                except ValueError:
                    rows.append([float(d), float(pl), float(f), "unplannable"])
    return {"plan.csv": _csv(_meta(cfg), "delta,p_limit,fidelity,n_runs", rows)}


# -------------------------------------------------------------------- verify


def run_verification() -> list:
    """Run the structural checks of ``spintomo verify``: the records of
    verify.json, one dict of check_id, passed, measured, threshold and
    detail per check, where measured is None for a check that raised.

    These rows are the one definition of each structural claim of the
    paper: the acceptance suite asserts on them, and ``mub_quorum``
    guards itself with the same budget and cross-check measures.
    """
    records = []

    def guarded(fn, *checks):
        """Run fn once and record one row per (check_id, threshold, detail).

        fn returns one measured value per check (a bare value for a single
        check), which passes at or below its threshold.  An exception fails
        every check with its message.
        """
        try:
            measured, error = np.atleast_1d(fn()).astype(float), None
        except Exception as exc:  # noqa: BLE001 - report, do not crash the list
            measured, error = np.full(len(checks), np.nan), str(exc)
        for value, (cid, threshold, detail) in zip(measured, checks):
            passed = value <= threshold  # NaN fails
            records.append({
                "check_id": cid,
                "passed": bool(passed),
                # a check that raised has no measured value
                "measured": float(value) if np.isfinite(value) else None,
                "threshold": float(threshold),
                "detail": detail if error is None else error,
            })

    q_mub = mub_quorum()
    q_james = james_quorum()
    # the 15 readouts the measurement circuits realize, run once per call
    # through the noise-free pass that noisy runs average with
    readouts = ideal_readouts(mub_preparations())

    guarded(lambda: abs(abs(pmatrix(q_mub).det) - 1.0 / 32.0),
            ("det_mub", 1e-12, "| |det P| - 1/32 |"))
    guarded(lambda: abs(abs(pmatrix(q_james).det) - 1.0 / 512.0),
            ("det_james", 1e-12, "| |det P| - 1/512 |"))
    guarded(lambda: closed_form_deviation(readouts),
            ("quorum_cross_check", 1e-12, "projectors vs closed-form Pauli terms"))
    guarded(lambda: esr_budget_excess(mub_preparations()),
            ("esr_budget", 1e-12, "one pi/2 resonant pulse max, states 4..15"))

    def mub_condition():
        """tr(P_a P_b) = |<a|b>|^2 is 1 or 0 within a basis and 1/4 across;
        readouts 3i+1 .. 3i+3 lead basis i, and I minus their sum completes it."""
        led = readouts.reshape(5, 3, 4, 4)
        fourth = np.eye(4) - led.sum(axis=1)
        matrices = np.concatenate([led, fourth[:, None]], axis=1).reshape(20, 4, 4)
        target = np.kron(np.eye(5), np.eye(4) - 0.25) + 0.25
        return float(np.max(np.abs(calibration_matrix(matrices) - target)))

    guarded(mub_condition, ("mub_condition", 1e-12, "all 400 basis-pair overlaps"))

    guarded(lambda: orthogonality_witness(constrained_random_kets(200)),
            ("tau_partial_sums", 1e-10,
             "m1 = 0 and equal 3/8 partial sums, 200 constrained states"),
            ("tau_ratio", 1e-10, "unit ratio of the two tau-subspace partial sums"))

    def gram_schmidt():
        lengths = gram_schmidt_lengths(q_mub)
        expected = np.sqrt(np.array([3.0 / 4.0, 2.0 / 3.0, 1.0 / 2.0]))
        dev = float(np.max(np.abs(lengths - expected[None, :])))
        return max(dev, abs(float(np.prod(lengths)) - 1.0 / 32.0))

    guarded(gram_schmidt,
            ("gram_schmidt_lengths", 1e-10,
             "per-triple lengths sqrt(3/4), sqrt(2/3), sqrt(1/2); product 1/32"))

    def row_norm_deviation():
        """Row j of P holds the traceless Pauli coefficients of P_j in an
        orthonormal basis, so its squared norm is tr(P_j^2) - 1/4: 3/4 for
        every pure projector, less for a mixed one.  Hadamard's inequality
        then bounds |det P| by (3/4)^(15/2) for every quorum; the tau rows
        rule out equality."""
        rows = np.concatenate([pmatrix(q_mub).entries, pmatrix(q_james).entries])
        return float(np.max(np.abs(np.sum(rows**2, axis=1) - 0.75)))

    guarded(row_norm_deviation,
            ("det_upper_bound", 1e-12,
             "squared P row norms 3/4 (mub, james): |det P| <= (3/4)^(15/2) by Hadamard"))

    guarded(lambda: abs(accessible_subspace_dimension(esr_allowed=False) - 5),
            ("subspace_no_esr", 0.0, "rank 5 without the resonant pulse"))
    guarded(lambda: abs(accessible_subspace_dimension(esr_allowed=True) - 15),
            ("subspace_with_esr", 0.0, "rank 15 with the resonant pulse"))

    def evolution_error(kind, base, cos_terms, sin_terms):
        """One gate conjugating a readout projector, against its Pauli
        expansion I/4 - zz/4 + cos(angle) (cos terms) + sin(angle) (sin terms).
        The readout pass runs U^dag B U, so the one-gate circuit of angle
        -angle gives exp(i angle H) B exp(-i angle H)."""
        angles = (0.0, np.pi / 4, np.pi / 2, np.pi)
        circuits = [Circuit((Gate(kind, -angle),)) for angle in angles]
        bases = np.stack([base.projector()] * len(angles))
        evolved = average_readouts(readout_steps(circuits), bases, [kind.value] * len(angles),
                                   NoiseModel())
        worst = 0.0
        for angle, lhs in zip(angles, evolved):
            coeffs = np.zeros(16)
            coeffs[0] = 0.5
            coeffs[15] = -0.5
            for k, c in cos_terms.items():
                coeffs[k] = c * np.cos(angle)
            for k, c in sin_terms.items():
                coeffs[k] = c * np.sin(angle)
            worst = max(worst, float(np.max(np.abs(lhs - pauli_assemble(coeffs)))))
        return worst

    for check_id, kind, base, cos_terms, sin_terms, detail in (
        ("evolution_exchange", GateKind.EXCHANGE_PULSE, UP_DOWN,
         {12: 0.5, 3: -0.5}, {6: 0.5, 9: -0.5}, "exchange conjugation of P_ud, closed form"),
        ("evolution_gradient", GateKind.GRADIENT_Z, SINGLET,
         {5: -0.5, 10: -0.5}, {6: -0.5, 9: 0.5}, "gradient conjugation of P_S, closed form"),
    ):
        guarded(lambda: evolution_error(kind, base, cos_terms, sin_terms),
                (check_id, 1e-12, detail))

    return records


def cmd_verify() -> tuple:
    """The exit code (3 if any check fails) and the report, verify.json."""
    checks = run_verification()
    for c in checks:
        measured = math.nan if c["measured"] is None else c["measured"]
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['check_id']}: measured={measured:.3e} "
              f"threshold={c['threshold']:.3e} ({c['detail']})")
    payload = _meta({})
    payload["checks"] = checks
    payload["all_passed"] = all(c["passed"] for c in checks)
    code = EXIT_OK if payload["all_passed"] else EXIT_NUMERICAL
    return code, {"verify.json": _json(payload)}


# ---------------------------------------------------------------------- main


@functools.cache  # the same for every run: built on first use and shared
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="two-spin-qubit tomography: quorum construction, "
        "measurement simulation, reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a JSON configuration file")
        p.add_argument("--out", default=".", help="output directory (created if absent)")

    p_spec = sub.add_parser("spectrum", help="detuning sweep of the six-level model")
    add_common(p_spec)

    p_quorum = sub.add_parser("quorum", help="export a measurement quorum")
    add_common(p_quorum)

    p_tomo = sub.add_parser("tomography", help="simulate and reconstruct")
    add_common(p_tomo)
    p_tomo.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_tomo.add_argument("--reps", type=int, default=0, help="repetitions for the "
                        f"covariance study (0 for none, else 2..{MAX_REPS})")
    p_tomo.add_argument("--exact", action="store_true",
                        help="feed exact Born probabilities instead of sampled counts")

    p_plan = sub.add_parser("plan", help="Hoeffding run-count table")
    add_common(p_plan)

    p_verify = sub.add_parser("verify", help="structural self-checks")
    p_verify.add_argument("--out", default=None,
                          help="directory for the machine-readable report")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = None if args.out is None else Path(args.out)
    try:
        code = EXIT_OK
        if args.command == "verify":
            code, files = cmd_verify()
        elif args.command == "tomography":
            files = cmd_tomography(_load_config(args.config), args.seed, args.reps, args.exact)
        else:
            command = {"spectrum": cmd_spectrum, "quorum": cmd_quorum, "plan": cmd_plan}
            files = command[args.command](_load_config(args.config))
        # verify without --out reports on stdout only
        if out is not None:
            _write_all(out, files)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # _load_config maps its own, so this is --out or a file in it
        print(f"configuration error: cannot create output directory {out} or write into it: "
              f"{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuorumDegenerateError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
