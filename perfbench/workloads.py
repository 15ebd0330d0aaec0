"""Seeded operation lists for each workload, and the checks of their outputs.

An operation is one ``spintomo.cli.main`` call.  Its config file is
written before timing starts; its outputs go to a directory of its own,
which every replay of the operation overwrites.  The first run of an
operation is checked against the reference computations; every replay
must then leave byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

NAMED = tuple(ref.NAMED_STATES)
GATE_KINDS = tuple(ref.GENERATORS)
#: covariance-study repetitions: one operation per rung in every round
REPS_LADDER = (250, 400, 630, 1000, 1600, 2500)
#: tomo_stream operations per second of run length; about one round per run
TOMO_OPS_PER_SECOND = 28
#: tomo_stream state classes drawn from the fixed panel seed
PANEL_RANKS = (1, 2)
PANEL_SEED = 0
NOISY_OPS_PER_ROUND = 3
#: how many reported standard errors a Monte Carlo projector may miss by
AVERAGE_SE_FACTOR = 6.0
#: the empirical covariance diagonal may miss by this many sqrt(2/(R-1))
COVARIANCE_BAND = 5.0


class CheckError(Exception):
    """An operation's outputs contradict the reference computations."""


@dataclass
class Op:
    argv: list
    out: Path
    config: dict | None = None
    seed: int = 0
    reps: int = 0
    exact: bool = False
    digest: str | None = None  # output digest after the first, checked run


def _strata(rng, n: int) -> np.ndarray:
    """n values in [0, 1), one in each of n equal bins, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _half(rng, n: int) -> np.ndarray:
    return rng.permutation(np.arange(n) % 2 == 1)


def _random_state(rng, rank: int) -> dict:
    return {"kind": "random", "seed": int(rng.integers(2**31)), "rank": int(rank)}


def _tomo_class(rng, slot: int, m: int) -> list:
    """m operations of one state class: slot 0 gives exact round trips of
    the named states in turn, slots 1-4 sampled runs on random states of
    that rank."""
    shots = np.rint(10.0 ** (2.0 + 2.0 * _strata(rng, m))).astype(int)
    lists, with_f = _half(rng, m), _half(rng, m)
    fidelity = 0.75 + 0.25 * _strata(rng, m)
    named = int(rng.integers(len(NAMED)))
    configs = []
    for i in range(m):
        if slot == 0:
            state = {"kind": "named", "name": NAMED[(named + i) % len(NAMED)]}
        else:
            state = _random_state(rng, slot)
        cfg = {"state": state, "shots": int(shots[i])}
        if lists[i]:
            spread = np.rint(shots[i] * 2.0 ** rng.uniform(-1.0, 1.0, 15))
            cfg["shots"] = [int(x) for x in np.clip(spread, 100, 10000)]
        if with_f[i]:
            cfg["readout_fidelity"] = float(fidelity[i])
        configs.append(dict(config=cfg, seed=int(rng.integers(2**31)), exact=slot == 0))
    return configs


def _tomo_configs(rng, n: int) -> list:
    """A fifth of the operations from each class, in seeded order.  The
    rank-1 and rank-2 classes come from the fixed panel, not from the
    seed: their MLE ascent takes 50 to 10000 iterations, and a run holds
    too few of them for a tail that does not move with the seed."""
    panel = np.random.default_rng(PANEL_SEED)
    configs = []
    for slot in range(5):
        configs += _tomo_class(panel if slot in PANEL_RANKS else rng, slot, len(range(slot, n, 5)))
    return [configs[i] for i in rng.permutation(n)]


def _cov_configs(rng) -> list:
    n = len(REPS_LADDER)
    shots = np.rint(10.0 ** (np.log10(500) + _strata(rng, n))).astype(int)
    with_f = _half(rng, n)
    fidelity = 0.8 + 0.2 * _strata(rng, n)
    configs = []
    for i, reps in enumerate(rng.permutation(REPS_LADDER)):
        cfg = {"state": _random_state(rng, 4), "shots": int(shots[i])}
        if with_f[i]:
            cfg["readout_fidelity"] = float(fidelity[i])
        configs.append(dict(config=cfg, seed=int(rng.integers(2**31)), reps=int(reps)))
    return configs


def _noisy_configs(rng, n: int) -> list:
    std = 0.02 + 0.13 * _strata(rng, n)
    configs = []
    for i in range(n):
        kinds = rng.choice(GATE_KINDS, size=int(rng.integers(3, 6)), replace=False)
        noise = {
            str(k): {"mean_rad": float(rng.uniform(-0.03, 0.03)),
                     "std_rad": float(std[i] * rng.uniform(0.5, 1.0))}
            for k in kinds
        }
        cfg = {"state": _random_state(rng, 1 + i % 4),
               "shots": int(rng.integers(1000, 10001)), "noise": noise}
        if rng.random() < 0.5:
            cfg["readout_fidelity"] = float(rng.uniform(0.8, 1.0))
        configs.append(dict(config=cfg, seed=int(rng.integers(2**31))))
    return configs


WORKLOADS = ("tomo_stream", "cov_study", "noisy_tomo", "verify")


def make_ops(workload: str, seed: int, seconds: float, work: Path, smoke: bool = False) -> list:
    """Write the configs of one round of ``workload`` and return its operations."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify":
        out = work / "out" / "0"
        return [Op(["verify", "--out", str(out)], out)]
    if workload == "tomo_stream":
        configs = _tomo_configs(rng, 10 if smoke else max(5, round(TOMO_OPS_PER_SECOND * seconds)))
    elif workload == "cov_study":
        configs = _cov_configs(rng)[:2] if smoke else _cov_configs(rng)
    else:
        configs = _noisy_configs(rng, 1 if smoke else NOISY_OPS_PER_ROUND)
    (work / "cfg").mkdir(parents=True, exist_ok=True)
    ops = []
    for i, spec in enumerate(configs):
        op = Op([], work / "out" / str(i), **spec)
        path = work / "cfg" / f"{i}.json"
        path.write_text(json.dumps(op.config))
        op.argv = ["tomography", "--config", str(path), "--out", str(op.out), "--seed", str(op.seed)]
        if op.reps:
            op.argv += ["--reps", str(op.reps)]
        if op.exact:
            op.argv.append("--exact")
        ops.append(op)
    return ops


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


# ------------------------------------------------------------------ checks


def _require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _close(a, b, atol: float, what: str) -> None:
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    _require(dev <= atol, f"{what}: deviation {dev:.3e} above {atol:.1e}")


def _read_csv(path: Path) -> tuple:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _read_matrix(path: Path) -> np.ndarray:
    return np.array(_read_csv(path)[1], dtype=np.float64)


def _complex(block: dict, prefix: str = "rho") -> np.ndarray:
    return np.array(block[f"{prefix}_real"]) + 1j * np.array(block[f"{prefix}_imag"])


class Checker:
    """Checks an operation's outputs; holds the per-run reference data."""

    def __init__(self, spintomo_modules):
        self.st = spintomo_modules
        self.mub = ref.mub_projectors()

    def truth(self, state: dict) -> np.ndarray:
        if state["kind"] == "named":
            return ref.NAMED_STATES[state["name"]]
        # the truth is an input: generated by the package from the config
        rho = self.st.qmath.random_density(state["seed"], state["rank"]).matrix
        _require(ref.is_density_matrix(rho), "random truth is not a density matrix")
        rank = int(np.sum(np.linalg.eigvalsh(rho) > 1e-9))
        _require(rank == state["rank"], f"random truth has rank {rank}, not {state['rank']}")
        return rho

    def averaged_projectors(self, op: Op) -> np.ndarray:
        """The Monte Carlo projectors the CLI measures with, after checking
        each against the exact Gaussian average of its circuit."""
        measure, quorum = self.st.measure, self.st.quorum
        noise_cfg = op.config["noise"]
        model = measure.NoiseModel.from_json(noise_cfg)
        out = []
        for j, prep in enumerate(quorum.mub_preparations()):
            circuit = prep.measurement_circuit()
            base = ref.NAMED_STATES[prep.base_label]
            ideal = ref.gaussian_average([(ref.GENERATORS[g.kind.value], g.angle, 0.0)
                                          for g in circuit.gates], base)
            _close(ideal, self.mub[j], 1e-12, f"{prep.label} circuit vs closed form")
            gates = []
            for g in circuit.gates:
                n = noise_cfg.get(g.kind.value, {"mean_rad": 0.0, "std_rad": 0.0})
                gates.append((ref.GENERATORS[g.kind.value], g.angle + n["mean_rad"], n["std_rad"]))
            exact = ref.gaussian_average(gates, base)
            avg = measure.average_projector(
                circuit, quorum.Projector(base, prep.base_label), model, seed=op.seed)
            tol = AVERAGE_SE_FACTOR * avg.max_standard_error + 1e-12
            _close(avg.projector.matrix, exact, tol, f"{prep.label} averaged projector")
            out.append(avg.projector.matrix)
        return np.stack(out)

    def check(self, op: Op) -> None:
        if op.config is None:
            self.check_verify(op)
        else:
            self.check_tomography(op)

    def check_verify(self, op: Op) -> None:
        report = json.loads((op.out / "verify.json").read_text())
        _require(report["all_passed"] is True, "verify.json: not all checks passed")
        measured = {c["check_id"]: c for c in report["checks"]}
        _require(all(c["passed"] for c in measured.values()), "verify.json: a check failed")
        dets = {"det_mub": (self.mub, 1 / 32), "det_james": (ref.separable_projectors(), 1 / 512)}
        for cid, (projs, paper) in dets.items():
            own = abs(abs(np.linalg.det(ref.pmatrix(projs))) - paper)
            _require(own <= measured[cid]["threshold"], f"own {cid} misses {paper}")
            _close(measured[cid]["measured"], own, 1e-12, f"{cid} measured")
        g = ref.GENERATORS
        controls = [g["exchange_pulse"], g["z_rot_qubit1"], g["z_rot_qubit2"]]
        ranks = {"subspace_no_esr": (controls, 5),
                 "subspace_with_esr": (controls + [g["esr_x_qubit1"]], 15)}
        for cid, (gens, paper) in ranks.items():
            own = ref.closure_rank(ref.READOUT_PROJECTORS, gens)
            _require(own == paper, f"own closure rank {own}, paper {paper}")
            _require(measured[cid]["measured"] == 0.0, f"{cid}: rank differs from {paper}")

    @staticmethod
    def records(path: Path, shots: np.ndarray) -> np.ndarray:
        header, rows = _read_csv(path)
        _require(header == ["projector_label", "trials", "successes", "estimate"],
                 "records.csv header")
        _require(len(rows) == 15, "records.csv needs 15 rows")
        trials = np.array([int(r[1]) for r in rows])
        successes = np.array([int(r[2]) for r in rows])
        freqs = np.array([float(r[3]) for r in rows])
        _require(np.array_equal(trials, shots), "records.csv trials differ from the config")
        _require(np.all((0 <= successes) & (successes <= trials)), "successes out of range")
        _close(freqs, successes / trials, 1e-15, "records.csv estimates")
        return freqs

    def check_tomography(self, op: Op) -> None:
        cfg = op.config
        truth = self.truth(cfg["state"])
        projs = self.averaged_projectors(op) if "noise" in cfg else self.mub
        if "readout_fidelity" in cfg:
            projs = ref.degrade(projs, cfg["readout_fidelity"])
        shots = np.broadcast_to(np.asarray(cfg["shots"], dtype=np.float64), (15,))
        result = json.loads((op.out / "result.json").read_text())

        if op.exact:
            _require(not (op.out / "records.csv").exists(), "records.csv from an exact run")
            freqs = ref.probabilities(truth, projs)
        else:
            freqs = self.records(op.out / "records.csv", shots)

        lin = result["linear"]
        rho_lin = _complex(lin)
        _close(rho_lin, ref.linear_inversion(freqs, projs), 1e-10, "linear inversion")
        if op.exact:
            _close(rho_lin, truth, 1e-10, "exact round trip")
        lin_psd = bool(np.linalg.eigvalsh(rho_lin)[0] >= -1e-10)
        _require(lin["psd_flag"] == lin_psd, "linear psd_flag")
        _require(ref.is_density_matrix(_complex(lin, "psd_projection")),
                 "psd_projection is not a density matrix")

        rho = _complex(result)
        _require(ref.is_density_matrix(rho), "rho is not a density matrix")
        loglik = ref.binomial_loglik(freqs, shots, projs, rho)
        _close(result["loglik"], loglik, 1e-8 * (1.0 + abs(loglik)), "reported loglik")
        truth_loglik = ref.binomial_loglik(freqs, shots, projs, truth)
        _require(loglik >= truth_loglik - 1e-9 * abs(truth_loglik),
                 f"MLE loglik {loglik!r} below the true state's {truth_loglik!r}")

        diag = result["diagnostics"]
        _close(diag["mle_fidelity_to_truth"], ref.fidelity(rho, truth), 1e-7, "mle fidelity")
        _close(diag["mle_trace_distance_to_truth"], ref.trace_distance(rho, truth), 1e-10,
               "mle trace distance")
        _close(diag["linear_max_entry_error"], np.max(np.abs(rho_lin - truth)), 1e-12,
               "linear max entry error")
        if lin_psd:
            _close(diag["linear_fidelity_to_truth"], ref.fidelity(rho_lin, truth), 1e-7,
                   "linear fidelity")

        predicted = _read_matrix(op.out / "covariance_predicted.csv")
        own = ref.covariance(rho, projs, shots)
        _close(predicted, own, 1e-9 * np.max(np.abs(own)), "covariance_predicted.csv")

        if op.reps:
            empirical = np.diag(_read_matrix(op.out / "covariance_empirical.csv"))
            expected = np.diag(ref.covariance(truth, projs, shots))
            rel = np.abs(empirical - expected) / expected
            band = COVARIANCE_BAND * np.sqrt(2.0 / (op.reps - 1))
            _require(np.max(rel) <= band,
                     f"empirical covariance off by {np.max(rel):.3f} (band {band:.3f})")
            study = result["covariance_study"]
            _require(study["repetitions"] == op.reps, "covariance_study repetitions")
            _close(study["max_diag_relative_deviation"], np.max(rel), 1e-6,
                   "covariance_study max deviation")
