"""The per-slot, per-gene surrogate sweep of commit ``fafa950``, kept
verbatim as the oracle for :mod:`repro.hpo.landscape`.

``SurrogateDeepMDProblem.evaluate_batch_with_metadata`` must return the
same outcome slots as :func:`evaluate_batch` here — fitness bytes,
runtime minutes, exception type and message, metadata — and leave the
same ``evaluations`` / ``failures`` counts, for every batch and for
every slot evaluated alone (``tests/test_landscape_sweep.py``).  The
functions below are that commit's module helpers and its two sweep
methods, with ``self`` as the problem; only ``self._GENES`` and the call
``self._evaluate_group(...)`` became module-level names.
"""

from __future__ import annotations

import math
import zlib
from typing import Any

import numpy as np

from repro.exceptions import TrainingDivergedError
from repro.nn.lr_schedule import scale_lr_by_workers

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)

_SLOT_BACKGROUND = 0
_SLOT_RISKY = 1
_SLOT_BALANCE_A, _SLOT_BALANCE_B = 2, 3
_SLOT_ENERGY_A, _SLOT_ENERGY_B = 4, 5
_SLOT_FORCE_A, _SLOT_FORCE_B = 6, 7
_SLOT_FAIL_RUNTIME = 8
_SLOT_RUNTIME_A, _SLOT_RUNTIME_B = 9, 10

_GENES = (
    "rcut",
    "rcut_smth",
    "start_lr",
    "stop_lr",
    "fitting_activ_func",
    "desc_activ_func",
    "scale_by_worker",
)

_CRC_CACHE: dict[str, int] = {}


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_MUL1
    z = (z ^ (z >> np.uint64(27))) * _MIX_MUL2
    return z ^ (z >> np.uint64(31))


def _slot_uniform(h: np.ndarray, slot: int) -> np.ndarray:
    """Uniform [0, 1) draws for counter ``slot`` at each hash."""
    inc = np.uint64((_GOLDEN * (slot + 1)) & _MASK64)
    return (_mix64(h + inc) >> np.uint64(11)) * np.float64(2.0**-53)


def _slot_normal(h: np.ndarray, slot_a: int, slot_b: int) -> np.ndarray:
    """Standard-normal draws via Box–Muller from two uniform slots."""
    u_a = _slot_uniform(h, slot_a)
    u_b = _slot_uniform(h, slot_b)
    return np.sqrt(-2.0 * np.log1p(-u_a)) * np.cos(
        (2.0 * math.pi) * u_b
    )


def _crc_word(value: Any) -> int:
    """Process-stable hash word for a non-float gene value."""
    s = value if isinstance(value, str) else str(value)
    word = _CRC_CACHE.get(s)
    if word is None:
        word = _CRC_CACHE[s] = zlib.crc32(s.encode("utf-8"))
    return word


def _column_words(values: list[Any]) -> np.ndarray:
    """Hash words for one gene column (float bits or crc32)."""
    if all(isinstance(v, float) for v in values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)
    return np.fromiter(
        (
            np.float64(v).view(np.uint64)
            if isinstance(v, float)
            else _crc_word(v)
            for v in values
        ),
        dtype=np.uint64,
        count=len(values),
    )


def evaluate_batch(self, phenomes: list[dict[str, Any]]) -> list[Any]:
    """One NumPy sweep per homogeneous phenome group.

    Phenomes are grouped by key set (the per-phenome hash folds
    over *all* keys, so grouping keeps the value at a phenome
    independent of batch composition); in practice a population is
    one group and the whole batch is a single sweep.
    """
    outcomes: list[Any] = [None] * len(phenomes)
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, phenome in enumerate(phenomes):
        try:
            key = tuple(sorted(phenome))
        except Exception as exc:  # noqa: BLE001 - not a mapping
            outcomes[i] = exc
            continue
        groups.setdefault(key, []).append(i)
    for key, idx in groups.items():
        missing = next(
            (name for name in _GENES if name not in key), None
        )
        if missing is not None:
            with self._lock:
                self.evaluations += len(idx)
            for i in idx:
                outcomes[i] = KeyError(missing)
            continue
        evaluate_group(self, phenomes, idx, key, outcomes)
    return outcomes


def evaluate_group(
    self,
    phenomes: list[dict[str, Any]],
    idx: list[int],
    key_names: tuple[str, ...],
    outcomes: list[Any],
) -> None:
    c = self.calibration
    m = len(idx)
    cols = {
        name: [phenomes[i][name] for i in idx] for name in key_names
    }
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # per-phenome hash: the problem seed folded with every
        # gene's (name, value) — the counter-based analogue of the
        # old per-evaluation SeedSequence
        h = np.full(
            m, np.uint64(self.seed & _MASK64), dtype=np.uint64
        )
        for name in key_names:
            words = _column_words(cols[name])
            h = _mix64(
                h ^ _mix64(words ^ np.uint64(_crc_word(name)))
            )
        try:
            rcut = np.asarray(cols["rcut"], dtype=np.float64)
            rcut_smth = np.asarray(
                cols["rcut_smth"], dtype=np.float64
            )
            start_lr = np.asarray(
                cols["start_lr"], dtype=np.float64
            )
            stop_lr = np.asarray(cols["stop_lr"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            with self._lock:
                self.evaluations += m
            for i in idx:
                outcomes[i] = TypeError(str(exc))
            return
        # effective start rate (nan marks an unresolvable scheme,
        # surfaced per slot as the scalar path's ValueError)
        workers_ok = self.n_workers >= 1
        factor_map = {
            "linear": float(self.n_workers),
            "sqrt": math.sqrt(self.n_workers) if workers_ok else 0.0,
            "none": 1.0,
        }
        schemes = cols["scale_by_worker"]
        factors = np.empty(m, dtype=np.float64)
        bad_scheme: list[int] = []
        for j, scheme in enumerate(schemes):
            factor = (
                factor_map.get(scheme) if workers_ok else None
            )
            if factor is None:
                factors[j] = np.nan
                bad_scheme.append(j)
            else:
                factors[j] = factor
        eff = start_lr * factors
        # failure partition, in the scalar path's precedence order
        code = np.zeros(m, dtype=np.int8)
        code[
            _slot_uniform(h, _SLOT_BACKGROUND)
            < c.background_failure_rate
        ] = 1
        for j in bad_scheme:
            if code[j] == 0:
                code[j] = 2
        ok = code == 0
        u_risky = _slot_uniform(h, _SLOT_RISKY)
        code[
            ok
            & (eff > c.lr_risky_threshold)
            & (u_risky < c.lr_risky_failure_rate)
        ] = 3
        ok = code == 0
        code[ok & (rcut_smth >= rcut)] = 4
        ok = code == 0
        code[ok & ((eff <= 0.0) | (stop_lr <= 0.0))] = 5
        ok = code == 0
        code[ok & (eff > c.lr_divergence_threshold)] = 6
        ok = code == 0
        finite = np.isfinite([rcut, rcut_smth, start_lr, stop_lr])
        code[ok & ~finite.all(axis=0)] = 7
        # the response surface (nan-safe: failed slots are masked
        # out of the outcomes below)
        log_eff = np.log10(eff)
        lr_width = np.where(
            log_eff < c.lr_optimum_log10,
            c.lr_width_low_log10,
            c.lr_width_log10,
        )
        lr_term = ((log_eff - c.lr_optimum_log10) / lr_width) ** 2
        stop_term = (
            (np.log10(stop_lr) - c.stop_lr_optimum_log10)
            / c.stop_lr_width_log10
        ) ** 2
        rcut_decay = np.exp(-(rcut - c.rcut_ref) / c.rcut_length)
        smth_excess = np.maximum(rcut_smth - 2.0, 0.0)
        fit_f = {
            "relu": c.fitting_relu_penalty[0],
            "relu6": c.fitting_relu6_penalty[0],
        }
        fit_e = {
            "relu": c.fitting_relu_penalty[1],
            "relu6": c.fitting_relu6_penalty[1],
        }
        desc_f = {
            "sigmoid": c.desc_sigmoid_penalty[0],
            "relu": c.desc_relu_penalty[0],
            "relu6": c.desc_relu6_penalty[0],
        }
        desc_e = {
            "sigmoid": c.desc_sigmoid_penalty[1],
            "relu": c.desc_relu_penalty[1],
            "relu6": c.desc_relu6_penalty[1],
        }
        fit_act = cols["fitting_activ_func"]
        desc_act = cols["desc_activ_func"]
        f_pen = np.fromiter(
            (fit_f.get(a, 0.0) for a in fit_act), np.float64, m
        ) + np.fromiter(
            (desc_f.get(a, 0.0) for a in desc_act), np.float64, m
        )
        e_pen = np.fromiter(
            (fit_e.get(a, 0.0) for a in fit_act), np.float64, m
        ) + np.fromiter(
            (desc_e.get(a, 0.0) for a in desc_act), np.float64, m
        )
        f_end = np.minimum(stop_lr / eff, 1.0)
        theta = np.clip(
            (np.log10(np.maximum(f_end, 1e-8)) + 4.0) / 4.0,
            0.0,
            1.0,
        )
        force = (
            c.force_floor
            + c.lr_force_gain * lr_term
            + c.stop_lr_force_gain * stop_term
            + c.rcut_force_gain * rcut_decay
            + c.smth_force_gain * smth_excess
            + f_pen
            + c.tradeoff_force_span * (1.0 - theta)
        )
        energy = (
            c.energy_floor
            + c.lr_energy_gain * lr_term
            + c.stop_lr_energy_gain * stop_term
            + c.rcut_energy_gain * rcut_decay
            + c.smth_energy_gain * smth_excess
            + e_pen
            + c.tradeoff_energy_span * theta
        )
        z = _slot_normal(h, _SLOT_BALANCE_A, _SLOT_BALANCE_B)
        energy = energy * np.exp(
            c.energy_noise
            * _slot_normal(h, _SLOT_ENERGY_A, _SLOT_ENERGY_B)
            + c.balance_noise_energy * z
        )
        force = force * np.exp(
            c.force_noise
            * _slot_normal(h, _SLOT_FORCE_A, _SLOT_FORCE_B)
            - c.balance_noise_force * z
        )
        if self.simulate_runtime:
            rt = self._runtime_model
            lo, hi = rt.fail_minutes
            fail_runtime = (
                lo
                + _slot_uniform(h, _SLOT_FAIL_RUNTIME) * (hi - lo)
            ).tolist()
            base = rt.fixed_minutes + rt.env_minutes * (
                rcut / rt.rcut_ref
            ) ** 3
            ok_runtime = (
                base
                * np.exp(
                    rt.jitter_sigma
                    * _slot_normal(
                        h, _SLOT_RUNTIME_A, _SLOT_RUNTIME_B
                    )
                )
            ).tolist()
        else:
            fail_runtime = ok_runtime = [0.0] * m
    codes = code.tolist()
    with self._lock:
        self.evaluations += m
        self.failures += sum(
            1 for k in codes if k not in (0, 2)
        )
    effs = eff.tolist()
    energies = energy.tolist()
    forces = force.tolist()
    for j, i in enumerate(idx):
        k = codes[j]
        if k == 0:
            metadata: dict[str, Any] = {
                "phenome": dict(phenomes[i]),
                "failed": False,
            }
            if self.simulate_runtime:
                metadata["runtime_minutes"] = ok_runtime[j]
            outcomes[i] = (
                np.array([energies[j], forces[j]]),
                metadata,
            )
            continue
        if k == 2:
            try:
                scale_lr_by_workers(
                    cols["start_lr"][j], self.n_workers, schemes[j]
                )
                outcomes[i] = ValueError(
                    f"unknown worker scaling {schemes[j]!r}"
                )  # pragma: no cover - scale_lr always raises here
            except ValueError as exc:
                outcomes[i] = exc
            continue
        if k == 1:
            message = "spurious configuration/system failure"
        elif k == 3:
            message = (
                f"effective start_lr {effs[j]:.3g} in the "
                "unstable band"
            )
        elif k == 4:
            message = "rcut_smth >= rcut: descriptor undefined"
        elif k == 5:
            message = "non-positive learning rate"
        elif k == 6:
            message = f"effective start_lr {effs[j]:.3g} diverges"
        else:
            message = "non-finite gene"
        exc = TrainingDivergedError(message)
        exc.metadata = {  # type: ignore[attr-defined]
            "phenome": dict(phenomes[i]),
            "failed": True,
            "failure_cause": f"{type(exc).__name__}: {exc}",
            "runtime_minutes": (
                fail_runtime[j] if self.simulate_runtime else 0.0
            ),
        }
        outcomes[i] = exc
