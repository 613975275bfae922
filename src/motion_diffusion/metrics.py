"""Evaluation metrics for sampled and deterministic motion predictions.

Stochastic metrics score a set of N sampled futures against one ground
truth: APD (diversity), mDE/aDE/sDE (whole-horizon displacement) and
mFDE/aFDE/sFDE (final frame).  Euler-angle MSE scores a single
deterministic prediction at fixed millisecond horizons.

Conventions pinned here: displacement norms are taken over the flattened
L*D difference matrix; the per-sample DE includes the 1/L factor (FDE
does not); spread metrics are population standard deviations of the same
per-sample quantities; angle differences wrap to (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, UndefinedMetricError, check_frame_rate
from .motion_data import write_file


@dataclass(frozen=True, eq=False)
class SampleSet:
    """N sampled futures (N, L, D) with optional ground truth (L, D)."""

    samples: np.ndarray
    ground_truth: np.ndarray | None = None
    fps: float | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 3 or s.shape[0] < 1:
            raise DimensionError(f"samples must be (N, L, D) with N >= 1, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ContractError("samples contain non-finite values")
        object.__setattr__(self, "samples", s)
        if self.ground_truth is not None:
            g = np.asarray(self.ground_truth, dtype=np.float64)
            if g.shape != s.shape[1:]:
                raise DimensionError(
                    f"ground truth shape {g.shape} != sample shape {s.shape[1:]}")
            if not np.all(np.isfinite(g)):
                raise ContractError("ground truth contains non-finite values")
            object.__setattr__(self, "ground_truth", g)
        if self.fps is not None:
            check_frame_rate(self.fps, "fps", ContractError)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class MetricsReport:
    apd: float
    mde: float
    ade: float
    sde: float
    mfde: float
    afde: float
    sfde: float
    euler_mse_by_horizon: dict[int, float] = field(default_factory=dict)


def apd(s: SampleSet) -> float:
    """Average pairwise L2 distance over ordered sample pairs i != j."""
    n = s.n_samples
    if n < 2:
        raise UndefinedMetricError("APD needs at least 2 samples")
    flat = s.samples.reshape(n, -1)
    total = 0.0
    for i in range(n):
        total += float(np.linalg.norm(flat - flat[i], axis=1).sum())
    return total / (n * (n - 1))


def _distance_summary(s: SampleSet, frames: slice, divisor: int) -> tuple[float, float, float]:
    """min/mean/std over samples of the flattened L2 distance to the ground
    truth on `frames`, each divided by `divisor`."""
    if s.ground_truth is None:
        raise ContractError("displacement metrics require ground truth")
    diff = s.samples[:, frames] - s.ground_truth[frames]
    d = np.linalg.norm(diff.reshape(s.n_samples, -1), axis=1) / divisor
    return float(d.min()), float(d.mean()), float(d.std())


def displacement_errors(s: SampleSet) -> tuple[float, float, float]:
    """(mDE, aDE, sDE): min/mean/std of per-sample (1/L) * flattened L2."""
    return _distance_summary(s, slice(None), s.samples.shape[1])


def final_displacement_errors(s: SampleSet) -> tuple[float, float, float]:
    """(mFDE, aFDE, sFDE): min/mean/std of final-frame L2, no 1/L factor."""
    return _distance_summary(s, slice(-1, None), 1)


def wrap_angle(d):
    """Map angle differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(d, dtype=np.float64), 2.0 * np.pi)


def euler_mse(pred: np.ndarray, gt: np.ndarray, fps: float,
              horizons_ms: tuple[int, ...] | list[int]) -> dict[int, float]:
    """Mean squared wrapped angle error at each millisecond horizon.

    A horizon selects the 1-based frame round(ms * fps / 1000), halves
    rounding up, computed exactly in integers, so no horizon overflows;
    horizons that select no frame in 1..L are omitted from the result
    rather than raising.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise DimensionError(
            f"pred and gt must share an (L, D) shape, got {pred.shape} vs {gt.shape}")
    num, den = check_frame_rate(fps, "fps", ContractError).as_integer_ratio()
    out: dict[int, float] = {}
    for ms in map(int, horizons_ms):
        frame = (2 * ms * num + 1000 * den) // (2000 * den)  # floor(ms*fps/1000 + 1/2)
        if 1 <= frame <= pred.shape[0]:
            d = wrap_angle(pred[frame - 1] - gt[frame - 1])
            out[ms] = float(np.mean(d * d))
    return out


def compute_report(s: SampleSet, deterministic_pred: np.ndarray | None = None,
                   horizons_ms: tuple[int, ...] | list[int] = ()) -> MetricsReport:
    """Bundle all metrics for one task.

    Euler MSE is only computed when a deterministic prediction, ground
    truth, an fps and horizons are all available.
    """
    mde, ade, sde = displacement_errors(s)
    mfde, afde, sfde = final_displacement_errors(s)
    euler: dict[int, float] = {}
    if deterministic_pred is not None and horizons_ms and s.fps is not None:
        euler = euler_mse(deterministic_pred, s.ground_truth, s.fps, horizons_ms)
    return MetricsReport(apd=apd(s), mde=mde, ade=ade, sde=sde,
                         mfde=mfde, afde=afde, sfde=sfde,
                         euler_mse_by_horizon=euler)


METRIC_COLUMNS = ("apd", "mde", "ade", "sde", "mfde", "afde", "sfde")


def write_report_csv(rows: list[tuple[str, MetricsReport]], path) -> None:
    """One CSV row per task plus a final mean row; fixed column order.

    Every report must carry the same euler horizon set so columns line
    up; the aggregate row averages each column over tasks.  Lines end in
    CRLF, as the csv module ends them; fields go unquoted, so a label
    holds no comma, quote or line break.
    """
    if not rows:
        raise ContractError("report needs at least one task row")
    horizons = sorted(rows[0][1].euler_mse_by_horizon)
    for _, rep in rows:
        if sorted(rep.euler_mse_by_horizon) != horizons:
            raise ContractError("all report rows must share the same euler horizons")
    header = ["task", *METRIC_COLUMNS, *[f"euler_mse_{ms}ms" for ms in horizons]]
    table = [(label, [getattr(rep, c) for c in METRIC_COLUMNS]
              + [rep.euler_mse_by_horizon[ms] for ms in horizons]) for label, rep in rows]
    table.append(("mean", np.mean(np.array([v for _, v in table]), axis=0)))
    lines = [header, *([label, *(f"{v:.12g}" for v in vals)] for label, vals in table)]
    write_file(path, (",".join(fields).encode("utf-8") + b"\r\n" for fields in lines))
