"""Finite-difference verification of the reverse-mode gradients.

Two layers of checking: a per-op suite that differentiates every
primitive against central differences at random points, and an
end-to-end suite that probes the full conditional-loss gradient for
both denoiser variants at a toy configuration.

The per-op suite is the `_op_cases` table: a new op takes one row, and
one harness builds its weighted loss.  The tests scale each module-level
`_*backward*` kernel in `numerics` by 1.01 and expect the suite to catch
it, so a new kernel gets its negative control without a new test.

Relative error convention: |analytic - numeric| / max(|analytic|,
|numeric|, 1e-6).  The floor keeps near-zero gradients from inflating
the ratio; central differences in float64 resolve those to ~1e-12, far
below the 1e-4 acceptance threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .denoiser import DenoiserConfig, init_denoiser
from .diffusion import batch_noise_loss, build_schedule
from .errors import ConfigError, check_count

DEFAULT_STEP = 1e-5
DEFAULT_THRESHOLD = 1e-4
ERROR_FLOOR = 1e-6

TOY_CONFIG = dict(model_dim=32, n_heads=2, t_obs=4, l_pred=5, dim=6, k_steps=5)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), ERROR_FLOOR)


def _difference_at(f, x: np.ndarray, i: int, step: float) -> float:
    """Central difference of scalar f() in element i of x, which f reads."""
    orig = x.flat[i]
    x.flat[i] = orig + step
    hi = f()
    x.flat[i] = orig - step
    lo = f()
    x.flat[i] = orig
    return (hi - lo) / (2.0 * step)


def central_difference(f, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Gradient of scalar f at x, one central difference per element."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([_difference_at(lambda: f(x), x, i, step)
                     for i in range(x.size)]).reshape(x.shape)


def _pre_norm_params(rng: np.random.Generator, c: int, *shapes) -> tuple:
    """A block's norm gain (near 1) and bias over c channels, then one array per shape."""
    return (rng.normal(size=(c,)) + 1.0, rng.normal(size=(c,)),
            *(rng.normal(size=shape) for shape in shapes))


def _op_cases(rng: np.random.Generator) -> list[tuple]:
    """One row per checked op call: (name, op, input arrays).

    `op` takes one Tensor per input array and returns the op's output;
    every input is differentiated.  A new op takes one row here.
    """
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    lx = rng.normal(size=(2, 3, 4))
    lw = rng.normal(size=(4, 5))
    idx = rng.integers(0, 3, size=5)
    idx2 = rng.integers(0, 3, size=(2, 3))
    # wq, bq, wk, wv, bv, wo, bo of a 4-channel attention block
    attn = ((4, 4), (4,), (4, 4), (4, 4), (4,), (4, 4), (4,))
    return [
        ("add", nm.add, (a, b)),
        ("add_broadcast", nm.add, (a, rng.normal(size=(4,)))),
        ("sub", nm.sub, (a, b)),
        ("mul", nm.mul, (a, b)),
        ("scale", lambda x: nm.scale(x, 1.7), (a,)),
        ("matmul", nm.matmul, (rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))),
        ("matmul_batched", nm.matmul,
         (rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2)))),
        ("linear", nm.linear, (lx, lw, rng.normal(size=(5,)))),
        ("linear", nm.linear, (lx, lw)),
        ("relu", nm.relu, (a + 0.05,)),  # nudge off the kink where FD is invalid
        ("softmax_rows", nm.softmax_rows, (a,)),
        ("layer_norm", nm.layer_norm,
         (a, rng.normal(size=(4,)) + 1.0, rng.normal(size=(4,)))),
        ("reshape", lambda x: nm.reshape(x, (12,)), (a,)),
        ("transpose", lambda x: nm.transpose(x, (1, 0)), (a,)),
        ("concat", lambda x, y: nm.concat([x, y], axis=0), (a, b)),
        ("narrow", lambda x: nm.narrow(x, 1, 1, 2), (a,)),
        ("take_rows", lambda x: nm.take_rows(x, idx), (a,)),
        # a 2-D index, as the step embedding is gathered
        ("take_rows_2d", lambda x: nm.take_rows(x, idx2), (a,)),
        ("sum_all", nm.sum_all, (a,)),
        ("mean_all", nm.mean_all, (a,)),
        # one part of a 30-entry batch, as a training step's groups are reduced
        ("mean_all_part", lambda x: nm.mean_all(x, count=30), (a,)),
        # one row, as a batch-1 sample with L * D = 1 reaches the GEMMs
        ("linear_one_row", nm.linear,
         (rng.normal(size=(1, 4)), lw, rng.normal(size=(5,)))),
        # a (B, S) frame index as temporal keys are gathered: two chains
        # share frames 0 and 1, so those rows repeat
        ("take_rows_shared", lambda x: nm.take_rows(x, [[0, 1, 2, 3], [0, 1, 4, 5]]),
         (rng.normal(size=(6, 2, 3)),)),
        # each row read once, as the chains' own future frames are
        ("take_rows_unique", lambda x: nm.take_rows(x, [[4, 5], [2, 3]]),
         (rng.normal(size=(6, 2, 3)),)),
        ("feedforward", nm.feedforward,
         (rng.normal(size=(2, 3, 4)), *_pre_norm_params(rng, 4, (4, 6), (6,), (6, 4), (4,)))),
        # the spatial layer: every token of x attends over its own axis -2
        ("attention_block", lambda x, *p: nm.attention_block(x, *p, 2, -2),
         (rng.normal(size=(2, 3, 4)), *_pre_norm_params(rng, 4, *attn))),
        # the temporal layer on a (6, 2, 4) frame list: two chains share
        # frames 0 and 1 as keys, so the key scatter repeats rows
        ("attention_block_rows",
         lambda x, *p: nm.attention_block(x, *p, 2, -3,
                                          rows=([[0, 1, 2, 3], [0, 1, 4, 5]], [[2, 3], [4, 5]])),
         (rng.normal(size=(6, 2, 4)), *_pre_norm_params(rng, 4, *attn))),
        # one row, as a batch-1 sample with L * D = 1 reaches the GEMMs
        ("attention_block_one_row", lambda x, *p: nm.attention_block(x, *p, 2, -2),
         (rng.normal(size=(1, 1, 4)), *_pre_norm_params(rng, 4, *attn))),
        # two leading batch axes, as the parallel variant's spatial rows (B, L, D, C)
        ("attention_block", lambda x, *p: nm.attention_block(x, *p, 2, -2),
         (rng.normal(size=(2, 2, 3, 4)), *_pre_norm_params(rng, 4, *attn))),
    ]


def _check_inputs(op, arrays: tuple, step: float,
                  rng: np.random.Generator) -> float:
    """Worst relative error of the loss sum(op(arrays) * w) over every input element.

    w is drawn at op's output shape (a scalar for a scalar output), so
    the loss weights every output element with a dense random weight.
    """
    w = rng.normal(size=op(*map(nm.constant, arrays)).shape)

    def loss(tensors) -> nm.Tensor:
        return nm.sum_all(nm.mul(op(*tensors), w))

    tape = nm.Tape()
    leaves = dict(enumerate(map(tape.param, arrays)))
    grads = tape.gradients(loss(leaves.values()), leaves)
    worst = 0.0
    for i, x in enumerate(arrays):
        def value_at(perturbed, _i=i):
            vals = [*arrays[:_i], perturbed, *arrays[_i + 1:]]
            return float(loss(map(nm.constant, vals)).data)

        fd = central_difference(value_at, x.copy(), step)
        for a, n in zip(grads[i].ravel(), fd.ravel()):
            worst = max(worst, relative_error(float(a), float(n)))
    return worst


def check_ops(seed: int = 0, points: int = 10,
              step: float = DEFAULT_STEP) -> dict[str, float]:
    """Finite-difference every primitive op at `points` random inputs.

    Returns the worst relative error per op name over the `_op_cases`
    rows of that name.
    """
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    for _ in range(points):
        for name, op, arrays in _op_cases(rng):
            err = _check_inputs(op, arrays, step, rng)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


@dataclass(frozen=True)
class ProbeResult:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


def probe_loss_gradients(model, sched, seed: int, n_probes: int = 8,
                         step: float = DEFAULT_STEP,
                         batch_size: int = 2) -> list[ProbeResult]:
    """End-to-end loss-gradient probes at random parameter entries.

    Builds one fixed random batch, takes the tape gradient, then
    re-evaluates the loss with individually perturbed parameters.
    """
    cfg = model.config
    rng = np.random.default_rng(seed)
    p_obs = rng.normal(size=(batch_size, cfg.t_obs, cfg.dim))
    p_gt = rng.normal(size=(batch_size, cfg.l_pred, cfg.dim))
    ks = rng.integers(1, cfg.k_steps + 1, size=batch_size)
    eps = rng.standard_normal((batch_size, cfg.l_pred, cfg.dim))

    tape = nm.Tape()
    loss_t, leaves = batch_noise_loss(model, tape, p_obs, p_gt, ks, eps, sched)
    grads = tape.gradients(loss_t, leaves)

    def loss_value() -> float:
        t, _ = batch_noise_loss(model, None, p_obs, p_gt, ks, eps, sched)
        return float(t.data)

    names = sorted(model.params)
    results = []
    for _ in range(n_probes):
        name = names[rng.integers(0, len(names))]
        arr = model.params[name]
        idx = int(rng.integers(0, arr.size))
        numeric = _difference_at(loss_value, arr, idx, step)
        analytic = float(grads[name].flat[idx])
        results.append(ProbeResult(name, idx, analytic, numeric,
                                   relative_error(analytic, numeric)))
    return results


@dataclass(frozen=True)
class GradCheckReport:
    threshold: float
    op_errors: dict[str, float]
    probe_results: dict[str, list[ProbeResult]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if any(e >= self.threshold for e in self.op_errors.values()):
            return False
        return all(p.rel_err < self.threshold
                   for probes in self.probe_results.values() for p in probes)

    def lines(self) -> list[str]:
        out = [f"threshold: rel err < {self.threshold:g}"]
        for name in sorted(self.op_errors):
            err = self.op_errors[name]
            mark = "ok" if err < self.threshold else "FAIL"
            out.append(f"op {name:<16} worst rel err {err:.3e}  {mark}")
        for variant in sorted(self.probe_results):
            for p in self.probe_results[variant]:
                mark = "ok" if p.rel_err < self.threshold else "FAIL"
                out.append(f"{variant:<9} {p.param}[{p.index}] "
                           f"analytic {p.analytic:+.6e} numeric {p.numeric:+.6e} "
                           f"rel err {p.rel_err:.3e}  {mark}")
        out.append("PASS" if self.passed else "FAIL")
        return out


def run_suite(seed: int = 0, n_probes: int = 8,
              threshold: float = DEFAULT_THRESHOLD) -> GradCheckReport:
    """Op-level and end-to-end checks on both variants at the toy config."""
    check_count(n_probes, 1, "n_probes", ConfigError)
    op_errors = check_ops(seed=seed)
    sched = build_schedule(TOY_CONFIG["k_steps"], 0.001, 0.333)
    probe_results = {}
    for variant in ("series", "parallel"):
        cfg = DenoiserConfig(variant=variant, **TOY_CONFIG)
        model = init_denoiser(cfg, seed + 1)
        probe_results[variant] = probe_loss_gradients(
            model, sched, seed + 2, n_probes=n_probes)
    return GradCheckReport(threshold=threshold, op_errors=op_errors,
                           probe_results=probe_results)
