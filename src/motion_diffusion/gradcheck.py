"""Finite-difference verification of the reverse-mode gradients.

Two layers of checking: a per-op suite that differentiates every
primitive against central differences at random points, and an
end-to-end suite that probes the full conditional-loss gradient for
both denoiser variants at a toy configuration.

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


def _check_inputs(build_loss, arrays: dict[str, np.ndarray],
                  step: float) -> float:
    """Worst relative error across all elements of all differentiated inputs.

    build_loss(tensors) must construct a scalar-loss Tensor from the
    name -> Tensor map; arrays holds the input values.
    """
    tape = nm.Tape()
    leaves = {k: tape.param(v) for k, v in arrays.items()}
    loss = build_loss(leaves)
    grads = tape.gradients(loss, leaves)
    worst = 0.0
    for name, x in arrays.items():
        def value_at(perturbed, _name=name):
            vals = dict(arrays)
            vals[_name] = perturbed
            return float(build_loss({k: nm.constant(v) for k, v in vals.items()}).data)

        fd = central_difference(value_at, x.copy(), step)
        for a, n in zip(grads[name].ravel(), fd.ravel()):
            worst = max(worst, relative_error(float(a), float(n)))
    return worst


def check_ops(seed: int = 0, points: int = 10,
              step: float = DEFAULT_STEP) -> dict[str, float]:
    """Finite-difference every primitive op at `points` random inputs.

    Returns the worst relative error per op name.  Losses are built as
    weighted sums with fixed random weights so gradients stay dense.
    """
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    def record(name: str, build_loss, arrays: dict[str, np.ndarray]):
        err = _check_inputs(build_loss, arrays, step)
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(points):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        col = rng.normal(size=(4,))
        w = rng.normal(size=(3, 4))
        record("add", lambda t: nm.sum_all(nm.mul(nm.add(t["a"], t["b"]), w)),
               {"a": a, "b": b})
        record("add_broadcast",
               lambda t: nm.sum_all(nm.mul(nm.add(t["a"], t["c"]), w)),
               {"a": a, "c": col})
        record("sub", lambda t: nm.sum_all(nm.mul(nm.sub(t["a"], t["b"]), w)),
               {"a": a, "b": b})
        record("mul", lambda t: nm.sum_all(nm.mul(nm.mul(t["a"], t["b"]), w)),
               {"a": a, "b": b})
        record("scale", lambda t: nm.sum_all(nm.mul(nm.scale(t["a"], 1.7), w)),
               {"a": a})

        m1 = rng.normal(size=(3, 3))
        m2 = rng.normal(size=(3, 3))
        wm = rng.normal(size=(3, 3))
        record("matmul", lambda t: nm.sum_all(nm.mul(nm.matmul(t["a"], t["b"]), wm)),
               {"a": m1, "b": m2})
        bm1 = rng.normal(size=(2, 3, 4))
        bm2 = rng.normal(size=(4, 2))
        wb = rng.normal(size=(2, 3, 2))
        record("matmul_batched",
               lambda t: nm.sum_all(nm.mul(nm.matmul(t["a"], t["b"]), wb)),
               {"a": bm1, "b": bm2})

        lx = rng.normal(size=(2, 3, 4))
        lw = rng.normal(size=(4, 5))
        lb = rng.normal(size=(5,))
        wl = rng.normal(size=(2, 3, 5))
        record("linear",
               lambda t: nm.sum_all(nm.mul(nm.linear(t["x"], t["w"], t["b"]), wl)),
               {"x": lx, "w": lw, "b": lb})
        record("linear",
               lambda t: nm.sum_all(nm.mul(nm.linear(t["x"], t["w"]), wl)),
               {"x": lx, "w": lw})
        # two heads of width 2 over 3 tokens, two leading batch axes as in
        # the spatial layer
        qkv = {name: rng.normal(size=(2, 2, 3, 4)) for name in ("q", "k", "v")}
        wa = rng.normal(size=(2, 2, 3, 4))
        record("attention",
               lambda t: nm.sum_all(nm.mul(nm.attention(t["q"], t["k"], t["v"], 2), wa)),
               qkv)
        # two queries over three keys, as the temporal layer's future rows
        cross = {"q": rng.normal(size=(2, 2, 4)), "k": rng.normal(size=(2, 3, 4)),
                 "v": rng.normal(size=(2, 3, 4))}
        wx = rng.normal(size=(2, 2, 4))
        record("attention_cross",
               lambda t: nm.sum_all(nm.mul(nm.attention(t["q"], t["k"], t["v"], 2), wx)),
               cross)
        # the temporal layer's layout: tokens on axis -3, two queries over three keys
        frames = {"q": rng.normal(size=(2, 2, 3, 4)), "k": rng.normal(size=(2, 3, 3, 4)),
                  "v": rng.normal(size=(2, 3, 3, 4))}
        wf = rng.normal(size=(2, 2, 3, 4))
        record("attention_axis3", lambda t: nm.sum_all(
            nm.mul(nm.attention(t["q"], t["k"], t["v"], 2, axis=-3), wf)), frames)

        record("relu", lambda t: nm.sum_all(nm.mul(nm.relu(t["a"]), w)),
               {"a": a + 0.05})  # nudge off the kink where FD is invalid
        record("softmax_rows",
               lambda t: nm.sum_all(nm.mul(nm.softmax_rows(t["a"]), w)),
               {"a": a})

        gain = rng.normal(size=(4,)) + 1.0
        bias = rng.normal(size=(4,))
        record("layer_norm",
               lambda t: nm.sum_all(nm.mul(nm.layer_norm(t["a"], t["g"], t["b"]), w)),
               {"a": a, "g": gain, "b": bias})

        w12 = rng.normal(size=(12,))
        record("reshape",
               lambda t: nm.sum_all(nm.mul(nm.reshape(t["a"], (12,)), w12)),
               {"a": a})
        wt = rng.normal(size=(4, 3))
        record("transpose",
               lambda t: nm.sum_all(nm.mul(nm.transpose(t["a"], (1, 0)), wt)),
               {"a": a})
        wc = rng.normal(size=(6, 4))
        record("concat",
               lambda t: nm.sum_all(nm.mul(nm.concat([t["a"], t["b"]], axis=0), wc)),
               {"a": a, "b": b})
        wn = rng.normal(size=(3, 2))
        record("narrow",
               lambda t: nm.sum_all(nm.mul(nm.narrow(t["a"], 1, 1, 2), wn)),
               {"a": a})
        idx = rng.integers(0, 3, size=5)
        wr = rng.normal(size=(5, 4))
        record("take_rows",
               lambda t: nm.sum_all(nm.mul(nm.take_rows(t["a"], idx), wr)),
               {"a": a})
        # a 2-D index, as the step embedding is gathered
        idx2 = rng.integers(0, 3, size=(2, 3))
        wr2 = rng.normal(size=(2, 3, 4))
        record("take_rows_2d",
               lambda t: nm.sum_all(nm.mul(nm.take_rows(t["a"], idx2), wr2)),
               {"a": a})
        record("sum_all", lambda t: nm.sum_all(t["a"]), {"a": a})
        record("mean_all", lambda t: nm.mean_all(t["a"]), {"a": a})
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
