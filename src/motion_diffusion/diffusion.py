"""Noise schedule, forward/reverse diffusion, conditional loss, samplers.

The forward process corrupts a clean future motion x0 into x^k in closed
form; the reverse process walks k = K..1 with a learned noise predictor
conditioned on the observed motion.  One trained model serves both
sampling modes through one reverse loop over a noise array: stochastic
(seeded Gaussian start and step noise) and deterministic (all zeros).

All sampling operates in normalized pose space; denormalization is the
caller's step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import (ConfigError, ContractError, DimensionError, NumericsError,
                     SamplingDivergedError, check_count)
from .metrics import SampleSet


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise-level tables for K diffusion steps.

    beta holds beta_k for k = 1..K (zero-based storage); alpha holds the
    cumulative products alpha_k for k = 0..K with alpha_0 = 1, so the
    step-1 reverse variance is exactly zero.  Two schedules are equal
    when (k_steps, beta_min, beta_max) are, since those fix the tables.
    """

    k_steps: int
    beta_min: float
    beta_max: float
    betas: np.ndarray = field(repr=False, compare=False)
    alphas: np.ndarray = field(repr=False, compare=False)

    def beta(self, k: int) -> float:
        self._check_step(k)
        return float(self.betas[k - 1])

    def alpha_hat(self, k: int) -> float:
        self._check_step(k)
        return 1.0 - float(self.betas[k - 1])

    def alpha(self, k: int) -> float:
        if not 0 <= k <= self.k_steps:
            raise ContractError(f"alpha index k={k} outside [0, {self.k_steps}]")
        return float(self.alphas[k])

    def sigma2(self, k: int) -> float:
        self._check_step(k)
        return (1.0 - self.alphas[k - 1]) / (1.0 - self.alphas[k]) * float(self.betas[k - 1])

    def sigma(self, k: int) -> float:
        return float(np.sqrt(self.sigma2(k)))

    def _check_step(self, k: int) -> None:
        if not 1 <= k <= self.k_steps:
            raise ContractError(f"diffusion step k={k} outside [1, {self.k_steps}]")


def build_schedule(k_steps: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linear beta schedule: beta_1 = beta_min, beta_K = beta_max exactly."""
    check_count(k_steps, 1, "k_steps", ConfigError)
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigError(
            f"need 0 < beta_min <= beta_max < 1, got [{beta_min}, {beta_max}]")
    if k_steps == 1:
        betas = np.array([beta_min])
    else:
        betas = beta_min + np.arange(k_steps) / (k_steps - 1) * (beta_max - beta_min)
    alphas = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    sched = NoiseSchedule(k_steps, beta_min, beta_max, betas, alphas)
    _validate_schedule(sched)
    return sched


def _validate_schedule(s: NoiseSchedule) -> None:
    if np.any(s.betas <= 0.0) or np.any(s.betas >= 1.0):
        raise ConfigError("beta values must lie strictly inside (0, 1)")
    if np.any(np.diff(s.betas) < 0.0):
        raise ConfigError("beta values must be non-decreasing")
    if np.any(np.diff(s.alphas) >= 0.0):
        raise ConfigError("alpha must be strictly decreasing")
    if s.sigma2(1) != 0.0:
        raise ConfigError("sigma^2(1) must be exactly zero")


# ---------------------------------------------------------------------------
# forward / reverse processes
# ---------------------------------------------------------------------------


def _check_same_shape(name_a: str, a: np.ndarray, name_b: str, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{name_a} shape {a.shape} != {name_b} shape {b.shape}")


def forward_noise(x0: np.ndarray, k, eps: np.ndarray,
                  sched: NoiseSchedule) -> np.ndarray:
    """Closed-form corruption: sqrt(alpha_k) x0 + sqrt(1 - alpha_k) eps.

    k is one step for all of x0, or a (B,) array of one step per batch
    item for x0 of shape (B, ...).
    """
    ks = np.asarray(k, dtype=np.intp)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if ks.ndim > 1 or (ks.ndim == 1 and ks.shape != x0.shape[:1]):
        raise ContractError(f"k must be one diffusion step or one per batch item, "
                            f"got shape {ks.shape} for x0 of shape {x0.shape}")
    for step in ks.flat:
        sched._check_step(int(step))
    _check_same_shape("x0", x0, "eps", eps)
    a = sched.alphas[ks].reshape(ks.shape + (1,) * (x0.ndim - ks.ndim))
    return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps


def mu_theta(x_k: np.ndarray, k: int, eps_hat: np.ndarray,
             sched: NoiseSchedule) -> np.ndarray:
    """Reverse-process mean given the predicted noise at step k."""
    sched._check_step(k)
    x_k = np.asarray(x_k, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    _check_same_shape("x_k", x_k, "eps_hat", eps_hat)
    coef = sched.beta(k) / np.sqrt(1.0 - sched.alpha(k))
    return (x_k - coef * eps_hat) / np.sqrt(sched.alpha_hat(k))


def reverse_step(x_k: np.ndarray, k: int, eps_hat: np.ndarray,
                 z: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """One reverse transition: mu_theta plus sigma(k) z; z = 0 is deterministic.

    Shape-agnostic: x_k, eps_hat and z may be one (L, D) state or a
    batch (N, L, D).  At k = 1 the variance is exactly zero, so z is
    ignored entirely (avoids any 0 * non-finite hazard).
    """
    mean = mu_theta(x_k, k, eps_hat, sched)
    z = np.asarray(z, dtype=np.float64)
    _check_same_shape("x_k", x_k, "z", z)
    if k == 1:
        return mean
    return mean + sched.sigma(k) * z


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------


def batch_noise_loss(model, tape: nm.Tape | None, p_obs: np.ndarray,
                     p_gt: np.ndarray, ks: np.ndarray, eps: np.ndarray,
                     sched: NoiseSchedule, count: int | None = None):
    """Mean-squared noise-prediction loss over a batch.

    p_obs is (B, T, D), p_gt and eps are (B, L, D), ks is (B,) with each
    entry in 1..K.  Returns (loss_tensor, leaves); leaves is the name ->
    Tensor map for the model parameters on `tape` (constants if tape is
    None).  The loss is mean-reduced over every batch entry so the
    learning-rate default transfers across pose dimensions.  A batch run
    in groups passes its whole entry count as `count`: each group's loss
    is then its share of the batch mean, and its gradients sum to the
    batch's.
    """
    x_k = forward_noise(p_gt, ks, eps, sched)
    leaves = model.bind(tape)
    eps_hat = model.forward_batch(leaves, p_obs, x_k, ks)
    resid = nm.sub(nm.constant(eps), eps_hat)
    return nm.mean_all(nm.mul(resid, resid), count), leaves


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _reverse_loop(model, p_obs: np.ndarray, noise: np.ndarray,
                  sched: NoiseSchedule) -> np.ndarray:
    """Run k = K..1 on N chains from their noise array (N, K, L, D).

    Slice 0 of a chain's noise is its start state x_K; slice j >= 1 is
    z_{K+1-j}, the noise added at step K+1-j.  Step 1 adds no noise.  All
    K steps share one `numerics.buffer_pool`, so each step's denoiser
    calls reuse the memory of the step before.
    """
    n, k_steps = noise.shape[0], sched.k_steps
    x = noise[:, 0]
    obs = np.asarray(p_obs, dtype=np.float64)[None]   # one observation for all N chains
    ks = np.empty(n, dtype=np.intp)
    with nm.buffer_pool():
        for k in range(k_steps, 0, -1):
            ks[:] = k
            try:
                eps_hat = model.eval_batch(obs, x, ks)
            except NumericsError as exc:
                raise SamplingDivergedError(f"denoiser failed: {exc}", step=k) from exc
            # step 1 ignores z; (K+1-k) % K hands it slice 0 for the shape check
            x = reverse_step(x, k, eps_hat, noise[:, (k_steps + 1 - k) % k_steps], sched)
            # also catches a non-finite eps_hat from a model that bypasses the tape's ops
            if not np.all(np.isfinite(x)):
                raise SamplingDivergedError("reverse state is non-finite", step=k)
    return x


def sample_stochastic(model, p_obs: np.ndarray, n_samples: int, seed: int,
                      sched: NoiseSchedule) -> SampleSet:
    """Draw n_samples future motions for one observation.

    Sample i's noise (x_K, then z_K..z_2) is one standard_normal((K, L, D))
    draw from the stream of (seed, i): sample i does not depend on
    n_samples, and the same seed gives the same samples, bit for bit.
    """
    check_count(n_samples, 1, "n_samples", ContractError)
    shape = (sched.k_steps,) + model.pred_shape
    noise = np.stack([
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        .standard_normal(shape) for i in range(n_samples)])
    return SampleSet(samples=_reverse_loop(model, p_obs, noise, sched))


def sample_deterministic(model, p_obs: np.ndarray,
                         sched: NoiseSchedule) -> np.ndarray:
    """One fixed prediction: the stochastic reverse loop with zero noise."""
    noise = np.zeros((1, sched.k_steps) + model.pred_shape)
    return _reverse_loop(model, p_obs, noise, sched)[0]
