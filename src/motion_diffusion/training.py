"""Training loop, Adam optimizer, and checkpoint persistence.

One seeded root stream drives every random choice (batch indices, the
per-item diffusion step k, the per-item noise draw), so a fixed seed
reproduces the loss trajectory bit for bit, and a checkpoint reload
continues it bit for bit.

Checkpoint files use CKPT2, the container of MSEQ2 motion files
(`motion_data.write_header_file` and `read_header_file`): one JSON manifest
line (version, configs, iteration, RNG state), the tensors as little-endian
float64 in the order `_checkpoint_layout` derives from the denoiser config,
then the CRC32 of every byte before it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import numerics as nm
from .denoiser import (DenoiserConfig, DenoiserModel, _eval_groups, init_denoiser,
                       param_shapes)
from .diffusion import NoiseSchedule, batch_noise_loss, build_schedule
from .errors import (ConfigError, ContractError, DimensionError, IntegrityError,
                     NumericsError, ParseError, TrainingDivergedError, check_count)
from .motion_data import Normalizer, PredictionTask, read_header_file, write_header_file

CKPT_VERSION = 2
DIVERGE_LIMIT = 1e6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    iterations: int = 2000
    lr: float = 1e-4
    seed: int = 0
    checkpoint_every: int = 500
    grad_clip: float = 0.0  # global-norm clip; 0 disables

    def __post_init__(self):
        for name in ("batch_size", "iterations", "checkpoint_every"):
            check_count(getattr(self, name), 1, name, ConfigError)
        if not 0 < self.lr < math.inf:  # NaN fails too
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not self.grad_clip >= 0:  # NaN would turn clipping off
            raise ConfigError(f"grad_clip must be >= 0, got {self.grad_clip}")


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              m: dict[str, np.ndarray], v: dict[str, np.ndarray],
              t: int, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update, in place; t is the 1-based step count.  An update
    that leaves a parameter or its second moment non-finite, as any non-finite
    gradient does, raises TrainingDivergedError naming the parameter; with
    clipping on, so does a non-finite global gradient norm, which would
    otherwise scale every gradient to 0."""
    if set(params) != set(grads) or set(params) != set(m) or set(params) != set(v):
        raise ContractError("params, grads and moments must share one name set")
    check_count(t, 1, "step count t", ContractError)
    if cfg.grad_clip > 0:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if not np.isfinite(total):
            raise TrainingDivergedError(f"global gradient norm is {total}", t)
        if total > cfg.grad_clip:
            grads = {k: g * (cfg.grad_clip / total) for k, g in grads.items()}
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, g in grads.items():
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        params[name] = params[name] - cfg.lr * (m[name] / c1) / (
            np.sqrt(v[name] / c2) + ADAM_EPS)
        # a finite second moment bounds the first, so a checkpoint of these is finite
        if not (np.all(np.isfinite(params[name])) and np.all(np.isfinite(v[name]))):
            raise TrainingDivergedError(f"update of {name!r} is non-finite", t)


@dataclass(eq=False)
class Checkpoint:
    """A full training snapshot; arrays are private copies."""

    denoiser_config: DenoiserConfig
    schedule: NoiseSchedule
    normalizer: Normalizer
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    iteration: int
    rng_state: dict

    def build_model(self) -> DenoiserModel:
        return DenoiserModel(config=self.denoiser_config,
                             params={k: v.copy() for k, v in self.params.items()})


def initial_checkpoint(den_cfg: DenoiserConfig, sched: NoiseSchedule,
                       normalizer: Normalizer, seed: int) -> Checkpoint:
    """Iteration 0: `init_denoiser` weights, zero moments, root stream (seed, 1)."""
    params = init_denoiser(den_cfg, seed).params
    bits = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return Checkpoint(
        denoiser_config=den_cfg, schedule=sched, normalizer=normalizer, params=params,
        adam_m={k: np.zeros_like(a) for k, a in params.items()},
        adam_v={k: np.zeros_like(a) for k, a in params.items()},
        iteration=0, rng_state=bits.state)


def _snapshot(start: Checkpoint, model: DenoiserModel, m: dict, v: dict,
              iteration: int, rng: np.random.Generator) -> Checkpoint:
    return replace(
        start, params={k: a.copy() for k, a in model.params.items()},
        adam_m={k: a.copy() for k, a in m.items()},
        adam_v={k: a.copy() for k, a in v.items()},
        iteration=iteration,
        rng_state=json.loads(json.dumps(rng.bit_generator.state)))


def check_start(start: Checkpoint, den_cfg: DenoiserConfig, tr_cfg: TrainConfig,
                sched: NoiseSchedule, normalizer: Normalizer | None = None) -> None:
    """ConfigError unless a run of these configs can continue from `start`.

    Its denoiser config and schedule must equal the requested ones, its
    normalizer must equal `normalizer` if one is given, and its iteration
    must not lie past the target.
    """
    if start.denoiser_config != den_cfg:
        raise ConfigError("checkpoint denoiser config does not match")
    if start.schedule != sched:
        raise ConfigError(f"checkpoint schedule {start.schedule} != requested {sched}")
    if normalizer is not None and not (np.array_equal(normalizer.mean, start.normalizer.mean)
                                       and np.array_equal(normalizer.std, start.normalizer.std)):
        raise ConfigError("normalizer differs from the checkpoint's normalizer")
    if start.iteration > tr_cfg.iterations:
        raise ConfigError(
            f"checkpoint is at iteration {start.iteration}, past the target "
            f"of {tr_cfg.iterations} iterations")


@dataclass(frozen=True)
class TrainResult:
    model: DenoiserModel
    checkpoint: Checkpoint
    losses: list[float]  # one entry per iteration run in this call


def train(tasks: list[PredictionTask], den_cfg: DenoiserConfig,
          tr_cfg: TrainConfig, sched: NoiseSchedule,
          normalizer: Normalizer | None = None,
          start: Checkpoint | None = None) -> TrainResult:
    """Run the noise-prediction training loop until tr_cfg.iterations.

    Every iteration draws batch indices, per-item steps k in 1..K and
    fresh noise from the root stream, then applies one Adam update.  The
    batch runs as consecutive groups of chains (`denoiser._eval_groups`,
    taped, one observation per chain: one chain per group at CLI defaults,
    a whole TOY batch in one), each on its own tape: a group's loss is its
    share of the batch mean, its backward runs at once and its tape dies
    before the next group's forward, so the step's activations never
    exceed one group's.  The whole call runs in one `numerics.buffer_pool`,
    so each group's activations and pullback temporaries reuse the memory
    of the group before.  The gradients are summed in group order, in
    place into a copy of the first group's.  A batch that fits one group
    gives the bits of one whole-batch step; more groups change the
    parameter gradients' row sums by a few ulps.
    Every run resumes from a Checkpoint: `start`, or for a fresh run the
    `initial_checkpoint` of tr_cfg.seed and `normalizer` (the identity if
    omitted).  The continuation is bit identical to an uninterrupted run
    with the same configs.  The run keeps the checkpoint's configs and
    normalizer; `den_cfg` and `sched` must match them, and `normalizer`
    must be omitted or equal to it.  An iteration whose loss passes
    DIVERGE_LIMIT, or whose op or Adam update fails its finiteness check,
    raises one TrainingDivergedError that names it and carries the last
    good checkpoint, at worst `start`; the diverged dicts are thrown away.
    """
    if not tasks:
        raise ContractError("training needs at least one task")
    if sched.k_steps != den_cfg.k_steps:
        raise ConfigError(
            f"schedule K={sched.k_steps} != denoiser K={den_cfg.k_steps}")
    for task in tasks:
        if task.p_obs.shape != (den_cfg.t_obs, den_cfg.dim):
            raise DimensionError(
                f"task observation shape {task.p_obs.shape} != "
                f"config {(den_cfg.t_obs, den_cfg.dim)}")
    obs = np.stack([t.p_obs for t in tasks])
    gt = np.stack([t.p_gt for t in tasks])
    if gt.shape[1:] != (den_cfg.l_pred, den_cfg.dim):
        raise ConfigError(
            f"task future shape {gt.shape[1:]} != config {(den_cfg.l_pred, den_cfg.dim)}")

    if start is None:
        start = initial_checkpoint(den_cfg, sched,
                                   normalizer or Normalizer.identity(den_cfg.dim),
                                   tr_cfg.seed)
    check_start(start, den_cfg, tr_cfg, sched, normalizer)
    model = start.build_model()
    m = {k: a.copy() for k, a in start.adam_m.items()}
    v = {k: a.copy() for k, a in start.adam_v.items()}
    rng = np.random.default_rng()
    rng.bit_generator.state = start.rng_state

    last_good = start
    losses: list[float] = []
    n, b = len(tasks), tr_cfg.batch_size
    groups = [chains for _, chains in _eval_groups(den_cfg, b, b, taped=True)]
    with nm.buffer_pool():
        for it in range(start.iteration + 1, tr_cfg.iterations + 1):
            idx = rng.integers(0, n, size=b)
            ks = rng.integers(1, sched.k_steps + 1, size=b)
            eps = rng.standard_normal((b, den_cfg.l_pred, den_cfg.dim))
            loss_val, grads = 0.0, None
            try:
                for chains in groups:
                    tape = nm.Tape()
                    loss_t, leaves = batch_noise_loss(model, tape, obs[idx[chains]],
                                                      gt[idx[chains]], ks[chains], eps[chains],
                                                      sched, eps.size)
                    # each group loss is op-checked finite and >= 0: past the limit, it diverged
                    loss_val += float(loss_t.data)
                    if loss_val > DIVERGE_LIMIT:
                        raise TrainingDivergedError(f"loss {loss_val} exceeded limits", it)
                    part = tape.gradients(loss_t, leaves)
                    if grads is None:  # a private sum: `part` may hold pool slots
                        grads = {k: g.copy() for k, g in part.items()}
                    else:
                        for k, g in part.items():
                            grads[k] += g
                    # the next group's forward must not run beside this group's tape
                    del tape, loss_t, leaves, part
                adam_step(model.params, grads, m, v, it, tr_cfg)
            except (NumericsError, TrainingDivergedError) as exc:
                raise TrainingDivergedError(getattr(exc, "message", str(exc)), it,
                                            checkpoint=last_good) from exc
            losses.append(loss_val)
            if it % tr_cfg.checkpoint_every == 0:
                last_good = _snapshot(start, model, m, v, it, rng)

    final = _snapshot(start, model, m, v, tr_cfg.iterations, rng)
    return TrainResult(model=model, checkpoint=final, losses=losses)


# ---------------------------------------------------------------------------
# CKPT2 persistence
# ---------------------------------------------------------------------------


def _checkpoint_layout(cfg: DenoiserConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The (key, shape) of every checkpoint tensor, in file order, from the config."""
    shapes = param_shapes(cfg)
    return [(f"{group}.{name}", shape) for group in ("param", "adam_m", "adam_v")
            for name, shape in shapes.items()] + [("norm.mean", (cfg.dim,)),
                                                  ("norm.std", (cfg.dim,))]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write a CKPT2 file; a tensor missing or not of its layout shape is a
    ContractError naming it."""
    groups = {"param": ckpt.params, "adam_m": ckpt.adam_m, "adam_v": ckpt.adam_v,
              "norm": {"mean": ckpt.normalizer.mean, "std": ckpt.normalizer.std}}
    chunks = []
    for key, shape in _checkpoint_layout(ckpt.denoiser_config):
        group, name = key.split(".", 1)
        arr = groups[group].get(name)
        if arr is None or np.shape(arr) != shape:
            found = "missing" if arr is None else f"of shape {np.shape(arr)}"
            raise ContractError(
                f"checkpoint tensor {key!r} is {found}, not of shape {shape}")
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    manifest = {
        "version": CKPT_VERSION,
        "denoiser_config": asdict(ckpt.denoiser_config),
        "schedule": {"k_steps": ckpt.schedule.k_steps,
                     "beta_min": ckpt.schedule.beta_min,
                     "beta_max": ckpt.schedule.beta_max},
        "iteration": ckpt.iteration,
        "rng_state": ckpt.rng_state,
    }
    write_header_file(path, manifest, chunks)


def load_checkpoint(path) -> Checkpoint:
    """Read a CKPT2 file; any malformed manifest or payload, a manifest line that
    `read_header_file` rejects included, is an IntegrityError naming the file."""
    try:
        return _decode_checkpoint(*read_header_file(path, "checkpoint manifest",
                                                    CKPT_VERSION)[:2])
    except ParseError as exc:  # its message names the file already
        raise IntegrityError(str(exc)) from exc
    except IntegrityError as exc:
        raise IntegrityError(f"{path}: {exc}") from exc


def _decode_checkpoint(manifest: dict, payload: bytes) -> Checkpoint:
    try:
        den_cfg = DenoiserConfig(**manifest["denoiser_config"])
        sched_k = manifest["schedule"]["k_steps"]
        iteration = check_count(manifest["iteration"], 0, "iteration", ValueError)
        rng_state = manifest["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"checkpoint manifest is malformed: {exc!r}") from exc
    if sched_k != den_cfg.k_steps:  # built below, once the payload length bounds K
        raise IntegrityError(f"checkpoint schedule K={sched_k!r} != "
                             f"denoiser k_steps={den_cfg.k_steps}")
    try:
        np.random.PCG64().state = rng_state
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise IntegrityError(f"checkpoint rng_state is not a PCG64 state: {exc!r}") from exc
    layout = _checkpoint_layout(den_cfg)
    expected = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(payload) != expected:  # before any extent reaches an allocation
        raise IntegrityError(f"checkpoint payload has {len(payload)} bytes, "
                             f"its config's layout {expected}")
    flat = np.frombuffer(payload, dtype="<f8")
    tensors, start = {}, 0
    for key, shape in layout:
        size = math.prod(shape)
        tensors[key] = flat[start:start + size].reshape(shape).copy()
        start += size
        if not np.all(np.isfinite(tensors[key])):
            what = "normalizer tensor" if key.startswith("norm.") else "tensor"
            raise IntegrityError(f"{what} {key!r} contains non-finite values")
    if not np.all(tensors["norm.std"] > 0):
        raise IntegrityError("normalizer needs a positive std")
    try:
        sched = build_schedule(**manifest["schedule"])
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"checkpoint schedule is malformed: {exc!r}") from exc
    names = param_shapes(den_cfg)
    params, m_mom, v_mom = ({name: tensors[f"{group}.{name}"] for name in names}
                            for group in ("param", "adam_m", "adam_v"))
    return Checkpoint(denoiser_config=den_cfg, schedule=sched,
                      normalizer=Normalizer(tensors["norm.mean"], tensors["norm.std"]),
                      params=params, adam_m=m_mom, adam_v=v_mom, iteration=iteration,
                      rng_state=rng_state)
