"""Transformer noise predictors over the observed + noised motion grid.

Each chain sees its observation (T frames) followed by its noised future
(L frames), every scalar pose parameter lifted to a model_dim feature,
plus three additive encodings (temporal sinusoid, spatial sinusoid,
learnable step vector).  The series variant runs spatial attention then
temporal attention; the parallel variant runs both branches on the
encoded input and fuses their two scalar maps with a learned
per-position 2 -> 1 kernel.

One call predicts noise for B chains from M observations, M dividing B:
chain j reads observation j // (B / M), and the chains that share an
observation share its step k.  Each observation's frames are encoded
once per call, however many of its chains read them.  The call's frames
form one (F, D, C) frame list, F = M*T + B*L, grouped by observation:
observation i's T frames, then the L frames of each of its chains in
turn.  Training passes one observation per chain, where the list is each
chain's T + L frames in turn; the sampler passes one observation for all
N chains.

Attention is bidirectional everywhere: no causal mask.  Both layers run
one encoder layer, told which axis holds the tokens, and every other
axis but the channels is a batch axis.  Spatial attention attends over
the D scalar pose parameters (axis -2) of each frame in place.  Temporal
attention runs its norm and its key and value projections on the frame
list, gathers each chain's (S, D, C) keys and values with one (B, S)
frame index (its observation's T frames, then its own L frames), and
attends over the S frames (axis -3).  Each encoder layer is two tape
ops, `numerics.attention_block` and `numerics.feedforward`, so a training
step records 16 ops (series) or 20 (parallel).

Noise is predicted for the L future frames only.  The T observed frames
are keys and values of temporal attention and nothing else: its queries,
residual, output projection and feedforward, and the readout, run on the
(B, L, D, C) future rows.  The series variant runs its spatial layer on
the whole frame list, because the temporal keys and values of the
observed frames are read from it; the parallel variant runs its spatial
branch on the future frames alone.

Batches run in cache-sized groups (`_eval_groups`): consecutive calls
whose (rows, model_dim) activation of future rows stays within
`GROUP_BYTES`, G chains per call.  When an observation's r = B / M chains
fit, a call holds G // r whole observations; otherwise each observation's
chains go in calls of at most G, with that observation alone.  Either way
each observation is encoded once per call.  A chain's row depends neither
on its batch nor on N, so `eval_batch`'s groups give the bytes of one
whole-batch call.  `training.train` runs each group on its own tape and
sums the groups' gradients: every activation gradient keeps its bits, and
only the sums over rows (weight, bias, norm, `in_w` and `step_emb`
gradients) change association, by a few ulps.  A batch that fits one
group keeps every bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, DimensionError, check_count

VARIANTS = ("series", "parallel")

FF_RATIO = 4          # feedforward hidden width / model_dim
STEP_EMB_STD = 0.02   # init scale of the step-embedding table
OUT_HEAD_SCALE = 0.05 # shrink output heads so initial predictions sit near zero

# The largest (rows, model_dim) float64 activation of future rows that one
# denoiser call builds, in inference and in training: 1.25 MiB, 8 chains
# (2,400 rows) at CLI defaults.  A whole N = 50 call there streams 7.8 MB
# per activation and 31 MB per feedforward hidden from DRAM; a group's
# arrays stay near L2 size.  One N = 50 task at CLI defaults, under the
# CLI's allocator settings, took 4.9-5.2 s unsplit, 3.9-4.4 s at 2,400 rows
# per call, 4.2-4.7 s at 600 and 1,200 rows, and 4.5-5.9 s at 4,800 and
# 9,600 rows.  Through the library with no allocator settings, where the
# reverse loop's buffer pool keeps a group's temporaries from faulting in
# fresh pages, it took 3.2-4.0 s at 2,400 rows per call (4.1-5.1 s without
# the pool).  A perfbench-shaped `train` call (2 steps of batch 64, one
# process per G, no allocator settings) ran at 47-70 items/s at G = 2, 4,
# 8 and 16 chains, 41-54 at G = 32 and 38-46 at G = 64, the whole batch
# (Xeon with 2 MiB of L2 per core, OpenBLAS at 1 thread).
GROUP_BYTES = 5 << 18


@dataclass(frozen=True)
class DenoiserConfig:
    variant: str
    model_dim: int
    n_heads: int
    t_obs: int
    l_pred: int
    dim: int
    k_steps: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("model_dim", "n_heads", "t_obs", "l_pred", "dim", "k_steps"):
            check_count(getattr(self, name), 1, name, ConfigError)
        if self.model_dim % self.n_heads:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}")
        if self.model_dim % 2:
            raise ConfigError("model_dim must be even for sinusoidal encodings")


def _layer_shapes(prefix: str, c: int) -> dict[str, tuple]:
    h = FF_RATIO * c
    return {
        f"{prefix}.ln1_g": (c,), f"{prefix}.ln1_b": (c,),
        f"{prefix}.wq": (c, c), f"{prefix}.bq": (c,),
        f"{prefix}.wk": (c, c),
        f"{prefix}.wv": (c, c), f"{prefix}.bv": (c,),
        f"{prefix}.wo": (c, c), f"{prefix}.bo": (c,),
        f"{prefix}.ln2_g": (c,), f"{prefix}.ln2_b": (c,),
        f"{prefix}.ff1_w": (c, h), f"{prefix}.ff1_b": (h,),
        f"{prefix}.ff2_w": (h, c), f"{prefix}.ff2_b": (c,),
    }


def param_shapes(config: DenoiserConfig) -> dict[str, tuple]:
    """The closed, ordered parameter name -> shape map for a config."""
    c = config.model_dim
    shapes: dict[str, tuple] = {
        "in_w": (c,), "in_b": (c,),
        "step_emb": (config.k_steps + 1, c),
    }
    shapes.update(_layer_shapes("spat", c))
    shapes.update(_layer_shapes("temp", c))
    if config.variant == "series":
        shapes.update({"out_w": (c, 1), "out_b": (1,)})
    else:
        shapes.update({"out_s_w": (c, 1), "out_s_b": (1,),
                       "out_t_w": (c, 1), "out_t_b": (1,),
                       "fuse_w": (2, 1), "fuse_b": (1,)})
    return shapes


def _init_array(name: str, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    if name == "step_emb":
        return rng.normal(0.0, STEP_EMB_STD, shape)
    if name.endswith("_g"):
        return np.ones(shape)
    if name.endswith(("_b", ".bq", ".bv", ".bo")):
        return np.zeros(shape)
    # weight matrices and the scalar input lift: Glorot uniform
    fan_in = shape[0] if len(shape) == 2 else 1
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-limit, limit, shape)
    if name.startswith(("out_", "fuse_")):
        w *= OUT_HEAD_SCALE
    return w


@dataclass(eq=False)
class DenoiserModel:
    """Parameter container plus forward passes; immutable between optimizer steps."""

    config: DenoiserConfig
    params: dict[str, np.ndarray]
    eval_count: int = 0

    def __post_init__(self):
        expected = param_shapes(self.config)
        if set(self.params) != set(expected):
            missing = sorted(set(expected) - set(self.params))
            extra = sorted(set(self.params) - set(expected))
            raise ConfigError(
                f"parameter names do not match config (missing={missing}, extra={extra})")
        for name, arr in self.params.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            if arr.shape != expected[name]:
                raise DimensionError(
                    f"parameter {name}: shape {arr.shape} != expected {expected[name]}")
            if not np.all(np.isfinite(arr)):
                raise ContractError(f"parameter {name} contains non-finite values")
            self.params[name] = arr

    @property
    def pred_shape(self) -> tuple[int, int]:
        return self.config.l_pred, self.config.dim

    def bind(self, tape: nm.Tape | None) -> dict[str, nm.Tensor]:
        """Wrap parameters as tape leaves (trainable) or constants (inference).

        Constants wrap the arrays without a finiteness scan: `__post_init__`
        checked them, and a value made non-finite later fails the first op
        that reads it.
        """
        if tape is None:
            return {k: nm.Tensor(v) for k, v in self.params.items()}
        return {k: tape.param(v) for k, v in self.params.items()}

    def forward_batch(self, leaves: dict[str, nm.Tensor], p_obs: np.ndarray,
                      x_k: np.ndarray, ks: np.ndarray) -> nm.Tensor:
        """One call over the whole batch: (M, T, D), (B, L, D), (B,) -> (B, L, D).

        It does not split the batch into groups; `training.train` runs it,
        through `batch_noise_loss`, once per group of `_eval_groups`, each
        on its own tape.
        """
        return _forward(self.config, leaves, *_check_batch(self.config, p_obs, x_k, ks))

    def eval_batch(self, p_obs: np.ndarray, x_k: np.ndarray,
                   ks: np.ndarray) -> np.ndarray:
        """Inference forward; counts one evaluation per batch item.

        p_obs is (M, T, D) for the (B, L, D) x_k, M dividing B (see `_forward`).
        The whole batch is checked first, then run as consecutive groups of
        whole observations or of one observation's chains, whose future-row
        activations fit `GROUP_BYTES` (the rule is `_eval_groups`), so the
        working set stays near cache size and does not grow with B.  A
        chain's row does not depend on its batch, so the concatenated
        outputs are the bytes of one whole-batch call.
        """
        cfg = self.config
        p_obs, x_k, ks = _check_batch(cfg, p_obs, x_k, ks)
        leaves = self.bind(None)
        out = np.concatenate([_forward(cfg, leaves, p_obs[obs], x_k[chains], ks[chains]).data
                              for obs, chains in _eval_groups(cfg, len(p_obs), len(x_k))])
        self.eval_count += len(x_k)
        return out


def init_denoiser(config: DenoiserConfig, seed: int) -> DenoiserModel:
    """Fresh model: Glorot weights, zero biases, unit norm gains.

    Output heads are scaled down so the untrained prediction is near
    zero and the initial loss sits near the noise energy (about 1).
    """
    rng = np.random.default_rng(seed)
    params = {name: _init_array(name, shape, rng)
              for name, shape in param_shapes(config).items()}
    return DenoiserModel(config=config, params=params)


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


def positional_encoding(axis_len: int, model_dim: int) -> np.ndarray:
    """Sinusoid table: PE[p, 2i] = sin(p / 10000^(2i/dim)), PE[p, 2i+1] = cos."""
    check_count(axis_len, 1, "axis_len", ConfigError)
    if check_count(model_dim, 2, "model_dim", ConfigError) % 2:
        raise ConfigError(f"model_dim must be even, got {model_dim}")
    pos = np.arange(axis_len)[:, None]
    freq = np.power(10000.0, -np.arange(0, model_dim, 2) / model_dim)
    table = np.empty((axis_len, model_dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


# ---------------------------------------------------------------------------
# forward graph
# ---------------------------------------------------------------------------


# each block's parameters, in the order the fused op takes them; no key
# bias: it adds the same q.b to every score of a query row, which softmax
# cancels
ATTENTION_PARAMS = ("ln1_g", "ln1_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo")
FEEDFORWARD_PARAMS = ("ln2_g", "ln2_b", "ff1_w", "ff1_b", "ff2_w", "ff2_b")


def _encoder_layer(feat, leaves, prefix: str, n_heads: int, axis: int, rows=None):
    """Pre-norm attention over the tokens on `axis`, then the pre-norm feedforward.

    Axis -2 is the spatial layer, axis -3 the temporal one.  Without
    `rows`, every token is a query, a key and a value.  With `rows`, a pair
    of frame indices, keys (B, S) and queries (B, L), into axis 0 of the
    (F, D, C) frame list: item b attends from the frames queries[b] over
    the frames keys[b], and the layer returns the (B, L, D, C) query rows.
    The norm and the key and value projections run once per frame, however
    many items read it.  Each block is one tape op.
    """
    def block(names):
        return (leaves[f"{prefix}.{name}"] for name in names)

    feat = nm.attention_block(feat, *block(ATTENTION_PARAMS), n_heads, axis, rows)
    return nm.feedforward(feat, *block(FEEDFORWARD_PARAMS))


def _eval_groups(cfg: DenoiserConfig, m: int, b: int):
    """(observation slice, chain slice) of each call over M observations, B chains.

    G chains fit one call: their (G * L * D, model_dim) float64 activation
    stays within `GROUP_BYTES`, or G = 1.  When an observation's r = B / M
    chains fit (r <= G), each call holds G // r whole observations and the
    last call the rest: at M = B, as in training, that is ceil(B / G)
    calls.  Otherwise each observation's chains go in calls of at most G,
    each with that observation alone.
    """
    g = max(1, GROUP_BYTES // (cfg.l_pred * cfg.dim * cfg.model_dim * 8))
    r = b // m
    if r <= g:
        q = g // r
        return [(slice(i, min(i + q, m)), slice(i * r, min(i + q, m) * r))
                for i in range(0, m, q)]
    return [(slice(i, i + 1), slice(i * r + j, i * r + min(j + g, r)))
            for i in range(m) for j in range(0, r, g)]


def _check_batch(cfg: DenoiserConfig, p_obs, x_k, ks):
    """(p_obs, x_k, ks) as float64, float64 and intp arrays, checked for `_forward`."""
    p_obs = np.asarray(p_obs, dtype=np.float64)
    x_k = np.asarray(x_k, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.intp)
    b = x_k.shape[0]
    t, l, d = cfg.t_obs, cfg.l_pred, cfg.dim
    if x_k.shape != (b, l, d):
        raise DimensionError(f"noised-future batch shape {x_k.shape} != {(b, l, d)}")
    if (p_obs.ndim != 3 or p_obs.shape[1:] != (t, d)
            or not 0 < len(p_obs) <= b or b % len(p_obs)):
        raise DimensionError(f"observation batch shape {p_obs.shape} != (M, {t}, {d}) "
                             f"with M dividing the batch size {b}")
    if ks.shape != (b,):
        raise DimensionError(f"ks shape {ks.shape} != ({b},)")
    if np.any(ks < 1) or np.any(ks > cfg.k_steps):
        raise ContractError(f"diffusion steps must lie in [1, {cfg.k_steps}]")
    group_ks = ks.reshape(len(p_obs), -1)
    if np.any(group_ks != group_ks[:, :1]):
        raise ContractError("chains that share an observation must share its diffusion step")
    return p_obs, x_k, ks


def _forward(cfg: DenoiserConfig, leaves: dict[str, nm.Tensor], p_obs: np.ndarray,
             x_k: np.ndarray, ks: np.ndarray):
    """Batched noise prediction: (M, T, D), (B, L, D), (B,) -> (B, L, D).

    M divides B, and chain j reads observation j // (B / M).  Chains that
    share an observation share its step k, which its frames carry.  The
    inputs come as `_check_batch` returns them.
    """
    b, m = len(x_k), len(p_obs)
    t, l, d, c = cfg.t_obs, cfg.l_pred, cfg.dim, cfg.model_dim
    r = b // m                                  # chains per observation
    group_ks = ks.reshape(m, r)

    # observation i's T frames, then the L frames of each of its chains
    # i*r .. i*r + r - 1, embedded as (M, G, D, C) and then listed: at M = B
    # that grid is (B, S, D, C), and training's gradients are bit for bit
    # those of a forward that lays out each chain's frames on its own
    g = t + r * l
    cells = np.concatenate([p_obs, x_k.reshape(m, r * l, d)], axis=1)[..., None]
    pos = np.concatenate([np.arange(t), np.tile(np.arange(t, t + l), r)])
    feat = nm.add(nm.mul(nm.constant(cells), leaves["in_w"]), leaves["in_b"])
    feat = nm.add(feat, nm.constant(positional_encoding(t + l, c)[pos][:, None, :]))
    feat = nm.add(feat, nm.constant(positional_encoding(d, c)))
    feat = nm.add(feat, nm.take_rows(leaves["step_emb"], group_ks[:, :1, None]))
    frames = nm.reshape(feat, (m * g, d, c))                     # (F, D, C)

    # chain j reads its observation's T frames, then its own L frames
    first = np.arange(b) // r * g
    future = (first + t + np.arange(b) % r * l)[:, None] + np.arange(l)
    rows = (np.concatenate([first[:, None] + np.arange(t), future], axis=1), future)

    if cfg.variant == "series":
        frames = _encoder_layer(frames, leaves, "spat", cfg.n_heads, axis=-2)
        feat = _encoder_layer(frames, leaves, "temp", cfg.n_heads, axis=-3, rows=rows)
        y = nm.linear(feat, leaves["out_w"], leaves["out_b"])     # (B, L, D, 1)
    else:
        ya = nm.linear(_encoder_layer(nm.take_rows(frames, future), leaves, "spat",
                                      cfg.n_heads, axis=-2),
                       leaves["out_s_w"], leaves["out_s_b"])
        yb = nm.linear(_encoder_layer(frames, leaves, "temp", cfg.n_heads, axis=-3,
                                      rows=rows),
                       leaves["out_t_w"], leaves["out_t_b"])
        stacked = nm.concat([ya, yb], axis=-1)                    # (B, L, D, 2)
        y = nm.linear(stacked, leaves["fuse_w"], leaves["fuse_b"])

    return nm.reshape(y, (b, l, d))
