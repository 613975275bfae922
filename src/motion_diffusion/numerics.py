"""Dense float64 arrays plus a reverse-mode differentiation tape.

Every value is a C-contiguous float64 numpy array wrapped in a `Tensor`.
Ops are free functions: they compute with numpy, verify the result is
finite (NaN/Inf is an error state, not a value), and hand `_emit` a
pullback closure, which it records on the tape any of their inputs live
on.  A pullback maps the output gradient to one gradient per input,
constant inputs included; `backward` drops those of constants.  A tape is
built fresh for every training step; `backward` walks the records once, in
reverse creation order, which is a valid reverse topological order by
construction.  It consumes the tape: each pullback, and with it the
activations it holds, is released as soon as it has run, and a second
`backward` on the tape is a ContractError.  The records themselves stay,
so a consumed tape can still be counted.

Inference never touches a tape: wrap inputs with `constant` and the ops
skip recording.

A loop may reuse its memory by running inside `buffer_pool()`:
`diffusion._reverse_loop` does, and so does each `training.train` call.
There the large temporaries of a forward (GEMM outputs, the norm's two
arrays, attention scores and context, the row gathers, and `add`, `mul`
and `take_rows` outputs) and of a backward (the 2-D `_matmul_backward_a`
product, the softmax, attention, layer-norm and `take_rows` gradients,
and the sums `backward` accumulates) come from `_alloc`, which hands out
arrays over raw buffers (`bytearray` slots) that the pool keeps.
Outside a pool `_alloc` is `np.empty`.  A hand-out is a fresh array over
a slot's buffer, and every view of it has the hand-out as its base, so
the slot is free again exactly when the hand-out and all its views are
gone, which a weak reference tells.  An array a caller or a tape's
pullback still holds is thus never overwritten, however late it is read.
`_alloc` takes the smallest free slot that fits, bisecting a list of the
slots' sizes for the first one large enough, and makes a new one only
when none is free, so the pool stays near the live set.  The ops write
into the hand-outs with `out=`, which gives the bytes of a fresh array.
The open pool is a context variable: each thread has its own, and a
`buffer_pool()` opened inside it joins it.

`linear` fuses one GEMM-shaped step.  `attention_block` and `feedforward`
fuse the two pre-norm blocks of an encoder layer, so a layer is two tape
records; `attention_block` is the only taped attention.  Each piece of
algebra has one implementation.  The blocks run the operations of the
public ops they replace (`layer_norm`, `linear`, `take_rows`, `relu`,
`add`) in the same order, through the same private cores (`_normalize`,
`_gemm`, `_attend`) and backward kernels, so they give the same bytes.
`matmul`, `linear` and the blocks share one pair of matrix-product
gradient kernels, `_matmul_backward_a` and `_matmul_backward_b`.  Their
pullbacks keep only what those ops' records keep: the norm's y and inv,
the normed rows, the query rows, q, k, v and the probabilities, the
context, and the ReLU output.  They write in place only into arrays they
allocated.  Every op finite-checks its output; within a block, the
attention scores and the feedforward's hidden before its ReLU (which
would turn a -inf into 0) are checked too.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import math
import weakref
from functools import partial

import numpy as np

from .errors import ContractError, DimensionError, NumericsError, check_count

LAYER_NORM_EPS = 1e-5


def _as_array(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array and verify finiteness."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericsError("non-finite value in array input")
    return arr


class Tensor:
    """A value, optionally attached to a tape node."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: np.ndarray, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        where = "const" if self.tape is None else f"node {self.node_id}"
        return f"Tensor(shape={self.data.shape}, {where})"


def constant(x) -> Tensor:
    """Wrap a value as an off-tape constant (no gradient flows into it)."""
    return Tensor(_as_array(x))


class _Record:
    """One taped op: output node, input nodes, and the pullback closure.

    `pullback(g)` maps the output gradient to one gradient per input,
    aligned with `in_ids`; `backward` drops the gradients at positions
    whose `in_ids[i]` is None (constant inputs), and sets `pullback` to
    None once it has run.
    """

    __slots__ = ("name", "out_id", "in_ids", "pullback")

    def __init__(self, name, out_id, in_ids, pullback):
        self.name = name
        self.out_id = out_id
        self.in_ids = in_ids
        self.pullback = pullback


class Tape:
    """Ordered op records; rebuilt every training step, never reused.

    `backward` consumes the pullbacks and keeps the records, each with its
    name and node ids, so they can still be counted.
    """

    def __init__(self):
        self.records: list[_Record] = []
        self._next_id = 0

    def _new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def param(self, x) -> Tensor:
        """Register a parameter leaf; `backward` reports its gradient."""
        return Tensor(_as_array(x), self, self._new_id())

    def gradients(self, loss: Tensor, named: dict[str, Tensor]) -> dict[str, np.ndarray]:
        """Run backward and key the parameter gradients by name."""
        by_id = backward(self, loss)
        out = {}
        for name, leaf in named.items():
            g = by_id.get(leaf.node_id)
            out[name] = g if g is not None else np.zeros_like(leaf.data)
        return out


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every parameter leaf on the tape.

    Visits each record exactly once, in reverse creation order, pops its
    output's gradient and releases its pullback, so each activation is
    freed once its last consumer's gradient exists.  What is left is a map
    node_id -> gradient for the parameter leaves that the loss actually
    depends on: only `Tape.param` creates leaves, and constants never
    appear.  A tape that `backward` has consumed is a ContractError.
    """
    if loss.tape is not tape:
        raise ContractError("loss tensor does not belong to this tape")
    if loss.data.ndim != 0:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")

    grads: dict[int, np.ndarray] = {loss.node_id: np.asarray(1.0)}
    for rec in reversed(tape.records):
        pullback, rec.pullback = rec.pullback, None
        if pullback is None:
            raise ContractError("tape was already consumed by backward")
        g = grads.pop(rec.out_id, None)
        if g is None:
            continue
        for in_id, gin in zip(rec.in_ids, pullback(g)):
            if in_id is not None:
                acc = grads.get(in_id)
                grads[in_id] = gin if acc is None else np.add(acc, gin, out=_alloc(acc.shape))
    return grads


# ---------------------------------------------------------------------------
# buffer pool
# ---------------------------------------------------------------------------


class _Slots(list):
    """The open pool: its slots, each [bytearray, weak reference to its last
    hand-out], in size order, so the first free one that fits is the
    smallest; `sizes` holds their byte counts in the same order, so
    `bisect` finds the first slot large enough in C, without a key
    function."""

    __slots__ = ("sizes",)

    def __init__(self):
        super().__init__()
        self.sizes: list[int] = []


_POOL: contextvars.ContextVar[_Slots | None] = contextvars.ContextVar("numerics_pool",
                                                                     default=None)


@contextlib.contextmanager
def buffer_pool():
    """Let `_alloc` reuse buffers until the block exits; inside an open pool, join it."""
    if _POOL.get() is not None:
        yield
        return
    token = _POOL.set(_Slots())
    try:
        yield
    finally:
        _POOL.reset(token)


def _alloc(shape) -> np.ndarray:
    """An uninitialized float64 array: from the open pool, else `np.empty`."""
    slots = _POOL.get()
    if slots is None:
        return np.empty(shape)
    nbytes = 8 * math.prod(shape)
    fits = bisect.bisect_left(slots.sizes, nbytes)
    for slot in slots[fits:]:
        if slot[1]() is None:
            break
    else:
        slot = [bytearray(nbytes), None]
        at = bisect.bisect_right(slots.sizes, nbytes, fits)
        slots.insert(at, slot)
        slots.sizes.insert(at, nbytes)
    arr = np.ndarray(shape, buffer=slot[0])
    slot[1] = weakref.ref(arr)
    return arr


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _find_tape(tensors) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("inputs belong to two different tapes")
    return tape


def _emit(name: str, out_data: np.ndarray, inputs: list[Tensor], pullback) -> Tensor:
    """Finite-check the result; record `pullback` if any input is taped.

    `pullback(g)` returns one gradient per input, in the order of `inputs`.
    """
    if not np.all(np.isfinite(out_data)):
        raise NumericsError(f"op '{name}' produced a non-finite value")
    tape = _find_tape(inputs)
    if tape is None:
        return Tensor(out_data)
    out = Tensor(out_data, tape, tape._new_id())
    in_ids = [t.node_id if t.tape is not None else None for t in inputs]
    tape.records.append(_Record(name, out.node_id, in_ids, pullback))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return np.ascontiguousarray(g)


def _softmax_inplace(x):
    """Softmax over the last axis with max-subtraction, overwriting x."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _heads(a, n_heads, axis):
    """(..., H, S, C/H) strided view of the head slices of a, whose S tokens lie on `axis`."""
    return np.moveaxis(a.reshape(*a.shape[:-1], n_heads, -1), axis - 1, -2)


# Forward cores shared by the public ops and the fused blocks, so each
# piece of algebra has one implementation.


def _gemm(x2, w, b=None):
    """x2 (R, C) @ w (C, N), plus b (N,) in place if given: a fresh (R, N) array.

    numpy hands a product with one output column (N = 1) or one row to
    gemv, whose bits for a row differ from gemm's, and a row's value must
    not depend on the batch (sample 0 is the same for any sample count).
    So N = 1 is a row-wise reduction, and one row is multiplied stacked twice.
    """
    if w.shape[1] == 1:
        out = (x2 * w[:, 0]).sum(axis=-1, keepdims=True)
    elif len(x2) == 1:
        out = (np.concatenate([x2, x2]) @ w)[:1]
    else:
        out = np.matmul(x2, w, out=_alloc((len(x2), w.shape[1])))
    if b is not None:
        out += b
    return out


def _normalize(x, gain, bias):
    """Layer norm of the last axis: (out, y, inv), y the normed rows before the affine part.

    Two full-size arrays: x is centered into y, squared into scratch for
    the variance, y is scaled in place, and the affine part is written
    into the scratch, which becomes the output.
    """
    y = np.subtract(x, x.mean(axis=-1, keepdims=True), out=_alloc(x.shape))
    out = np.multiply(y, y, out=_alloc(x.shape))
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    y *= inv
    np.multiply(y, gain, out=out)
    out += bias
    return out, y, inv


def _check_attention_shapes(shape, kshape, n_heads, axis):
    """DimensionError unless queries of `shape` can attend over keys of `kshape` on `axis`."""
    if (not -len(shape) < axis < -1 or len(kshape) != len(shape)
            or shape[:axis] + shape[axis + 1:] != kshape[:axis] + kshape[axis + 1:]):
        raise DimensionError(
            f"attention needs q and k, v that differ only on token axis {axis}, which "
            f"lies after the first axis and before the channels; got {shape} and {kshape}")
    if n_heads < 1 or shape[-1] % n_heads:
        raise DimensionError(f"{shape[-1]} channels do not split into {n_heads} heads")


def _attend(qd, kd, vd, n_heads, axis, name):
    """Scores, softmax and context of multi-head attention: (out, p, factor).

    Scaled dot-product attention of Sq queries over S keys.  The tokens lie
    on `axis` (-2, -3, ...) and the channels on the last axis; every other
    axis is a batch axis.  Head h attends with channel slice h of width
    hd = C / n_heads: softmax(q_h k_h^T / sqrt(hd)) v_h, bidirectional (no
    mask).  Heads are strided views, never copies, and each head's context
    is written straight into the output.  The scores are finite-checked,
    in the name of op `name`; p is the (..., H, Sq, S) softmax the pullback
    keeps.
    """
    factor = 1.0 / np.sqrt(qd.shape[-1] // n_heads)
    heads = partial(_heads, n_heads=n_heads, axis=axis)
    hq, hk = heads(qd), heads(kd)
    scores = np.matmul(hq, np.swapaxes(hk, -1, -2), out=_alloc(hq.shape[:-1] + hk.shape[-2:-1]))
    scores *= factor
    if not np.all(np.isfinite(scores)):
        raise NumericsError(f"op '{name}' produced a non-finite score")
    p = _softmax_inplace(scores)
    out = _alloc(qd.shape)
    np.matmul(p, heads(vd), out=heads(out))
    return out, p, factor


def _gather(a, idx):
    """a[idx] for an index array `_row_index` checked, into an `_alloc` array."""
    # mode="clip" changes no in-range index and, unlike "raise", writes out= unbuffered
    return np.take(a, idx, axis=0, out=_alloc(idx.shape + a.shape[1:]), mode="clip")


def _row_index(indices, n_rows):
    """An integer index array into axis 0 of an array with n_rows rows."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise DimensionError("take_rows index out of range")
    return idx


def _check_shapes(op, named):
    """DimensionError naming the first (name, tensor, shape) whose tensor has another shape."""
    for name, t, shape in named:
        if t.data.shape != shape:
            raise DimensionError(f"{op}: {name} must have shape {shape}, got {t.data.shape}")


# Backward kernels live at module level so diagnostics (and the
# gradcheck negative control) can intercept them.


def _matmul_backward_a(g, b):
    out = _alloc((len(g), len(b))) if g.ndim == b.ndim == 2 else None
    return np.matmul(g, np.swapaxes(b, -1, -2), out=out)


def _matmul_backward_b(g, a):
    return np.matmul(np.swapaxes(a, -1, -2), g)


def _softmax_backward(g, y):
    """y * (g - sum(g * y)) over the last axis, in one full-size array."""
    gy = np.multiply(g, y, out=_alloc(y.shape))
    s = gy.sum(axis=-1, keepdims=True)
    np.subtract(g, s, out=gy)
    gy *= y
    return gy


def _attention_backward(g, q, k, v, p, n_heads, factor, axis):
    """Gradients of `_attend` wrt q (Sq tokens) and k, v (S tokens) on `axis`.

    `p` holds the forward's softmax probabilities, (..., H, Sq, S); every
    head-gradient product writes straight into its buffer, which has the
    shape of the input it belongs to.
    """
    heads = partial(_heads, n_heads=n_heads, axis=axis)
    gh = heads(g)
    gq, gk, gv = _alloc(q.shape), _alloc(k.shape), _alloc(v.shape)
    np.matmul(np.swapaxes(p, -1, -2), gh, out=heads(gv))
    gs = _softmax_backward(np.matmul(gh, np.swapaxes(heads(v), -1, -2), out=_alloc(p.shape)), p)
    gs *= factor
    np.matmul(gs, heads(k), out=heads(gq))
    np.matmul(np.swapaxes(gs, -1, -2), heads(q), out=heads(gk))
    return gq, gk, gv


def _relu_backward(g, out):
    """g * (out > 0), written into g: the caller passes a g it owns."""
    g *= out > 0.0
    return g


def _take_rows_backward(g, idx, shape):
    """Gradient of `take_rows`: each row of g added to the row it was read from.

    Where each row was read at most once, the rows are assigned into zeros,
    which is what adding them to zeros gives but for the sign of a zero,
    at a small part of `np.add.at`'s cost.  Repeated rows are accumulated
    in index order.
    """
    z = _alloc(shape)
    z.fill(0.0)
    flat = idx.ravel()
    rows = g.reshape(flat.shape + shape[1:])
    if np.unique(flat).size == flat.size:
        z[flat] = rows
    else:
        np.add.at(z, flat, rows)
    return z


def _layer_norm_backward_x(g, gain, y, inv):
    """inv * (h - mean(h) - y * mean(h * y)) for h = g * gain, in two full-size arrays."""
    h = np.multiply(g, gain, out=_alloc(y.shape))
    hy = np.multiply(h, y, out=_alloc(y.shape))
    m = hy.mean(axis=-1, keepdims=True)
    h -= h.mean(axis=-1, keepdims=True)
    np.multiply(y, m, out=hy)
    h -= hy
    h *= inv
    return h


# Pullback pieces shared by the public ops and the fused blocks.


def _column_sums(g):
    """Sum over every axis but the last: the gradient of a bias added to g's rows."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def _linear_pullback(g, x2, w):
    """(dL/dx, dL/dw) of x2 @ w, dL/dx with the leading axes of g."""
    g2 = g.reshape(-1, w.shape[1])
    return (_matmul_backward_a(g2, w).reshape(*g.shape[:-1], w.shape[0]),
            _matmul_backward_b(g2, x2))


def _layer_norm_pullback(g, gain, y, inv):
    """(dL/dx, dL/dgain, dL/dbias) of layer norm, from its kept y and inv."""
    gx = _layer_norm_backward_x(g, gain, y, inv)
    return gx, _column_sums(np.multiply(g, y, out=_alloc(y.shape))), _column_sums(g)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = np.add(a.data, b.data, out=_alloc(np.broadcast(a.data, b.data).shape))
    ash, bsh = a.data.shape, b.data.shape

    def pull(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _emit("add", out, [a, b], pull)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data - b.data
    ash, bsh = a.data.shape, b.data.shape

    def pull(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return _emit("sub", out, [a, b], pull)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = np.multiply(a.data, b.data, out=_alloc(np.broadcast(a.data, b.data).shape))
    ad, bd = a.data, b.data

    def pull(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _emit("mul", out, [a, b], pull)


def scale(a, s: float) -> Tensor:
    """a * s for a scalar s: `mul` by the constant s."""
    return mul(a, float(s))


def matmul(a, b) -> Tensor:
    """Matrix product over the two trailing axes, numpy batch semantics.

    Pullbacks: dL/da = g @ b^T, dL/db = a^T @ g (transposes on the two
    trailing axes, batch axes unbroadcast).
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError("matmul requires arrays with ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.data.shape} x {b.data.shape}")
    out = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data

    def pull(g):
        return (_unbroadcast(_matmul_backward_a(g, bd), ad.shape),
                _unbroadcast(_matmul_backward_b(g, ad), bd.shape))

    return _emit("matmul", out, [a, b], pull)


def linear(x, w, b=None) -> Tensor:
    """Affine map of the last axis: x @ w + b for x (..., C), w (C, N), b (N,).

    The bias is optional.  The leading axes are flattened, so the forward
    is one 2-D GEMM (`_gemm`, whose rows do not depend on the row count)
    and each matrix gradient is one GEMM over all rows: dL/dx = g @ w^T
    and dL/dw = x^T @ g; dL/db is the column sums of g.
    """
    x, w = _coerce(x), _coerce(w)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(
            f"linear needs x (..., C) and w (C, N), got {x.data.shape} and {w.data.shape}")
    c, n = w.data.shape
    inputs = [x, w]
    if b is not None:
        b = _coerce(b)
        _check_shapes("linear", [("bias", b, (n,))])
        inputs.append(b)
    x2, wd = x.data.reshape(-1, c), w.data
    out = _gemm(x2, wd, None if b is None else b.data)
    # the pullback captures a bool, not b: a taped tensor held by a record
    # would tie the tape into a reference cycle
    has_bias = b is not None

    def pull(g):
        grads = _linear_pullback(g, x2, wd)
        return grads + (_column_sums(g),) if has_bias else grads

    return _emit("linear", out.reshape(*x.data.shape[:-1], n), inputs, pull)


def relu(a) -> Tensor:
    """max(a, 0).  The pullback keeps the output, which the next op holds
    anyway, not the input: x > 0 exactly where max(x, 0) > 0."""
    a = _coerce(a)
    out = np.maximum(a.data, 0.0)

    def pull(g):
        return (_relu_backward(g.copy(), out),)

    return _emit("relu", out, [a], pull)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis, with max-subtraction for stability.

    For a 2-D input this is row-wise softmax: each output row is
    nonnegative and sums to 1.
    """
    a = _coerce(a)
    y = _softmax_inplace(a.data.copy())

    def pull(g):
        return (_softmax_backward(g, y),)

    return _emit("softmax_rows", y, [a], pull)


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Variance is the population variance; the denominator is
    sqrt(var + 1e-5), so a zero-variance row maps to zeros (then the
    affine part), with no singularity.
    """
    a, gain, bias = _coerce(a), _coerce(gain), _coerce(bias)
    n = a.data.shape[-1]
    _check_shapes("layer_norm", [("gain", gain, (n,)), ("bias", bias, (n,))])
    out, y, inv = _normalize(a.data, gain.data, bias.data)
    gdata = gain.data

    def pull(g):
        return _layer_norm_pullback(g, gdata, y, inv)

    return _emit("layer_norm", out, [a, gain, bias], pull)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    out = np.ascontiguousarray(a.data.reshape(shape))
    ash = a.data.shape

    def pull(g):
        return (g.reshape(ash),)

    return _emit("reshape", out, [a], pull)


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def pull(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _emit("transpose", out, [a], pull)


def concat(parts, axis: int) -> Tensor:
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise ContractError("concat of zero arrays")
    out = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.data.shape[axis] for p in parts[:-1]])

    def pull(g):
        return [np.ascontiguousarray(gp) for gp in np.split(g, splits, axis=axis)]

    return _emit("concat", out, parts, pull)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice `[start, start+length)` along one axis."""
    a = _coerce(a)
    if start < 0 or start + length > a.data.shape[axis]:
        raise DimensionError(
            f"narrow [{start}, {start + length}) out of range for axis {axis} "
            f"of shape {a.data.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])
    ash = a.data.shape

    def pull(g):
        z = np.zeros(ash)
        z[idx] = g
        return (z,)

    return _emit("narrow", out, [a], pull)


def take_rows(a, indices) -> Tensor:
    """Gather rows (axis 0) by an integer index array of any shape.

    The output has shape `indices.shape + a.shape[1:]`.
    """
    a = _coerce(a)
    idx = _row_index(indices, a.data.shape[0])
    out = _gather(a.data, idx)
    ash = a.data.shape

    def pull(g):
        return (_take_rows_backward(g, idx, ash),)

    return _emit("take_rows", out, [a], pull)


def sum_all(a) -> Tensor:
    """The sum of every entry: `mean_all` over a count of 1."""
    return mean_all(a, 1)


def mean_all(a, count: int | None = None) -> Tensor:
    """The sum of every entry over `count`, by default the entry count.

    A batch run in parts passes the whole batch's count, so each part's
    gradient is exactly that of the whole batch's mean: 1/count per entry.
    A count that is not a positive integer is a ContractError.
    """
    a = _coerce(a)
    n = a.data.size if count is None else check_count(
        count, 1, "mean_all count", ContractError)
    out = np.asarray(a.data.sum() / n)   # the bits of a.data.mean() at count=None
    ash = a.data.shape

    def pull(g):
        return (np.broadcast_to(g / n, ash).copy(),)

    return _emit("mean_all", out, [a], pull)


# ---------------------------------------------------------------------------
# fused pre-norm blocks: one tape op each
# ---------------------------------------------------------------------------


def attention_block(x, ln1_g, ln1_b, wq, bq, wk, wv, bv, wo, bo, n_heads: int,
                    axis: int, rows=None) -> Tensor:
    """Pre-norm multi-head attention with its residual: x + attention(q, k, v) @ wo + bo.

    h = layer_norm(x, ln1_g, ln1_b), k = h @ wk, v = h @ wv + bv, and
    q = h @ wq + bq; attention runs `_attend` over the tokens on `axis`,
    which lies after a first batch axis and before the channels.  Without
    `rows`, every token is a query, a key and a value.  With `rows`, a pair
    of index arrays (keys, queries) into axis 0 of x: k and v are gathered
    by keys, h and the residual x by queries, as `take_rows` would, and
    the output has the query rows' shape.

    It runs the operations of that composition of `layer_norm`, `linear`,
    `take_rows`, attention and `add` in their order, so its output and
    gradients have their bytes.  Bias adds and the residual are written
    into the GEMM outputs, which only this op holds.  The pullback keeps
    the norm's y and inv, the normed rows h, the query rows of h, q, k, v,
    the probabilities and the context.  It adds the gradient into h in the
    tape's reverse order, q's (scattered through queries), then v's, then
    k's, and into x the residual's, then the norm's.
    """
    x = _coerce(x)
    gain, beta, wq, bq, wk, wv, bv, wo, bo = params = [
        _coerce(t) for t in (ln1_g, ln1_b, wq, bq, wk, wv, bv, wo, bo)]
    if x.data.ndim < 2:
        raise DimensionError(f"attention_block needs x (..., C), got {x.data.shape}")
    xd = x.data
    c = xd.shape[-1]
    vec, mat = (c,), (c, c)
    _check_shapes("attention_block", [
        ("ln1_g", gain, vec), ("ln1_b", beta, vec), ("wq", wq, mat), ("bq", bq, vec),
        ("wk", wk, mat), ("wv", wv, mat), ("bv", bv, vec), ("wo", wo, mat), ("bo", bo, vec)])
    if rows is None:
        qshape = kshape = xd.shape
    else:
        keys, queries = (_row_index(r, xd.shape[0]) for r in rows)
        qshape, kshape = queries.shape + xd.shape[1:], keys.shape + xd.shape[1:]
    _check_attention_shapes(qshape, kshape, n_heads, axis)

    hn, y, inv = _normalize(xd, gain.data, beta.data)
    hn2 = hn.reshape(-1, c)
    k = _gemm(hn2, wk.data).reshape(xd.shape)
    if rows is not None:
        k = _gather(k, keys)
    v = _gemm(hn2, wv.data, bv.data).reshape(xd.shape)
    if rows is None:
        hq, xq = hn, xd
    else:
        v, hq, xq = _gather(v, keys), _gather(hn, queries), _gather(xd, queries)
    hq2 = hq.reshape(-1, c)
    q = _gemm(hq2, wq.data, bq.data).reshape(qshape)
    ctx, p, factor = _attend(q, k, v, n_heads, axis, "attention_block")
    ctx2 = ctx.reshape(-1, c)
    out = _gemm(ctx2, wo.data, bo.data).reshape(qshape)
    out += xq
    shape = xd.shape
    gd, wqd, wkd, wvd, wod = gain.data, wq.data, wk.data, wv.data, wo.data

    def pull(g):
        gctx, gwo = _linear_pullback(g, ctx2, wod)
        gq, gk, gv = _attention_backward(gctx, q, k, v, p, n_heads, factor, axis)
        del gctx
        ghq, gwq = _linear_pullback(gq, hq2, wqd)
        if rows is None:
            gx, gh = g, ghq
        else:
            gx = _take_rows_backward(g, queries, shape)
            gh = _take_rows_backward(ghq, queries, shape)
            gk = _take_rows_backward(gk, keys, shape)
            gv = _take_rows_backward(gv, keys, shape)
        del ghq
        ghv, gwv = _linear_pullback(gv, hn2, wvd)
        gh += ghv
        del ghv
        ghk, gwk = _linear_pullback(gk, hn2, wkd)
        gh += ghk
        del ghk
        gxn, ggain, gbeta = _layer_norm_pullback(gh, gd, y, inv)
        gxn += gx
        return (gxn, ggain, gbeta, gwq, _column_sums(gq), gwk, gwv, _column_sums(gv),
                gwo, _column_sums(g))

    return _emit("attention_block", out, [x, *params], pull)


def feedforward(x, ln2_g, ln2_b, ff1_w, ff1_b, ff2_w, ff2_b) -> Tensor:
    """Pre-norm ReLU feedforward with its residual: x + relu(h @ ff1_w + ff1_b) @ ff2_w + ff2_b.

    h = layer_norm(x, ln2_g, ln2_b).  It runs the operations of that
    composition of `layer_norm`, `linear`, `relu` and `add` in their order,
    so its output and gradients have their bytes.  The bias adds, the ReLU
    and the residual are written into the GEMM outputs, which only this op
    holds.  The hidden is finite-checked before the ReLU, which would turn
    a -inf into 0.  The pullback keeps the norm's y and inv, the normed
    rows h and the ReLU output, and adds the gradient into x in the tape's
    reverse order: the residual's, then the norm's.
    """
    x = _coerce(x)
    gain, beta, w1, b1, w2, b2 = params = [
        _coerce(t) for t in (ln2_g, ln2_b, ff1_w, ff1_b, ff2_w, ff2_b)]
    if x.data.ndim < 1:
        raise DimensionError(f"feedforward needs x (..., C), got {x.data.shape}")
    xd = x.data
    c, hid = xd.shape[-1], b1.data.size
    _check_shapes("feedforward", [("ln2_g", gain, (c,)), ("ln2_b", beta, (c,)),
                                  ("ff1_w", w1, (c, hid)), ("ff1_b", b1, (hid,)),
                                  ("ff2_w", w2, (hid, c)), ("ff2_b", b2, (c,))])

    hn, y, inv = _normalize(xd, gain.data, beta.data)
    hn2 = hn.reshape(-1, c)
    r2 = _gemm(hn2, w1.data, b1.data)
    if not np.all(np.isfinite(r2)):
        raise NumericsError("op 'feedforward' produced a non-finite hidden value")
    np.maximum(r2, 0.0, out=r2)
    out = _gemm(r2, w2.data, b2.data).reshape(xd.shape)
    out += xd
    gd, w1d, w2d = gain.data, w1.data, w2.data

    def pull(g):
        gr, gw2 = _linear_pullback(g, r2, w2d)
        ga = _relu_backward(gr, r2.reshape(gr.shape))
        gh, gw1 = _linear_pullback(ga, hn2, w1d)
        gxn, ggain, gbeta = _layer_norm_pullback(gh, gd, y, inv)
        gxn += g
        return gxn, ggain, gbeta, gw1, _column_sums(ga), gw2, _column_sums(g)

    return _emit("feedforward", out, [x, *params], pull)
