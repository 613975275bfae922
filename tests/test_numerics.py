"""Tape engine tests: op semantics, pullbacks vs finite differences,
determinism, and the error contract."""

import gc
import importlib.util
import inspect
import math
import os
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motion_diffusion.numerics as nm
from motion_diffusion.denoiser import DenoiserConfig, init_denoiser
from motion_diffusion.diffusion import batch_noise_loss, build_schedule
from motion_diffusion.errors import ContractError, DimensionError, NumericsError
from motion_diffusion.gradcheck import (central_difference, check_ops,
                                        probe_loss_gradients, relative_error)


def grad_of(build_loss, arrays):
    """Tape gradient of a scalar-valued builder over named inputs."""
    tape = nm.Tape()
    leaves = {k: tape.param(v) for k, v in arrays.items()}
    return tape.gradients(build_loss(leaves), leaves)


class TestMatmul:
    def test_identity(self, rng):
        m = rng.normal(size=(2, 2))
        out = nm.matmul(nm.constant(np.eye(2)), nm.constant(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_product(self):
        out = nm.matmul(nm.constant([[1.0, 2.0], [3.0, 4.0]]),
                        nm.constant([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_inner_mismatch(self):
        with pytest.raises(DimensionError):
            nm.matmul(nm.constant(np.ones((2, 3))), nm.constant(np.ones((2, 3))))

    def test_gradient_vs_central_differences(self, rng):
        # sum(a @ b) wrt a at random 3x3 inputs, rel err < 1e-6
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        grads = grad_of(lambda t: nm.sum_all(nm.matmul(t["a"], nm.constant(b))),
                        {"a": a})

        def f(x):
            return float(np.sum(x @ b))

        fd = central_difference(f, a.copy())
        for an, num in zip(grads["a"].ravel(), fd.ravel()):
            assert relative_error(an, num) < 1e-6


class TestSoftmax:
    def test_uniform_row(self):
        out = nm.softmax_rows(nm.constant([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=0, atol=1e-15)

    def test_large_logit_stability(self):
        out = nm.softmax_rows(nm.constant([[1000.0, 0.0, 0.0]])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]], atol=1e-300)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(4, 6))
        out = nm.softmax_rows(nm.constant(x)).data
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_jvp_vs_finite_differences(self, rng):
        # directional derivative of sum(softmax(x) * w) vs FD, rel err < 1e-6
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        direction = rng.normal(size=(3, 4))
        grads = grad_of(lambda t: nm.sum_all(nm.mul(nm.softmax_rows(t["x"]), w)),
                        {"x": x})
        jvp = float(np.sum(grads["x"] * direction))

        def f(s):
            e = x + s * direction
            e = e - e.max(axis=-1, keepdims=True)
            p = np.exp(e)
            return float(np.sum(p / p.sum(axis=-1, keepdims=True) * w))

        h = 1e-6
        fd = (f(h) - f(-h)) / (2 * h)
        assert relative_error(jvp, fd) < 1e-6


def composed_linear(x, w, b=None):
    y = nm.matmul(x, w)
    return y if b is None else nm.add(y, b)


def composed_attention(q, k, v, n_heads, axis=-2):
    # tokens on axis -3 of a 4-D input are moved to axis -2 and back
    if axis == -3:
        swap = (0, 2, 1, 3)
        moved = [nm.transpose(t, swap) for t in (q, k, v)]
        return nm.transpose(composed_attention(*moved, n_heads), swap)
    # the leading axes are folded into one batch axis M
    *lead, sq, c = q.data.shape
    m = int(np.prod(lead))
    hd = c // n_heads

    def heads(t):
        rows = t.data.shape[-2]
        return nm.transpose(nm.reshape(t, (m, rows, n_heads, hd)), (0, 2, 1, 3))

    scores = nm.scale(nm.matmul(heads(q), nm.transpose(heads(k), (0, 1, 3, 2))),
                      1.0 / np.sqrt(hd))
    ctx = nm.matmul(nm.softmax_rows(scores), heads(v))
    return nm.reshape(nm.transpose(ctx, (0, 2, 1, 3)), (*lead, sq, c))


def value_and_grads(op, arrays, weight):
    tape = nm.Tape()
    leaves = {k: tape.param(v) for k, v in arrays.items()}
    out = op(leaves)
    return out.data, tape.gradients(nm.sum_all(nm.mul(out, weight)), leaves)


# denoiser token shapes for one task with N=1 and N=50 samples: S=9 frames
# of which L=5 are future frames, D=6 pose parameters, C=8 channels in 2 heads
ORACLE_S, ORACLE_L, ORACLE_D, ORACLE_C = 9, 5, 6, 8


class TestFusedOpsMatchComposition:
    """`linear` and `attention_block` against the primitive ops they replace."""

    @pytest.mark.parametrize("n", [1, 50])
    def test_linear(self, rng, n):
        full = {"x": rng.normal(size=(n, ORACLE_S, ORACLE_D, ORACLE_C)),
                "w": rng.normal(size=(ORACLE_C, 3 * ORACLE_C)),
                "b": rng.normal(size=(3 * ORACLE_C,))}
        weight = rng.normal(size=(n, ORACLE_S, ORACLE_D, 3 * ORACLE_C))
        # with a bias, and without one as the key projection runs
        for arrays in (full, {"x": full["x"], "w": full["w"]}):
            fused = value_and_grads(lambda t: nm.linear(t["x"], t["w"], t.get("b")),
                                    arrays, weight)
            composed = value_and_grads(
                lambda t: composed_linear(t["x"], t["w"], t.get("b")), arrays, weight)
            np.testing.assert_allclose(fused[0], composed[0], rtol=1e-12, atol=1e-12)
            for name in arrays:
                np.testing.assert_allclose(fused[1][name], composed[1][name],
                                           rtol=1e-12, atol=1e-12, err_msg=name)

    def test_one_column_rows_do_not_depend_on_row_count(self, rng):
        # the readout heads have one output column; a row's bits must be
        # the same in a batch of m rows as in a batch of 5m
        w, b = rng.normal(size=(ORACLE_C, 1)), rng.normal(size=(1,))
        x = rng.normal(size=(40, ORACLE_C))
        for m in range(1, 40):
            batch = np.concatenate([x[:m]] * 5)
            np.testing.assert_array_equal(nm.linear(x[:m], w, b).data,
                                          nm.linear(batch, w, b).data[:m],
                                          err_msg=f"{m} rows")

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("layer", ["spatial", "temporal"])
    def test_attention(self, rng, n, layer):
        # every token of the (B, S, D, C) features attends: the D pose
        # parameters (spatial, axis -2) or the S frames (temporal, axis -3)
        arrays = block_arrays(rng, (n, ORACLE_S, ORACLE_D, ORACLE_C), ATTENTION_BLOCK_PARAMS)
        self.check_against_oracle(arrays, -2 if layer == "spatial" else -3, None, rng)

    @pytest.mark.parametrize("n", [1, 50])
    def test_attention_future_queries(self, rng, n):
        # the temporal layer on one task's frame list, its T observed frames
        # then each chain's L future frames: a chain's L frames query the T
        # frames and its own L
        t = ORACLE_S - ORACLE_L
        future = t + np.arange(n)[:, None] * ORACLE_L + np.arange(ORACLE_L)
        keys = np.concatenate([np.broadcast_to(np.arange(t), (n, t)), future], axis=1)
        arrays = block_arrays(rng, (t + n * ORACLE_L, ORACLE_D, ORACLE_C),
                              ATTENTION_BLOCK_PARAMS)
        fused = self.check_against_oracle(arrays, -3, (keys, future), rng)
        assert fused[0].shape == (n, ORACLE_L, ORACLE_D, ORACLE_C)
        for name in arrays:
            assert fused[1][name].shape == arrays[name].shape, name

    @staticmethod
    def check_against_oracle(arrays, axis, rows, rng):
        """Values and gradients of `attention_block` within 1e-12 of its
        composition with the primitive-op `composed_attention`."""
        def call(op, **kw):
            return lambda t: op(t["x"], *(t[n] for n in ATTENTION_BLOCK_PARAMS), 2, axis,
                                rows, **kw)

        fused_op = call(nm.attention_block)
        weight = rng.normal(size=fused_op({k: nm.constant(v) for k, v in arrays.items()}).shape)
        fused = value_and_grads(fused_op, arrays, weight)
        composed = value_and_grads(call(composed_attention_block, attend=composed_attention),
                                   arrays, weight)
        np.testing.assert_allclose(fused[0], composed[0], rtol=1e-12, atol=1e-12)
        for name in arrays:
            np.testing.assert_allclose(fused[1][name], composed[1][name],
                                       rtol=1e-12, atol=1e-12, err_msg=name)
        return fused

    def test_one_head_is_plain_softmax_attention(self, rng):
        # identity projections, zero biases and unit gain leave the normed
        # rows h as q, k and v, so the block adds softmax(h h^T / sqrt(C)) h
        x = rng.normal(size=(1, 4, 3))
        eye, zero = np.eye(3), np.zeros(3)
        out = nm.attention_block(x, np.ones(3), zero, eye, zero, eye, eye, zero, eye, zero,
                                 1, -2).data
        h = (x[0] - x[0].mean(axis=-1, keepdims=True)) / np.sqrt(
            x[0].var(axis=-1, keepdims=True) + nm.LAYER_NORM_EPS)
        scores = h @ h.T / np.sqrt(3)
        p = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out[0] - x[0], p @ h, rtol=1e-12, atol=1e-15)

    def test_linear_shape_errors(self):
        with pytest.raises(DimensionError):
            nm.linear(np.ones((2, 3)), np.ones((4, 5)), np.ones(5))
        with pytest.raises(DimensionError):
            nm.linear(np.ones((2, 4)), np.ones((4, 5)), np.ones(4))

    def test_attention_shape_errors(self, rng):
        # the block derives q from its query rows and k, v from its key rows,
        # so q and k differ only as `rows` makes them; v always has k's shape
        arrays = block_arrays(rng, (2, 3, 4), ATTENTION_BLOCK_PARAMS)
        x, params = arrays["x"], [arrays[n] for n in ATTENTION_BLOCK_PARAMS]
        with pytest.raises(DimensionError):
            nm.attention_block(x, *params, 3, -2)
        for axis in (-1, -3):  # tokens on the channel axis; no batch axis before the tokens
            with pytest.raises(DimensionError):
                nm.attention_block(x, *params, 2, axis)
        # q and k differ in M: 2 query rows of 1 frame, 1 key row of 2 frames
        with pytest.raises(DimensionError):
            nm.attention_block(x, *params, 2, -3, rows=([[0, 1]], [[0], [1]]))
        for q_shape, k_shape, axis in [
                ((3, 2, 4), (2, 5, 4), -2),             # q and k differ in M
                ((2, 2, 6), (2, 5, 4), -2),             # q and k differ in C
                ((2, 3, 2, 4), (2, 4, 5, 4), -2),       # leading axes differ
                ((3, 2, 4), (1, 3, 5, 4), -2),          # ranks differ
                ((2, 4), (2, 5, 4), -2),                # q has fewer than 3 axes
                ((2, 4), (5, 4), -2),                   # no batch axis at all
                ((2, 3, 4), (2, 3, 4), -1),             # tokens on the channel axis
                ((3, 2, 4), (5, 2, 4), -3),             # no batch axis before the tokens
                ((2, 2, 3, 4), (2, 3, 5, 4), -3)]:      # q and k differ on a batch axis
            with pytest.raises(DimensionError):
                nm._check_attention_shapes(q_shape, k_shape, 2, axis)
        nm._check_attention_shapes((2, 2, 3, 4), (2, 5, 3, 4), 2, -3)


def taped_attention(q, k, v, n_heads, axis):
    """The block's attention as one tape record: `_attend`, pulled back by
    `_attention_backward`."""
    qd, kd, vd = q.data, k.data, v.data
    out, p, factor = nm._attend(qd, kd, vd, n_heads, axis, "attention")
    return nm._emit("attention", out, [q, k, v], lambda g: nm._attention_backward(
        g, qd, kd, vd, p, n_heads, factor, axis))


def composed_attention_block(x, ln1_g, ln1_b, wq, bq, wk, wv, bv, wo, bo, n_heads, axis,
                             rows=None, attend=taped_attention):
    h = nm.layer_norm(x, ln1_g, ln1_b)
    k = nm.linear(h, wk)
    v = nm.linear(h, wv, bv)
    if rows is not None:
        keys, queries = rows
        k, v = nm.take_rows(k, keys), nm.take_rows(v, keys)
        h, x = nm.take_rows(h, queries), nm.take_rows(x, queries)
    q = nm.linear(h, wq, bq)
    return nm.add(x, nm.linear(attend(q, k, v, n_heads, axis), wo, bo))


def composed_feedforward(x, ln2_g, ln2_b, ff1_w, ff1_b, ff2_w, ff2_b):
    h = nm.relu(nm.linear(nm.layer_norm(x, ln2_g, ln2_b), ff1_w, ff1_b))
    return nm.add(x, nm.linear(h, ff2_w, ff2_b))


ATTENTION_BLOCK_PARAMS = ("ln1_g", "ln1_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo")
FEEDFORWARD_PARAMS = ("ln2_g", "ln2_b", "ff1_w", "ff1_b", "ff2_w", "ff2_b")


def block_arrays(rng, x_shape, names, hidden=None):
    """x plus one array per parameter name of a block over x's channels."""
    c = x_shape[-1]
    shapes = {"ff1_w": (c, hidden), "ff1_b": (hidden,), "ff2_w": (hidden, c)}
    arrays = {"x": rng.normal(size=x_shape)}
    for name in names:
        shape = shapes.get(name, (c, c) if name.startswith("w") else (c,))
        arrays[name] = rng.normal(size=shape) + (1.0 if name.endswith("_g") else 0.0)
    return arrays


@st.composite
def attention_block_cases(draw):
    """(x shape, n_heads, axis, rows) as the spatial and temporal layers call the block.

    The temporal case lays out M observations of T frames, each read by
    r chains with their own L frames, as `denoiser._forward` does; r > 1
    makes the chains share the observed rows.  Extents of 1 give one-row
    GEMMs.
    """
    n_heads = draw(st.sampled_from([1, 2]))
    c = n_heads * draw(st.sampled_from([1, 2]))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), d, c), n_heads, -2, None
    m, r, t, l = (draw(st.integers(1, 3)) for _ in range(4))
    g = t + r * l
    b = m * r
    first = np.arange(b) // r * g
    future = (first + t + np.arange(b) % r * l)[:, None] + np.arange(l)
    keys = np.concatenate([first[:, None] + np.arange(t), future], axis=1)
    return (m * g, d, c), n_heads, -3, (keys, future)


class TestFusedBlocksGiveTheComposedBytes:
    """`attention_block` and `feedforward` against the public ops they replace.

    The output and every input's gradient must have the same bytes, which
    holds only while the fused ops keep the composition's operations and
    its order of accumulating gradients.
    """

    @staticmethod
    def assert_same_bytes(fused, composed, arrays, seed):
        weight = np.random.default_rng(seed).normal(
            size=fused({k: nm.constant(v) for k, v in arrays.items()}).shape)
        got, want = (value_and_grads(op, arrays, weight) for op in (fused, composed))
        assert got[0].tobytes() == want[0].tobytes()
        for name in arrays:
            assert got[1][name].shape == want[1][name].shape, name
            assert got[1][name].tobytes() == want[1][name].tobytes(), name

    @given(attention_block_cases(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_attention_block(self, case, seed):
        x_shape, n_heads, axis, rows = case
        arrays = block_arrays(np.random.default_rng(seed), x_shape, ATTENTION_BLOCK_PARAMS)

        def call(op):
            return lambda t: op(t["x"], *(t[n] for n in ATTENTION_BLOCK_PARAMS),
                                n_heads, axis, rows)

        self.assert_same_bytes(call(nm.attention_block), call(composed_attention_block),
                               arrays, seed)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.sampled_from([1, 2, 4]),
           st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_feedforward(self, lead, c, hidden, seed):
        arrays = block_arrays(np.random.default_rng(seed), (*lead, c), FEEDFORWARD_PARAMS,
                              hidden)

        def call(op):
            return lambda t: op(t["x"], *(t[n] for n in FEEDFORWARD_PARAMS))

        self.assert_same_bytes(call(nm.feedforward), call(composed_feedforward), arrays, seed)

    def test_hidden_overflow_is_caught_before_the_relu(self, rng):
        # gain 0 and bias 1 make every normed channel 1, so each hidden unit
        # sums C terms of -1e308 to -inf; the ReLU would turn that into 0 and
        # the output would be finite
        c, hidden = 4, 8
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'feedforward'"):
            nm.feedforward(rng.normal(size=(2, 3, c)), np.zeros(c), np.ones(c),
                           np.full((c, hidden), -1e308), np.zeros(hidden),
                           rng.normal(size=(hidden, c)), np.zeros(c))

    def test_non_finite_score_names_the_block(self):
        # normed rows of +-1 projected by 1e200 give scores of 2e400
        x = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        eye = np.eye(2) * 1e200
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericsError, match="'attention_block'"):
            nm.attention_block(x, np.ones(2), np.zeros(2), eye, np.zeros(2), eye, eye,
                               np.zeros(2), np.eye(2), np.zeros(2), 1, -2)

    def test_shape_errors(self, rng):
        arrays = block_arrays(rng, (2, 3, 4), ATTENTION_BLOCK_PARAMS)
        params = [arrays[n] for n in ATTENTION_BLOCK_PARAMS]
        for bad in ([np.ones(3), *params[1:]], [*params[:2], np.ones((4, 3)), *params[3:]]):
            with pytest.raises(DimensionError):
                nm.attention_block(arrays["x"], *bad, 2, -2)
        with pytest.raises(DimensionError):
            nm.attention_block(arrays["x"], *params, 3, -2)
        with pytest.raises(DimensionError):
            nm.attention_block(arrays["x"], *params, 2, -2, rows=([[0, 2]], [[0]]))
        with pytest.raises(DimensionError):
            nm.attention_block(np.ones(4), *params, 2, -2)
        ff = block_arrays(rng, (2, 3, 4), FEEDFORWARD_PARAMS, 8)
        with pytest.raises(DimensionError):
            nm.feedforward(ff["x"], *(ff[n] for n in FEEDFORWARD_PARAMS[:4]),
                           np.ones((4, 8)), ff["ff2_b"])


def reference_attention(q, k, v, g, n_heads, axis):
    """(out, p, gq, gk, gv) of multi-head attention and its pullback of g,
    row-major and one head at a time, in plain numpy.

    Per head h: s = q_h k_h^T, s * factor, minus its row max, exp, over its
    row sum: p; out_h = p v_h.  The pullback: gv_h = p^T g_h, gp = g_h v_h^T,
    gs = (gp - sum(gp * p)) * p * factor, gq_h = gs k_h, gk_h = gs^T q_h.
    p is (..., H, Sq, S), with the token axis taken out of the leading axes.
    """
    qm, km, vm, gm = (np.moveaxis(a, axis, -2) for a in (q, k, v, g))
    hd = q.shape[-1] // n_heads
    factor = 1.0 / np.sqrt(hd)
    out, gq, gk, gv = (np.empty(a.shape) for a in (qm, qm, km, vm))
    ps = []
    for h in range(n_heads):
        cols = slice(h * hd, (h + 1) * hd)
        qh, kh, vh, gh = (a[..., cols] for a in (qm, km, vm, gm))
        s = (qh @ np.swapaxes(kh, -1, -2)) * factor
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out[..., cols] = p @ vh
        gv[..., cols] = np.swapaxes(p, -1, -2) @ gh
        gp = gh @ np.swapaxes(vh, -1, -2)
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * factor
        gq[..., cols] = gs @ kh
        gk[..., cols] = np.swapaxes(gs, -1, -2) @ qh
        ps.append(p)
    back = [np.moveaxis(a, -2, axis) for a in (out, gq, gk, gv)]
    return back[0], np.stack(ps, axis=-3), *back[1:]


def attention_core_case(seed, n_heads, hd, sq, s, temporal, b=2, d=2):
    """(q, k, v, g, n_heads, axis) for the attention core, b batch items of
    sq queries over s keys of n_heads * hd channels.

    Tokens lie on axis -2, or, `temporal`, on axis -3 of d positions, with
    q and k, v gathered from one array's rows as the temporal layer gathers
    them.  g holds +0.0 and -0.0.
    """
    rng = np.random.default_rng(seed)
    c = n_heads * hd
    if temporal:
        x = rng.normal(size=(b * (s + sq), d, c))
        keys = np.sort(rng.integers(0, len(x), size=(b, s)), axis=1)
        queries = rng.integers(0, len(x), size=(b, sq))
        q, k, v, axis = x[queries], x[keys], rng.normal(size=x.shape)[keys], -3
    else:
        q, k, v = (rng.normal(size=(b, n, c)) for n in (sq, s, s))
        axis = -2
    g = rng.normal(size=q.shape)
    g[rng.random(q.shape) < 0.2] = 0.0
    g[rng.random(q.shape) < 0.2] = -0.0
    return q, k, v, g, n_heads, axis


attention_core_cases = st.builds(
    attention_core_case, st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
    st.sampled_from([1, 2, 3, 8, 16]), st.integers(1, 5),
    st.one_of(st.integers(1, 20), st.integers(129, 140)), st.booleans(),
    st.integers(1, 3), st.integers(1, 3))


class TestAttentionCoreAgainstARowMajorReference:
    """`_attend` and `_attention_backward` against `reference_attention`.

    The output, the probabilities and the three gradients must have the
    reference's bytes, so a change in the core's arithmetic (its sums'
    order, its products' layout) shows here even where the fused block
    and its composition would change together.
    """

    @given(attention_core_cases, st.sampled_from([None, 1, 3]))
    @example(attention_core_case(0, 2, 1, 1, 1, temporal=False, b=1), None)
    @example(attention_core_case(1, 4, 16, 1, 140, temporal=True), 3)
    @example(attention_core_case(2, 3, 16, 5, 36, temporal=True), None)
    @settings(max_examples=60, deadline=None)
    def test_outputs_and_gradients_have_the_reference_bytes(self, case, block_rows):
        # block_rows, if not None, is how many score rows a keys-major block holds
        q, k, v, g, n_heads, axis = case
        block = nm._KEY_BLOCK_BYTES if block_rows is None else 8 * k.shape[axis] * block_rows
        with mock.patch.object(nm, "_KEY_BLOCK_BYTES", block):
            out, p, factor = nm._attend(q, k, v, n_heads, axis, "attention")
            grads = nm._attention_backward(g, q, k, v, p, n_heads, factor, axis)
        want = reference_attention(q, k, v, g, n_heads, axis)
        for name, got, ref in zip(("out", "p", "gq", "gk", "gv"), (out, p, *grads), want):
            assert got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name

    def test_key_sum_is_numpys_row_sum(self):
        # columns of mixed magnitudes, of +-0.0 only, of -0.0 only (numpy's
        # row sum is then +0.0), and of values that cancel
        rng = np.random.default_rng(0)
        for n in range(1, 301):
            x = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-8, 9, size=(n, 5))
            x[:, 1] = rng.choice([0.0, -0.0], size=n)
            x[:, 2] = -0.0
            x[:, 3] = np.where(np.arange(n) % 2, 1.0, -1.0) * 3.0 ** -rng.integers(0, 3, size=n)
            want = np.add.reduce(np.ascontiguousarray(x.T), axis=-1)
            assert not np.signbit(want[2])
            assert nm._key_sum(x, np.empty(5)).tobytes() == want.tobytes(), n
            assert nm._key_sum(x[:, :1].copy(), np.empty(1)).tobytes() == want[:1].tobytes(), n

    @pytest.mark.parametrize("q_shape, k_shape, axis", [
        ((176, 15, 64), (176, 15, 64), -2),           # spatial: 16 observed + 8 x 20 frames
        ((8, 20, 15, 64), (8, 36, 15, 64), -3)])      # temporal: 8 chains, 20 queries, 36 keys
    def test_kernels_take_their_arrays_from_the_pool(self, rng, q_shape, k_shape, axis):
        # at a CLI-default group shape (G = 8, 4 heads), a warmed pool serves
        # the forward and backward: less than a quarter of one score array
        # is allocated outside it (isfinite's booleans are an eighth)
        q, g = rng.normal(size=q_shape), rng.normal(size=q_shape)
        k, v = rng.normal(size=k_shape), rng.normal(size=k_shape)
        with nm.buffer_pool():
            def step():
                out, p, factor = nm._attend(q, k, v, 4, axis, "attention")
                nm._attention_backward(g, q, k, v, p, 4, factor, axis)
                return p.nbytes

            step()
            tracemalloc.start()
            try:
                score_bytes = step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < score_bytes / 4, (peak, score_bytes)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = nm.layer_norm(nm.constant([[5.0, 5.0, 5.0]]),
                            nm.constant(np.ones(3)), nm.constant(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_two_point_row(self):
        # row [1, 3]: mean 2, population var 1; the 1e-5 epsilon pulls the
        # output slightly inside +-1
        out = nm.layer_norm(nm.constant([[1.0, 3.0]]),
                            nm.constant(np.ones(2)), nm.constant(np.zeros(2))).data
        expected = 1.0 / np.sqrt(1.0 + nm.LAYER_NORM_EPS)
        np.testing.assert_allclose(out, [[-expected, expected]], rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-5)

    def test_gradient_vs_finite_differences(self, rng):
        x = rng.normal(size=(3, 5))
        gain = rng.normal(size=(5,)) + 1.0
        bias = rng.normal(size=(5,))
        w = rng.normal(size=(3, 5))
        grads = grad_of(
            lambda t: nm.sum_all(nm.mul(nm.layer_norm(t["x"], t["g"], t["b"]), w)),
            {"x": x, "g": gain, "b": bias})

        def loss_at(name, arr):
            vals = {"x": x, "g": gain, "b": bias, name: arr}
            h = (vals["x"] - vals["x"].mean(-1, keepdims=True)) / np.sqrt(
                vals["x"].var(-1, keepdims=True) + nm.LAYER_NORM_EPS)
            return float(np.sum((h * vals["g"] + vals["b"]) * w))

        for name, arr in (("x", x), ("g", gain), ("b", bias)):
            fd = central_difference(lambda v, _n=name: loss_at(_n, v), arr.copy())
            for an, num in zip(grads[name].ravel(), fd.ravel()):
                assert relative_error(an, num) < 1e-5

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_row_mean_near_zero(self, seed):
        x = np.random.default_rng(seed).normal(scale=2.0, size=(3, 6))
        if np.any(x.var(axis=-1) <= 1e-6):
            return
        out = nm.layer_norm(nm.constant(x), nm.constant(np.ones(6)),
                            nm.constant(np.zeros(6))).data
        assert np.all(np.abs(out.mean(axis=-1)) <= 1e-9)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = rng.normal(size=(3, 4))
        grads = grad_of(lambda t: nm.sum_all(t["w"]), {"w": w})
        np.testing.assert_array_equal(grads["w"], np.ones((3, 4)))

    def test_squared_norm_gives_2w(self, rng):
        w = rng.normal(size=(5,))
        grads = grad_of(lambda t: nm.sum_all(nm.mul(t["w"], t["w"])), {"w": w})
        np.testing.assert_allclose(grads["w"], 2 * w, rtol=1e-15)

    def test_non_scalar_loss_rejected(self, rng):
        tape = nm.Tape()
        w = tape.param(rng.normal(size=(3,)))
        with pytest.raises(ContractError):
            tape.gradients(nm.mul(w, w), {"w": w})

    def test_foreign_loss_rejected(self, rng):
        tape = nm.Tape()
        tape.param(rng.normal(size=(3,)))
        with pytest.raises(ContractError):
            tape.gradients(nm.constant(1.0), {})

    def test_consumed_tape_rejected(self, rng):
        # backward releases the pullbacks as it runs them
        tape = nm.Tape()
        w = tape.param(rng.normal(size=(3,)))
        loss = nm.sum_all(nm.mul(w, w))
        tape.gradients(loss, {"w": w})
        with pytest.raises(ContractError, match="already consumed"):
            tape.gradients(loss, {"w": w})
        with pytest.raises(ContractError, match="already consumed"):
            nm.backward(tape, loss)

    def test_disconnected_param_gets_zeros(self, rng):
        tape = nm.Tape()
        used = tape.param(rng.normal(size=(2,)))
        unused = tape.param(rng.normal(size=(3,)))
        loss = nm.sum_all(nm.mul(used, used))
        grads = tape.gradients(loss, {"used": used, "unused": unused})
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))

    def test_full_model_loss_four_probe_slice(self):
        # end-to-end slice probe on the real loss, rel err < 1e-4
        cfg = DenoiserConfig(variant="series", model_dim=16, n_heads=2,
                             t_obs=3, l_pred=4, dim=6, k_steps=5)
        model = init_denoiser(cfg, 3)
        sched = build_schedule(5, 0.001, 0.333)
        for probe in probe_loss_gradients(model, sched, seed=4, n_probes=4):
            assert probe.rel_err < 1e-4, probe


# op -> (builder over named inputs, input shapes)
PROTOCOL_CASES = {
    "add": (lambda t: nm.add(t["a"], t["b"]), {"a": (3, 4), "b": (4,)}),
    "sub": (lambda t: nm.sub(t["a"], t["b"]), {"a": (3, 4), "b": (3, 4)}),
    "mul": (lambda t: nm.mul(t["a"], t["b"]), {"a": (3, 4), "b": (3, 1)}),
    "matmul": (lambda t: nm.matmul(t["a"], t["b"]), {"a": (2, 3, 4), "b": (4, 2)}),
    "linear": (lambda t: nm.linear(t["x"], t["w"], t["b"]),
               {"x": (2, 3, 4), "w": (4, 5), "b": (5,)}),
    "linear_no_bias": (lambda t: nm.linear(t["x"], t["w"]), {"x": (2, 3, 4), "w": (4, 5)}),
    "layer_norm": (lambda t: nm.layer_norm(t["a"], t["g"], t["b"]),
                   {"a": (3, 4), "g": (4,), "b": (4,)}),
    "concat": (lambda t: nm.concat([t["a"], t["b"]], axis=-1), {"a": (3, 2), "b": (3, 4)}),
    "attention_block": (
        lambda t: nm.attention_block(t["x"], *(t[n] for n in ATTENTION_BLOCK_PARAMS), 2, -3,
                                     rows=([[0, 1, 2], [0, 1, 3]], [[2], [3]])),
        {"x": (4, 2, 4), **{n: (4, 4) if n.startswith("w") else (4,)
                            for n in ATTENTION_BLOCK_PARAMS}}),
    "feedforward": (
        lambda t: nm.feedforward(t["x"], *(t[n] for n in FEEDFORWARD_PARAMS)),
        {"x": (2, 3, 4), "ln2_g": (4,), "ln2_b": (4,), "ff1_w": (4, 6), "ff1_b": (6,),
         "ff2_w": (6, 4), "ff2_b": (4,)}),
}


@pytest.mark.parametrize("op", sorted(PROTOCOL_CASES))
def test_constant_inputs_get_no_gradient(rng, op):
    # pullbacks return a gradient for every input; backward drops those of
    # constants and leaves the taped inputs' gradients bit for bit as they are
    build, shapes = PROTOCOL_CASES[op]
    arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    weight = rng.normal(size=build({k: nm.constant(v) for k, v in arrays.items()}).shape)

    def grads(taped):
        tape = nm.Tape()
        t = {k: tape.param(v) if k in taped else nm.constant(v) for k, v in arrays.items()}
        by_id = nm.backward(tape, nm.sum_all(nm.mul(build(t), weight)))
        assert set(by_id) == {t[k].node_id for k in taped}
        return {k: by_id[t[k].node_id] for k in taped}

    every = grads(set(arrays))
    for const in arrays:
        for name, g in grads(set(arrays) - {const}).items():
            assert g.tobytes() == every[name].tobytes(), (const, name)


def test_backward_returns_exactly_the_reached_leaves(rng):
    # no intermediate id, and no leaf that is unused or feeds a dead branch
    tape = nm.Tape()
    a, b, unused, dead = (tape.param(rng.normal(size=(3,))) for _ in range(4))
    nm.mul(dead, a)   # a record the loss does not reach
    h = nm.relu(nm.add(nm.mul(a, b), nm.constant(np.ones(3))))
    by_id = nm.backward(tape, nm.sum_all(nm.mul(h, h)))
    assert set(by_id) == {a.node_id, b.node_id}


TAPE_OPS = sorted(name for name, fn in vars(nm).items()
                  if inspect.isfunction(fn) and not name.startswith("_") and name != "constant"
                  and fn.__module__ == nm.__name__
                  and fn.__annotations__.get("return") == "Tensor")


def test_every_tensor_op_has_a_finite_difference_entry():
    # every op the module exports gets a check_ops entry named after it
    keys = check_ops(seed=0, points=1)
    assert TAPE_OPS == sorted([
        "add", "sub", "mul", "scale", "matmul", "linear", "relu", "softmax_rows",
        "layer_norm", "reshape", "transpose", "concat", "narrow", "take_rows", "sum_all",
        "mean_all", "attention_block", "feedforward"])
    for op in TAPE_OPS:
        assert any(key == op or key.startswith(op + "_") for key in keys), op


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer_ops():
    """The op names perfbench's tracer wraps, read from perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(REPO, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return set(tracer.REPORTED_OPS + tracer.OTHER_OPS)


# tape ops the program never calls, each with why it stays: they can go
# only together with the tracer's op lists (ROADMAP items 3 and 8)
KEPT_FOR_THE_TRACER = {
    "matmul": "the tracer's numerics.matmul_s and _calls metrics",
    "scale": "the tracer's numerics.scale_s and _calls metrics",
    "softmax_rows": "the tracer's numerics.softmax_rows_s and _calls metrics",
    "transpose": "the tracer's numerics.transpose_s and _calls metrics",
    "relu": "the tracer's numerics.relu_s and _calls metrics",
    "layer_norm": "the tracer's numerics.layer_norm_s and _calls metrics",
    "narrow": "the tracer wraps it for its per-forward call and byte totals",
    "sum_all": "the tracer wraps it for its per-forward call and byte totals",
}


def test_every_tape_op_is_called_by_the_program_or_the_tracer():
    # a public op that neither the program nor perfbench's tracer calls is
    # dead code; gradcheck only checks the ops, so it does not count
    src = os.path.dirname(nm.__file__)
    called = set()
    for name in os.listdir(src):
        if name.endswith(".py") and name not in ("numerics.py", "gradcheck.py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                called.update(re.findall(r"\bnm\.(\w+)\(", fh.read()))
    unused = set(TAPE_OPS) - called
    assert unused <= _tracer_ops(), sorted(unused - _tracer_ops())
    assert unused == set(KEPT_FOR_THE_TRACER)


def test_every_op_matches_finite_differences():
    # 10 random points per op, step 1e-5, rel err < 1e-4
    errors = check_ops(seed=0, points=10)
    assert errors, "op suite ran nothing"
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


BACKWARD_KERNELS = sorted(name for name, fn in vars(nm).items()
                          if inspect.isfunction(fn) and name.startswith("_")
                          and "backward" in name)


def test_backward_kernels_are_found():
    assert BACKWARD_KERNELS == sorted([
        "_matmul_backward_a", "_matmul_backward_b", "_softmax_backward",
        "_attention_backward", "_relu_backward", "_take_rows_backward",
        "_layer_norm_backward_x"])


@pytest.mark.parametrize("kernel", BACKWARD_KERNELS)
def test_corrupted_backward_kernel_detected(monkeypatch, kernel):
    # negative control: a 1% error in any backward kernel must show in the
    # op suite; the attention kernel returns (gq, gk, gv)
    true_kernel = getattr(nm, kernel)

    def corrupted(*args):
        out = true_kernel(*args)
        if isinstance(out, tuple):
            return tuple(g * 1.01 for g in out)
        return out * 1.01

    monkeypatch.setattr(nm, kernel, corrupted)
    assert max(check_ops(seed=0, points=1).values()) > 1e-4


def test_cross_attention_entry_detects_a_corrupted_key_gradient(monkeypatch):
    # negative control for the entry with fewer queries than keys, on axis
    # -3: a 1% error in gk alone
    true_kernel = nm._attention_backward

    def corrupted(*args):
        gq, gk, gv = true_kernel(*args)
        return gq, gk * 1.01, gv

    monkeypatch.setattr(nm, "_attention_backward", corrupted)
    errors = check_ops(seed=0, points=1)
    assert errors["attention_block_rows"] > 1e-4
    assert errors["linear"] < 1e-4


@pytest.mark.parametrize("variant", ["series", "parallel"])
def test_training_step_leaves_no_reference_cycle(variant):
    # a pullback that holds a taped tensor ties the tape into a reference
    # cycle, and every buffer of the step then lives until the cycle
    # collector happens to run
    cfg = DenoiserConfig(variant=variant, model_dim=16, n_heads=2,
                         t_obs=3, l_pred=4, dim=6, k_steps=5)
    model = init_denoiser(cfg, 3)
    rng = np.random.default_rng(0)
    batch = (rng.normal(size=(2, 3, 6)), rng.normal(size=(2, 4, 6)),
             np.array([1, 5]), rng.normal(size=(2, 4, 6)))
    gc.disable()
    try:
        tape = nm.Tape()
        loss, leaves = batch_noise_loss(model, tape, *batch,
                                        build_schedule(5, 0.001, 0.333))
        tape.gradients(loss, leaves)
        alive = weakref.ref(tape)
        del tape, loss, leaves
        assert alive() is None
    finally:
        gc.enable()


def test_backward_bit_deterministic(rng):
    x = rng.normal(size=(4, 8))
    gain = rng.normal(size=(8,)) + 1.0
    bias = rng.normal(size=(8,))
    w = rng.normal(size=(8, 8))

    def run():
        tape = nm.Tape()
        leaves = {"x": tape.param(x), "g": tape.param(gain),
                  "b": tape.param(bias), "w": tape.param(w)}
        h = nm.layer_norm(leaves["x"], leaves["g"], leaves["b"])
        h = nm.relu(nm.matmul(h, leaves["w"]))
        loss = nm.mean_all(nm.mul(nm.softmax_rows(h), h))
        return tape.gradients(loss, leaves)

    first, second = run(), run()
    for key in first:
        assert np.array_equal(first[key], second[key])


def test_non_finite_input_rejected():
    with pytest.raises(NumericsError):
        nm.constant(np.array([1.0, np.nan]))


def test_non_finite_op_output_rejected():
    big = nm.constant(np.array([[1e308, 1e308]]))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        nm.add(big, big)


@pytest.mark.parametrize("count", [0, -3, True, 2.5])
def test_mean_all_rejects_a_count_that_is_not_positive(count):
    with pytest.raises(ContractError, match="mean_all count"):
        nm.mean_all(np.ones(3), count)


def test_tensor_shape_contract():
    t = nm.constant(np.ones((2, 3)))
    assert t.data.shape == (2, 3)
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_pool_never_overwrites_an_array_a_caller_holds(rng):
    # the first output, and a view of it kept after the output itself is
    # dropped, keep their slots busy through later forwards in the pool
    arrays = block_arrays(rng, (4, 3, 8), FEEDFORWARD_PARAMS, 16)
    params = [arrays[n] for n in FEEDFORWARD_PARAMS]
    with nm.buffer_pool():
        held = nm.feedforward(arrays["x"], *params).data
        row = nm.reshape(nm.feedforward(arrays["x"] + 1.0, *params), (12, 8)).data[5]
        expected_held, expected_row = held.copy(), row.copy()
        for _ in range(3):
            later = nm.feedforward(rng.normal(size=arrays["x"].shape), *params).data
            assert not np.shares_memory(later, held) and not np.shares_memory(later, row)
            del later
    np.testing.assert_array_equal(held, expected_held)
    np.testing.assert_array_equal(row, expected_row)


def test_alloc_outside_a_pool_is_a_plain_array():
    assert nm._POOL.get() is None
    assert nm._alloc((2, 3)).flags.owndata
    with nm.buffer_pool():
        assert not nm._alloc((2, 3)).flags.owndata
    assert nm._POOL.get() is None


def test_a_nested_pool_joins_the_open_one():
    # an inner `buffer_pool` hands out the outer pool's slots and leaves it open
    with nm.buffer_pool():
        outer = nm._POOL.get()
        nm._alloc((4, 3))
        with nm.buffer_pool():
            assert nm._POOL.get() is outer
            nm._alloc((3, 4))
        assert nm._POOL.get() is outer and len(outer) == 1
    assert nm._POOL.get() is None


@given(steps=st.lists(st.tuples(st.lists(st.integers(0, 6), max_size=3), st.booleans(),
                                st.integers(0, 3)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_alloc_takes_the_slot_a_linear_scan_takes(steps):
    # each step asks for a shape, keeps its hand-out or drops it at once,
    # and may drop one hand-out kept before; the oracle keeps the slots in
    # size order, a new one after those of its size, and scans them from
    # the smallest for the first free one that fits
    oracle, held = [], []  # oracle: [buffer, weak reference to its last hand-out]
    with nm.buffer_pool():
        for shape, keep, drop in steps:
            nbytes = 8 * math.prod(shape)
            want = next((slot for slot in oracle
                         if len(slot[0]) >= nbytes and slot[1]() is None), None)
            arr = nm._alloc(tuple(shape))
            if want is None:
                assert all(arr.base is not slot[0] for slot in oracle)
                want = [arr.base, None]
                oracle.insert(sum(len(slot[0]) <= nbytes for slot in oracle), want)
            assert arr.base is want[0] and arr.shape == tuple(shape)
            want[1] = weakref.ref(arr)
            if keep:
                held.append(arr)
            del arr
            if held and drop:
                held.pop(drop % len(held))
        pool = nm._POOL.get()
        assert len(pool) == len(oracle)
        assert all(slot[0] is kept[0] for slot, kept in zip(pool, oracle))
        assert pool.sizes == [len(slot[0]) for slot in oracle]
