"""Denoiser architecture: encodings, attention blocks, variant wiring,
parameter inventory, and evaluation-count bookkeeping."""

import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motion_diffusion.numerics as nm
from motion_diffusion import denoiser as dn
from motion_diffusion.denoiser import (OUT_HEAD_SCALE, DenoiserConfig, DenoiserModel,
                                       init_denoiser, param_shapes, positional_encoding)
from motion_diffusion.diffusion import (batch_noise_loss, build_schedule,
                                       sample_stochastic)
from motion_diffusion.errors import (ConfigError, ContractError, DimensionError,
                                     NumericsError)


def toy_config(variant, **over):
    base = dict(variant=variant, model_dim=16, n_heads=2, t_obs=3, l_pred=4,
                dim=5, k_steps=5)
    base.update(over)
    return DenoiserConfig(**base)


def toy_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(cfg.t_obs, cfg.dim)),
            rng.normal(size=(cfg.l_pred, cfg.dim)))


def eval_one(model, obs, fut, k):
    """Noise prediction for one (observation, noised future) pair at step k."""
    return model.eval_batch(obs[None], fut[None], np.array([k]))[0]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            toy_config("cascade")
        with pytest.raises(ConfigError):
            toy_config("series", model_dim=15)  # odd
        with pytest.raises(ConfigError):
            toy_config("series", n_heads=3)  # 16 % 3 != 0
        with pytest.raises(ConfigError):
            toy_config("series", l_pred=0)
        with pytest.raises(ConfigError):
            toy_config("series", t_obs=0)  # no observed rows

    def test_round_trips_through_dict(self):
        cfg = toy_config("parallel")
        assert DenoiserConfig(**asdict(cfg)) == cfg


class TestAssembleInput:
    """The forward stacks observation above future; both must fit the config."""

    def test_requires_observed_rows(self):
        model = init_denoiser(toy_config("series"), seed=0)
        _, fut = toy_inputs(model.config)
        with pytest.raises(DimensionError):
            eval_one(model, np.zeros((0, model.config.dim)), fut, 1)

    def test_rejects_column_mismatch(self):
        model = init_denoiser(toy_config("series"), seed=0)
        obs, fut = toy_inputs(model.config)
        with pytest.raises(DimensionError):
            eval_one(model, obs, fut[:, :4], 1)


class TestPositionalEncoding:
    def test_row_zero_alternates_zero_one(self):
        pe = positional_encoding(4, 8)
        np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_first_pair_uses_unit_frequency(self):
        pe = positional_encoding(3, 8)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-15)
        assert pe[1, 1] == pytest.approx(np.cos(1.0), abs=1e-15)
        assert pe[2, 0] == pytest.approx(np.sin(2.0), abs=1e-15)

    def test_hand_computed_cell(self):
        pe = positional_encoding(9, 16)
        want = np.sin(7.0 * 10000.0 ** (-6.0 / 16.0))
        assert pe[7, 6] == pytest.approx(want, abs=1e-15)

    def test_bounded_by_one(self):
        pe = positional_encoding(50, 32)
        assert np.all(np.abs(pe) <= 1.0)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 7)

    def test_one_shared_read_only_table_per_shape(self):
        # every forward reads the same table, so no caller may write into it
        pe = positional_encoding(6, 8)
        assert positional_encoding(6, 8) is pe
        assert positional_encoding(7, 8) is not pe
        before = pe.copy()
        with pytest.raises(ValueError):
            pe[0, 0] = 2.0
        with pytest.raises(ValueError):
            pe += 1.0
        np.testing.assert_array_equal(positional_encoding(6, 8), before)


def param_count(cfg) -> int:
    return sum(int(np.prod(shape)) for shape in param_shapes(cfg).values())


class TestParameterInventory:
    def test_series_count_closed_form(self):
        # 24 c^2 + (K + 28) c + 1 with c = 16, K = 5
        assert param_count(toy_config("series")) == 6673

    def test_parallel_count_closed_form(self):
        # series minus the single head, plus two heads and the 2->1 fuse
        assert param_count(toy_config("parallel")) == 6693

    def test_count_matches_shape_table(self):
        for variant in ("series", "parallel"):
            cfg = toy_config(variant)
            params = init_denoiser(cfg, seed=0).params
            assert param_count(cfg) == sum(a.size for a in params.values())

    def test_init_matches_shape_table(self):
        cfg = toy_config("parallel")
        model = init_denoiser(cfg, seed=0)
        assert {k: v.shape for k, v in model.params.items()} == param_shapes(cfg)

    def test_variants_differ_only_in_heads(self):
        s = set(param_shapes(toy_config("series")))
        p = set(param_shapes(toy_config("parallel")))
        assert s - p == {"out_w", "out_b"}
        assert p - s == {"out_s_w", "out_s_b", "out_t_w", "out_t_b",
                         "fuse_w", "fuse_b"}


class TestInit:
    def test_seed_determinism(self):
        cfg = toy_config("series")
        a = init_denoiser(cfg, seed=3)
        b = init_denoiser(cfg, seed=3)
        c = init_denoiser(cfg, seed=4)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    def test_structured_defaults(self):
        model = init_denoiser(toy_config("parallel"), seed=0)
        p = model.params
        np.testing.assert_array_equal(p["spat.ln1_g"], np.ones(16))
        np.testing.assert_array_equal(p["temp.ln2_b"], np.zeros(16))
        np.testing.assert_array_equal(p["spat.bq"], np.zeros(16))
        np.testing.assert_array_equal(p["fuse_b"], np.zeros(1))

    def test_output_heads_start_small(self):
        # scaled-down readout keeps the initial loss near the noise energy
        model = init_denoiser(toy_config("parallel"), seed=0)
        glorot = np.sqrt(6.0 / (16 + 1))
        for name in ("out_s_w", "out_t_w"):
            assert np.abs(model.params[name]).max() <= OUT_HEAD_SCALE * glorot

    def test_step_table_spread(self):
        model = init_denoiser(toy_config("series", k_steps=40,
                                         model_dim=64), seed=1)
        emb = model.params["step_emb"]
        assert emb.shape == (41, 64)
        assert 0.015 < emb.std() < 0.025


class TestModelContract:
    def test_closed_name_set(self):
        cfg = toy_config("series")
        good = init_denoiser(cfg, seed=0).params
        extra = dict(good, rogue=np.zeros(3))
        with pytest.raises(ConfigError):
            DenoiserModel(config=cfg, params=extra)
        short = dict(good)
        short.pop("out_w")
        with pytest.raises(ConfigError):
            DenoiserModel(config=cfg, params=short)

    def test_shape_checked(self):
        cfg = toy_config("series")
        good = init_denoiser(cfg, seed=0).params
        bad = dict(good, out_w=np.zeros((16, 2)))
        with pytest.raises(DimensionError):
            DenoiserModel(config=cfg, params=bad)

    def test_non_finite_rejected_at_build(self):
        cfg = toy_config("series")
        good = init_denoiser(cfg, seed=0).params
        bad = {k: v.copy() for k, v in good.items()}
        bad["in_w"][0] = np.nan
        with pytest.raises(ContractError):
            DenoiserModel(config=cfg, params=bad)

    def test_non_finite_after_mutation_fails_forward(self):
        # inference wraps the parameters without scanning them, so the first
        # op that reads a non-finite entry must fail, for every parameter of
        # both variants; step_emb is read at row k only
        k = 2
        for variant in ("series", "parallel"):
            cfg = toy_config(variant)
            obs, fut = toy_inputs(cfg)
            for name in param_shapes(cfg):
                for bad in (np.inf, np.nan):
                    model = init_denoiser(cfg, seed=0)
                    if name == "step_emb":
                        model.params[name][k] = bad
                    else:
                        model.params[name].flat[0] = bad
                    with np.errstate(all="ignore"), pytest.raises(NumericsError):
                        eval_one(model, obs, fut, k)


class TestForward:
    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_shape_and_purity(self, variant):
        cfg = toy_config(variant)
        model = init_denoiser(cfg, seed=2)
        obs, fut = toy_inputs(cfg)
        a = eval_one(model, obs, fut, 3)
        b = eval_one(model, obs, fut, 3)
        assert a.shape == (cfg.l_pred, cfg.dim)
        np.testing.assert_array_equal(a, b)

    def test_eval_count_tracks_batch_size(self):
        cfg = toy_config("series")
        model = init_denoiser(cfg, seed=2)
        obs, fut = toy_inputs(cfg)
        eval_one(model, obs, fut, 1)
        assert model.eval_count == 1
        model.eval_batch(np.broadcast_to(obs, (7,) + obs.shape),
                         np.broadcast_to(fut, (7,) + fut.shape),
                         np.ones(7, dtype=np.intp))
        assert model.eval_count == 8

    def test_observation_count_must_divide_the_batch(self):
        model = init_denoiser(toy_config("series"), seed=0)
        obs, fut = toy_inputs(model.config)
        for m, b in ((2, 3), (3, 1)):
            with pytest.raises(DimensionError):
                model.eval_batch(np.stack([obs] * m), np.stack([fut] * b),
                                 np.ones(b, dtype=np.intp))

    def test_chains_sharing_an_observation_share_its_step(self):
        # the observed frames carry step_emb[k], so they serve one k only
        model = init_denoiser(toy_config("series"), seed=0)
        obs, fut = toy_inputs(model.config)
        with pytest.raises(ContractError):
            model.eval_batch(obs[None], np.stack([fut, fut]), np.array([1, 2]))
        with pytest.raises(ContractError):
            model.eval_batch(np.stack([obs, obs]), np.stack([fut] * 4),
                             np.array([1, 1, 2, 1]))

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_observed_frames_are_encoded_once_per_step(self, variant, monkeypatch):
        # one reverse step: every GEMM of N = 7 chains has 6 * L * D rows more
        # than that of one chain, the rows of the 6 more futures, and none of
        # the observation's T * D rows again; counted at the GEMM helper that
        # `linear` and the fused blocks share
        cfg = toy_config(variant, k_steps=1)
        model = init_denoiser(cfg, seed=3)
        obs, _ = toy_inputs(cfg)
        true_gemm, rows = nm._gemm, []

        def counting(x2, w, b=None):
            rows[-1].append(len(x2))
            return true_gemm(x2, w, b)

        monkeypatch.setattr(nm, "_gemm", counting)
        for n in (1, 7):
            rows.append([])
            sample_stochastic(model, obs, n, 0, build_schedule(1, 0.01, 0.3))
        one, seven = map(np.array, rows)
        # 6 GEMMs per encoder layer, and the readout
        assert one.shape == seven.shape == (13 if variant == "series" else 15,)
        np.testing.assert_array_equal(seven - one, 6 * cfg.l_pred * cfg.dim)

    def test_step_range_guard(self):
        model = init_denoiser(toy_config("series"), seed=0)
        obs, fut = toy_inputs(model.config)
        for k in (0, 6):
            with pytest.raises(ContractError):
                eval_one(model, obs, fut, k)

    def test_shape_guard(self):
        model = init_denoiser(toy_config("series"), seed=0)
        obs, fut = toy_inputs(model.config)
        with pytest.raises(DimensionError):
            eval_one(model, obs[:, :4], fut, 1)
        with pytest.raises(DimensionError):
            eval_one(model, obs, fut[:3], 1)
        with pytest.raises(DimensionError):
            eval_one(model, obs, fut[:, :4], 1)

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_sensitive_to_conditioning(self, variant):
        cfg = toy_config(variant)
        model = init_denoiser(cfg, seed=5)
        obs, fut = toy_inputs(cfg)
        base = eval_one(model, obs, fut, 2)
        moved = obs.copy()
        moved[0, 0] += 1.0
        assert not np.array_equal(eval_one(model, moved, fut, 2), base)

    def test_sensitive_to_step_index(self):
        cfg = toy_config("series")
        model = init_denoiser(cfg, seed=5)
        obs, fut = toy_inputs(cfg)
        assert not np.array_equal(eval_one(model, obs, fut, 1),
                                  eval_one(model, obs, fut, 2))

    def test_attention_runs_both_directions_in_time(self):
        # a change in the last noised frame must reach the first predicted
        # frame, and a change in the first observed frame must reach the
        # last predicted frame
        cfg = toy_config("series")
        model = init_denoiser(cfg, seed=5)
        obs, fut = toy_inputs(cfg)
        base = eval_one(model, obs, fut, 2)

        fut_last = fut.copy()
        fut_last[-1] += 0.5
        assert not np.array_equal(eval_one(model, obs, fut_last, 2)[0], base[0])
        obs_first = obs.copy()
        obs_first[0] += 0.5
        assert not np.array_equal(eval_one(model, obs_first, fut, 2)[-1], base[-1])


# CLI defaults, the shape the group budget is sized for
CLI_SHAPE = dict(model_dim=64, n_heads=4, t_obs=16, l_pred=20, dim=15)


def chain_bytes(cfg):
    """Bytes of one chain's (L * D, model_dim) float64 activation."""
    return cfg.l_pred * cfg.dim * cfg.model_dim * 8


class TestEvalGroups:
    """`eval_batch` runs `_forward` on groups of chains that fit `GROUP_BYTES`."""

    @given(variant=st.sampled_from(["series", "parallel"]), n_heads=st.sampled_from([1, 2]),
           t_obs=st.integers(1, 3), l_pred=st.integers(1, 2), dim=st.integers(1, 3),
           m=st.integers(1, 4), r=st.integers(1, 7), g=st.integers(0, 4),
           spare=st.floats(0.0, 0.99), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_groups_give_the_bytes_of_one_call(self, variant, n_heads, t_obs, l_pred, dim,
                                               m, r, g, spare, seed):
        # a budget of g chains and a remainder: when an observation's r
        # chains fit, each call holds g // r whole observations and the last
        # call the rest; otherwise each observation's chains go in calls of
        # at most g, with that observation alone
        cfg = DenoiserConfig(variant=variant, model_dim=8, n_heads=n_heads, t_obs=t_obs,
                             l_pred=l_pred, dim=dim, k_steps=3)
        model = init_denoiser(cfg, seed)
        rng = np.random.default_rng(seed)
        b = m * r
        p_obs = rng.normal(size=(m, t_obs, dim))
        x_k = rng.normal(size=(b, l_pred, dim))
        ks = np.repeat(rng.integers(1, 4, size=m), r)
        budget = int((g + spare) * chain_bytes(cfg))
        with mock.patch.object(dn, "GROUP_BYTES", budget), \
                mock.patch.object(dn, "_forward", wraps=dn._forward) as calls:
            got = model.eval_batch(p_obs, x_k, ks)
        want = model.forward_batch(model.bind(None), p_obs, x_k, ks).data
        assert got.tobytes() == want.tobytes()
        per_call = max(g, 1)
        if r <= per_call:
            q = per_call // r
            shapes = [(min(q, m - i), min(q, m - i) * r) for i in range(0, m, q)]
        else:
            shapes = [(1, min(per_call, r - j)) for _ in range(m) for j in range(0, r, per_call)]
        assert [(len(c.args[2]), len(c.args[3])) for c in calls.call_args_list] == shapes
        assert model.eval_count == b

    @pytest.mark.parametrize("b", [1, 7, 8, 9, 64, 65])
    def test_one_observation_per_chain_fills_each_call(self, b):
        # one observation per chain (M = B): ceil(B / G) calls of G
        # consecutive chains and the rest in the last call; at CLI defaults
        # G = 8 untaped and 1 in training's taped groups, at a fifth of the
        # budget
        cfg = DenoiserConfig(variant="series", k_steps=20, **CLI_SHAPE)
        for taped, share, want in ((False, 1, 8), (True, 5, 1)):
            g = dn.GROUP_BYTES // share // chain_bytes(cfg)
            assert g == want
            groups = dn._eval_groups(cfg, b, b, taped=taped)
            assert len(groups) == -(-b // g)
            assert [obs for obs, _ in groups] == [chains for _, chains in groups]
            assert [(s.start, s.stop) for _, s in groups] == [
                (i, min(i + g, b)) for i in range(0, b, g)]

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_gemm_rows_stay_within_the_budget(self, variant, monkeypatch):
        # one reverse step of N = 50 chains at CLI defaults: no GEMM sees
        # more than the budget's rows plus the observation's T * D rows
        cfg = DenoiserConfig(variant=variant, k_steps=1, **CLI_SHAPE)
        model = init_denoiser(cfg, seed=0)
        true_gemm, rows = nm._gemm, []

        def counting(x2, w, b=None):
            rows.append(len(x2))
            return true_gemm(x2, w, b)

        monkeypatch.setattr(nm, "_gemm", counting)
        obs = np.random.default_rng(0).normal(size=(cfg.t_obs, cfg.dim))
        sample_stochastic(model, obs, 50, 0, build_schedule(1, 0.01, 0.3))
        budget_rows = dn.GROUP_BYTES // (cfg.model_dim * 8)
        assert max(rows) <= budget_rows + cfg.t_obs * cfg.dim

    def test_sampling_memory_does_not_grow_with_n(self):
        # at CLI defaults N = 64 runs as 8 calls the size of the one N = 8
        # call; as one call its traced peak was 7.8 times N = 8's
        cfg = DenoiserConfig(variant="series", k_steps=1, **CLI_SHAPE)
        model = init_denoiser(cfg, seed=0)
        obs = np.random.default_rng(0).normal(size=(cfg.t_obs, cfg.dim))
        sched = build_schedule(1, 0.01, 0.3)
        peaks = []
        for n in (8, 64):
            tracemalloc.start()
            try:
                sample_stochastic(model, obs, n, 0, sched)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_counters_do_not_see_the_groups(self, monkeypatch):
        # N * K evaluations and one eval_batch call per reverse step, with
        # or without groups
        cfg = toy_config("parallel", k_steps=3)
        obs, _ = toy_inputs(cfg)
        sched = build_schedule(3, 0.01, 0.3)
        counts = []
        for budget in (dn.GROUP_BYTES, 2 * chain_bytes(cfg)):
            model = init_denoiser(cfg, seed=1)
            monkeypatch.setattr(dn, "GROUP_BYTES", budget)
            monkeypatch.setattr(model, "eval_batch", mock.Mock(wraps=model.eval_batch))
            samples = sample_stochastic(model, obs, 7, 0, sched).samples
            counts.append((model.eval_count, model.eval_batch.call_count, samples.tobytes()))
        assert counts[0] == counts[1]
        assert counts[0][:2] == (7 * 3, 3)


# Reference forward built from the primitive public ops.  Unlike `_forward`
# it runs every frame as a query in every layer, projects with matmul + add
# and composes attention from matmul/softmax_rows, and keeps the future
# rows only at the very end.


def reference_attention(q, k, v, n_heads):
    m, s, c = q.data.shape
    hd = c // n_heads

    def heads(t):
        return nm.transpose(nm.reshape(t, (m, s, n_heads, hd)), (0, 2, 1, 3))

    scores = nm.scale(nm.matmul(heads(q), nm.transpose(heads(k), (0, 1, 3, 2))),
                      1.0 / np.sqrt(hd))
    ctx = nm.matmul(nm.softmax_rows(scores), heads(v))
    return nm.reshape(nm.transpose(ctx, (0, 2, 1, 3)), (m, s, c))


def reference_forward(cfg, leaves, p_obs, x_k, ks):
    b, t, d = p_obs.shape
    l, c = cfg.l_pred, cfg.model_dim
    s = t + l

    def affine(x, w, bias=None):
        y = nm.matmul(x, leaves[w])
        return y if bias is None else nm.add(y, leaves[bias])

    def layer(x, prefix):
        h = nm.layer_norm(x, leaves[f"{prefix}.ln1_g"], leaves[f"{prefix}.ln1_b"])
        ctx = reference_attention(affine(h, f"{prefix}.wq", f"{prefix}.bq"),
                                  affine(h, f"{prefix}.wk"),
                                  affine(h, f"{prefix}.wv", f"{prefix}.bv"),
                                  cfg.n_heads)
        x = nm.add(x, affine(ctx, f"{prefix}.wo", f"{prefix}.bo"))
        h = nm.layer_norm(x, leaves[f"{prefix}.ln2_g"], leaves[f"{prefix}.ln2_b"])
        h = nm.relu(affine(h, f"{prefix}.ff1_w", f"{prefix}.ff1_b"))
        return nm.add(x, affine(h, f"{prefix}.ff2_w", f"{prefix}.ff2_b"))

    def spatial(feat):
        return nm.reshape(layer(nm.reshape(feat, (b * s, d, c)), "spat"), (b, s, d, c))

    def temporal(feat):
        tokens = nm.reshape(nm.transpose(feat, (0, 2, 1, 3)), (b * d, s, c))
        return nm.transpose(nm.reshape(layer(tokens, "temp"), (b, d, s, c)),
                            (0, 2, 1, 3))

    cells = np.concatenate([p_obs, x_k], axis=1)[..., None]
    feat = nm.add(nm.mul(nm.constant(cells), leaves["in_w"]), leaves["in_b"])
    feat = nm.add(feat, nm.constant(positional_encoding(s, c)[:, None, :]))
    feat = nm.add(feat, nm.constant(positional_encoding(d, c)))
    feat = nm.add(feat, nm.reshape(nm.take_rows(leaves["step_emb"], ks), (b, 1, 1, c)))
    if cfg.variant == "series":
        y = affine(temporal(spatial(feat)), "out_w", "out_b")
    else:
        both = nm.concat([affine(spatial(feat), "out_s_w", "out_s_b"),
                          affine(temporal(feat), "out_t_w", "out_t_b")], axis=-1)
        y = affine(both, "fuse_w", "fuse_b")
    return nm.reshape(nm.narrow(y, axis=1, start=t, length=l), (b, l, d))


class ReferenceModel:
    """Duck-typed model that routes `batch_noise_loss` through the reference."""

    def __init__(self, model):
        self.model = model

    def bind(self, tape):
        return self.model.bind(tape)

    def forward_batch(self, leaves, p_obs, x_k, ks):
        return reference_forward(self.model.config, leaves, p_obs, x_k, ks)


def random_batch(cfg, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, cfg.t_obs, cfg.dim)),
            rng.normal(size=(n, cfg.l_pred, cfg.dim)),
            rng.integers(1, cfg.k_steps + 1, size=n),
            rng.standard_normal((n, cfg.l_pred, cfg.dim)))


class TestMatchesReferenceForward:
    """Future-only rows give what a full-row forward gives on the future frames."""

    # (batch size B, observations M, config overrides); M < B shares each
    # observation among B / M chains, which the reference gets repeated
    @pytest.mark.parametrize("n, m, over", [
        pytest.param(1, 1, {}, id="1"), pytest.param(50, 50, {}, id="50"),
        pytest.param(50, 1, {}, id="50-shared"), pytest.param(6, 2, {}, id="6-by-2"),
        # T * D = 1: the observed frames reach each GEMM as one row
        pytest.param(6, 1, dict(t_obs=1, dim=1), id="6-shared-TD1")])
    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_eval_batch(self, variant, n, m, over):
        cfg = toy_config(variant, **over)
        model = init_denoiser(cfg, seed=12)
        p_obs, x_k, ks, _ = random_batch(cfg, n, seed=13)
        p_obs, ks = p_obs[:m], np.repeat(ks[:m], n // m)
        got = model.eval_batch(p_obs, x_k, ks)
        want = reference_forward(cfg, model.bind(None), np.repeat(p_obs, n // m, axis=0),
                                 x_k, ks).data
        assert got.shape == (n, cfg.l_pred, cfg.dim)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_loss_and_gradients(self, variant, n):
        cfg = toy_config(variant)
        model = init_denoiser(cfg, seed=14)
        sched = build_schedule(cfg.k_steps, 0.001, 0.333)
        p_obs, p_gt, ks, eps = random_batch(cfg, n, seed=15)
        results = []
        for m in (model, ReferenceModel(model)):
            tape = nm.Tape()
            value, leaves = batch_noise_loss(m, tape, p_obs, p_gt, ks, eps, sched)
            results.append((float(value.data), tape.gradients(value, leaves)))
        (loss, grads), (ref_loss, ref_grads) = results
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        for name in model.params:
            np.testing.assert_allclose(grads[name], ref_grads[name],
                                       rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant, records", [("series", 16), ("parallel", 20)])
def test_training_step_tape_records(variant, records):
    # both layers attend in place on the frame list: no transposed copies;
    # each encoder layer is one attention_block and one feedforward record;
    # the step embedding is gathered into its (M, 1, 1, C) shape in one record;
    # backward releases every pullback and keeps every record
    cfg = toy_config(variant)
    tape = nm.Tape()
    loss, leaves = batch_noise_loss(init_denoiser(cfg, seed=2), tape,
                                    *random_batch(cfg, 3, seed=4),
                                    build_schedule(cfg.k_steps, 0.001, 0.333))
    names = [rec.name for rec in tape.records]
    assert len(names) == records
    assert "transpose" not in names
    assert names.count("attention_block") == names.count("feedforward") == 2
    tape.gradients(loss, leaves)
    assert len(tape.records) == records
    assert [rec.pullback for rec in tape.records] == [None] * records


@pytest.mark.parametrize("t_obs, l_pred, dim, model_dim",
                         [(1, 2, 6, 8), (2, 3, 3, 8), (1, 5, 3, 16)])
@pytest.mark.parametrize("variant", ["series", "parallel"])
def test_first_sample_independent_of_n(variant, t_obs, l_pred, dim, model_dim):
    # small shapes where the readout's row count used to change sample 0
    cfg = DenoiserConfig(variant=variant, model_dim=model_dim, n_heads=2,
                         t_obs=t_obs, l_pred=l_pred, dim=dim, k_steps=3)
    model = init_denoiser(cfg, seed=1)
    sched = build_schedule(3, 0.01, 0.3)
    obs = np.random.default_rng(0).normal(size=(t_obs, dim))
    one = sample_stochastic(model, obs, 1, 8, sched).samples[0]
    five = sample_stochastic(model, obs, 5, 8, sched).samples[0]
    np.testing.assert_array_equal(one, five)


class TestEncoderLayer:
    def test_token_permutation_equivariance(self, rng):
        # no positional information lives inside the layer itself
        model = init_denoiser(toy_config("series"), seed=6)
        leaves = model.bind(None)
        tokens = rng.normal(size=(2, 6, 16))
        out = dn._encoder_layer(nm.constant(tokens), leaves, "spat", 2, axis=-2).data
        perm = rng.permutation(6)
        out_p = dn._encoder_layer(nm.constant(tokens[:, perm]), leaves,
                                  "spat", 2, axis=-2).data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-12)

    def test_frame_permutation_equivariance(self, rng):
        # the temporal layer's tokens are the frames on axis -3 of (B, S, D, C)
        model = init_denoiser(toy_config("series"), seed=6)
        leaves = model.bind(None)
        feat = rng.normal(size=(2, 6, 3, 16))
        out = dn._encoder_layer(nm.constant(feat), leaves, "temp", 2, axis=-3).data
        perm = rng.permutation(6)
        out_p = dn._encoder_layer(nm.constant(feat[:, perm]), leaves,
                                  "temp", 2, axis=-3).data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-12)

    def test_residual_path_preserves_scale(self, rng):
        # residual blocks keep outputs near inputs at small init
        model = init_denoiser(toy_config("series"), seed=6)
        leaves = model.bind(None)
        tokens = rng.normal(size=(2, 6, 16))
        out = dn._encoder_layer(nm.constant(tokens), leaves, "temp", 2, axis=-2).data
        assert np.abs(out - tokens).max() < 10.0


class TestParallelFusion:
    def make(self):
        cfg = toy_config("parallel")
        model = init_denoiser(cfg, seed=9)
        obs, fut = toy_inputs(cfg, seed=1)
        return model, obs, fut

    def run_with_fuse(self, model, obs, fut, w, b=0.0):
        model.params["fuse_w"][:] = np.asarray(w, dtype=np.float64)[:, None]
        model.params["fuse_b"][:] = b
        return eval_one(model, obs, fut, 2)

    def test_unit_weights_select_one_branch(self):
        model, obs, fut = self.make()
        spat = self.run_with_fuse(model, obs, fut, [1.0, 0.0])
        temp = self.run_with_fuse(model, obs, fut, [0.0, 1.0])
        assert not np.array_equal(spat, temp)

    def test_fusion_is_linear_in_branches(self):
        model, obs, fut = self.make()
        spat = self.run_with_fuse(model, obs, fut, [1.0, 0.0])
        temp = self.run_with_fuse(model, obs, fut, [0.0, 1.0])
        mean = self.run_with_fuse(model, obs, fut, [0.5, 0.5])
        np.testing.assert_allclose(mean, 0.5 * (spat + temp), atol=1e-12)

    def test_fusion_bias_shifts_output(self):
        model, obs, fut = self.make()
        base = self.run_with_fuse(model, obs, fut, [1.0, 0.0], b=0.0)
        lifted = self.run_with_fuse(model, obs, fut, [1.0, 0.0], b=2.0)
        np.testing.assert_array_equal(lifted, base + 2.0)

    def test_branches_share_the_trunk(self):
        # zero both branch heads: fused output reduces to the bias
        model, obs, fut = self.make()
        for name in ("out_s_w", "out_s_b", "out_t_w", "out_t_b"):
            model.params[name][:] = 0.0
        out = self.run_with_fuse(model, obs, fut, [1.0, 1.0], b=0.25)
        np.testing.assert_allclose(out, 0.25, atol=1e-15)
