"""Adam updates, training-loop reproducibility, divergence handling,
and checkpoint persistence."""

import contextlib
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import motion_diffusion as md
import motion_diffusion.numerics as nm
import motion_diffusion.training as training
from conftest import edit_header, sealed
from motion_diffusion import denoiser as dn
from motion_diffusion.errors import (ConfigError, ContractError, DimensionError,
                                     IntegrityError, NumericsError, TrainingDivergedError)
from motion_diffusion.gradcheck import TOY_CONFIG as GRADCHECK_TOY
from motion_diffusion.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig,
                                       adam_step, initial_checkpoint)


def toy_den_cfg(variant="series", **over):
    base = dict(variant=variant, model_dim=16, n_heads=2, t_obs=3, l_pred=4,
                dim=5, k_steps=5)
    base.update(over)
    return md.DenoiserConfig(**base)


def toy_tasks(cfg, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return [md.PredictionTask(rng.normal(size=(cfg.t_obs, cfg.dim)),
                              rng.normal(size=(cfg.l_pred, cfg.dim)))
            for _ in range(n)]


def toy_sched(cfg):
    return md.build_schedule(cfg.k_steps, 0.02, 0.3)


def named(path, fragment):
    """A pattern for an error message that starts with the file's path."""
    return rf"^{re.escape(str(path))}: .*{fragment}"


def chain_bytes(cfg):
    """Bytes of one chain's (L * D, model_dim) float64 activation."""
    return cfg.l_pred * cfg.dim * cfg.model_dim * 8


def quick_train(variant="series", iterations=20, seed=3, **over):
    cfg = toy_den_cfg(variant)
    tr = TrainConfig(batch_size=8, iterations=iterations, lr=1e-3, seed=seed,
                     checkpoint_every=10, **over)
    tasks = toy_tasks(cfg)
    return md.train(tasks, cfg, tr, toy_sched(cfg)), cfg, tr, tasks


class TestAdam:
    def opt_cfg(self, **over):
        base = dict(batch_size=1, iterations=1, lr=0.01, seed=0)
        base.update(over)
        return TrainConfig(**base)

    def fresh(self, values):
        params = {k: np.array(v, dtype=np.float64) for k, v in values.items()}
        zeros = lambda: {k: np.zeros_like(a) for k, a in params.items()}
        return params, zeros(), zeros()

    def test_zero_gradient_is_identity(self):
        params, m, v = self.fresh({"w": [1.0, -2.0]})
        before = params["w"].copy()
        adam_step(params, {"w": np.zeros(2)}, m, v, 1, self.opt_cfg())
        np.testing.assert_array_equal(params["w"], before)
        np.testing.assert_array_equal(m["w"], np.zeros(2))

    def test_matches_textbook_recurrence(self):
        # independent scalar implementation straight from the update rule
        cfg = self.opt_cfg(lr=0.05)
        params, m, v = self.fresh({"w": [0.3]})
        theta, m_ref, v_ref = 0.3, 0.0, 0.0
        for t in range(1, 51):
            g = np.sin(0.7 * t)
            m_ref = ADAM_BETA1 * m_ref + (1 - ADAM_BETA1) * g
            v_ref = ADAM_BETA2 * v_ref + (1 - ADAM_BETA2) * g * g
            m_hat = m_ref / (1 - ADAM_BETA1 ** t)
            v_hat = v_ref / (1 - ADAM_BETA2 ** t)
            theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            adam_step(params, {"w": np.array([g])}, m, v, t, cfg)
            assert params["w"][0] == pytest.approx(theta, abs=1e-15)

    def test_constant_gradient_step_size_approaches_lr(self):
        cfg = self.opt_cfg(lr=0.01)
        params, m, v = self.fresh({"w": [0.0]})
        for t in range(1, 400):
            prev = params["w"][0]
            adam_step(params, {"w": np.array([3.7])}, m, v, t, cfg)
        assert abs(prev - params["w"][0]) == pytest.approx(cfg.lr, rel=1e-6)

    def test_update_is_deterministic(self):
        cfg = self.opt_cfg()
        g = {"w": np.array([0.5, -0.25])}
        pa, ma, va = self.fresh({"w": [1.0, 1.0]})
        pb, mb, vb = self.fresh({"w": [1.0, 1.0]})
        adam_step(pa, g, ma, va, 1, cfg)
        adam_step(pb, g, mb, vb, 1, cfg)
        np.testing.assert_array_equal(pa["w"], pb["w"])

    def test_name_sets_must_match(self):
        params, m, v = self.fresh({"w": [1.0]})
        with pytest.raises(ContractError):
            adam_step(params, {"x": np.array([1.0])}, m, v, 1, self.opt_cfg())

    def test_step_count_must_be_positive(self):
        params, m, v = self.fresh({"w": [1.0]})
        with pytest.raises(ContractError):
            adam_step(params, {"w": np.array([1.0])}, m, v, 0, self.opt_cfg())

    def test_non_finite_gradient_aborts(self):
        params, m, v = self.fresh({"w": [1.0]})
        with pytest.raises(TrainingDivergedError) as err:
            adam_step(params, {"w": np.array([np.nan])}, m, v, 3, self.opt_cfg())
        assert "'w'" in str(err.value)
        assert err.value.iteration == 3

    @pytest.mark.parametrize("big", [1e200, np.nan])
    def test_non_finite_clip_norm_aborts(self, big):
        # 1e200 is finite but its square is not: the norm of inf would scale
        # every gradient to 0 and the step would end as if nothing diverged
        params, m, v = self.fresh({"w": [1.0, 1.0], "b": [0.5]})
        grads = {"w": np.array([big, -big]), "b": np.array([0.25])}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError, match="gradient norm") as err:
            adam_step(params, grads, m, v, 7, self.opt_cfg(grad_clip=1.0))
        assert err.value.iteration == 7
        for name, start in {"w": [1.0, 1.0], "b": [0.5]}.items():
            np.testing.assert_array_equal(params[name], start)
        assert not any(np.any(a) for a in (*m.values(), *v.values()))

    def test_clip_equals_prescaled_gradients(self):
        grads = {"a": np.array([30.0, 40.0]), "b": np.array([120.0])}
        total = np.sqrt(30.0 ** 2 + 40.0 ** 2 + 120.0 ** 2)
        clipped = {k: g * (5.0 / total) for k, g in grads.items()}
        pa, ma, va = self.fresh({"a": [1.0, 1.0], "b": [2.0]})
        pb, mb, vb = self.fresh({"a": [1.0, 1.0], "b": [2.0]})
        adam_step(pa, grads, ma, va, 1, self.opt_cfg(grad_clip=5.0))
        adam_step(pb, clipped, mb, vb, 1, self.opt_cfg())
        for k in pa:
            np.testing.assert_array_equal(pa[k], pb[k])

    def test_clip_inactive_below_threshold(self):
        g = {"w": np.array([0.1])}
        pa, ma, va = self.fresh({"w": [1.0]})
        pb, mb, vb = self.fresh({"w": [1.0]})
        adam_step(pa, g, ma, va, 1, self.opt_cfg(grad_clip=100.0))
        adam_step(pb, g, mb, vb, 1, self.opt_cfg())
        np.testing.assert_array_equal(pa["w"], pb["w"])


class TestTrainConfig:
    def test_validation(self):
        for kw in (dict(batch_size=0), dict(lr=0.0), dict(lr=float("inf")),
                   dict(grad_clip=-1.0), dict(grad_clip=float("nan")), dict(iterations=0)):
            with pytest.raises(ConfigError):
                TrainConfig(**kw)


class TestTrainLoop:
    def test_initial_loss_near_noise_energy(self):
        # small output heads leave eps_hat ~ 0, so the first loss is the
        # mean square of unit noise: 1 within sampling error
        cfg = toy_den_cfg()
        tr = TrainConfig(batch_size=64, iterations=1, lr=1e-4, seed=0)
        result = md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg))
        assert abs(result.losses[0] - 1.0) < 0.2

    def test_seed_reproduces_run_bit_for_bit(self):
        a, cfg, _, _ = quick_train(seed=3)
        b, _, _, _ = quick_train(seed=3)
        assert a.losses == b.losses
        for name in a.model.params:
            np.testing.assert_array_equal(a.model.params[name],
                                          b.model.params[name])

    def test_seed_changes_run(self):
        a, _, _, _ = quick_train(seed=3)
        b, _, _, _ = quick_train(seed=4)
        assert a.losses != b.losses

    def test_resume_matches_uninterrupted_run(self):
        full, cfg, tr20, tasks = quick_train(iterations=20, seed=5)
        half, _, _, _ = quick_train(iterations=10, seed=5)
        tr_resume = replace(tr20, iterations=20)
        cont = md.train(tasks, cfg, tr_resume, toy_sched(cfg),
                        start=half.checkpoint)
        assert cont.losses == full.losses[10:]
        for name in full.model.params:
            np.testing.assert_array_equal(cont.model.params[name],
                                          full.model.params[name])
            np.testing.assert_array_equal(cont.checkpoint.adam_m[name],
                                          full.checkpoint.adam_m[name])
            np.testing.assert_array_equal(cont.checkpoint.adam_v[name],
                                          full.checkpoint.adam_v[name])

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_fresh_run_is_a_resume_from_iteration_zero(self, variant):
        cfg = toy_den_cfg(variant)
        tasks = toy_tasks(cfg)
        norm = md.fit_normalizer(tasks)
        tr = TrainConfig(batch_size=8, iterations=12, lr=1e-3, seed=5,
                         checkpoint_every=5)
        fresh = md.train(tasks, cfg, tr, toy_sched(cfg), normalizer=norm)
        start = initial_checkpoint(cfg, toy_sched(cfg), norm, tr.seed)
        assert start.iteration == 0
        resumed = md.train(tasks, cfg, tr, toy_sched(cfg), start=start)
        assert [x.hex() for x in resumed.losses] == [x.hex() for x in fresh.losses]
        a, b = fresh.checkpoint, resumed.checkpoint
        assert a.rng_state == b.rng_state
        for group in ("params", "adam_m", "adam_v"):
            for name, arr in getattr(a, group).items():
                assert getattr(b, group)[name].tobytes() == arr.tobytes(), (group, name)

    def test_resume_past_target_rejected(self):
        ten, cfg, tr, tasks = quick_train(iterations=10, seed=5)
        tr5 = replace(tr, iterations=5)
        with pytest.raises(ConfigError, match="past the target"):
            md.train(tasks, cfg, tr5, toy_sched(cfg), start=ten.checkpoint)

    def test_resume_at_target_returns_checkpoint_unchanged(self):
        ten, cfg, tr, tasks = quick_train(iterations=10, seed=5)
        again = md.train(tasks, cfg, tr, toy_sched(cfg), start=ten.checkpoint)
        assert again.losses == []
        assert again.checkpoint.iteration == 10
        for name in ten.model.params:
            np.testing.assert_array_equal(again.model.params[name],
                                          ten.model.params[name])

    def test_resume_keeps_the_checkpoint_normalizer(self):
        cfg = toy_den_cfg()
        tasks = toy_tasks(cfg)
        norm = md.fit_normalizer(tasks)
        tr = TrainConfig(batch_size=4, iterations=6, lr=1e-3, seed=7,
                         checkpoint_every=3)
        first = md.train(tasks, cfg, tr, toy_sched(cfg), normalizer=norm)
        tr_more = replace(tr, iterations=9)
        equal = md.Normalizer(mean=norm.mean.copy(), std=norm.std.copy())
        for passed in (None, equal):
            cont = md.train(tasks, cfg, tr_more, toy_sched(cfg),
                            normalizer=passed, start=first.checkpoint)
            np.testing.assert_array_equal(cont.checkpoint.normalizer.mean, norm.mean)
            np.testing.assert_array_equal(cont.checkpoint.normalizer.std, norm.std)

    @pytest.mark.parametrize("with_norm", [True, False], ids=["other", "unexpected"])
    def test_resume_with_a_different_normalizer_rejected(self, with_norm):
        cfg = toy_den_cfg()
        tasks = toy_tasks(cfg)
        tr = TrainConfig(batch_size=4, iterations=3, lr=1e-3, seed=7)
        first = md.train(tasks, cfg, tr, toy_sched(cfg),
                         normalizer=md.fit_normalizer(tasks) if with_norm else None)
        other = md.fit_normalizer(toy_tasks(cfg, seed=1))
        tr_more = replace(tr, iterations=6)
        with pytest.raises(ConfigError, match="normalizer"):
            md.train(tasks, cfg, tr_more, toy_sched(cfg), normalizer=other,
                     start=first.checkpoint)

    @pytest.mark.parametrize("bounds", [(0.02, 0.2), (0.01, 0.3)])
    def test_resume_with_a_different_schedule_rejected(self, bounds):
        ten, cfg, tr, tasks = quick_train(iterations=10, seed=5)
        tr20 = replace(tr, iterations=20)
        with pytest.raises(ConfigError, match="schedule"):
            md.train(tasks, cfg, tr20, md.build_schedule(cfg.k_steps, *bounds),
                     start=ten.checkpoint)

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_every_tensor_gets_gradient_signal(self, variant):
        cfg = toy_den_cfg(variant)
        tr = TrainConfig(batch_size=8, iterations=100, lr=1e-3, seed=1)
        result = md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg))
        quiet = [name for name, mom in result.checkpoint.adam_m.items()
                 if not np.any(mom)]
        assert quiet == []

    def test_divergence_carries_last_good_checkpoint(self):
        cfg = toy_den_cfg()
        tr = TrainConfig(batch_size=8, iterations=200, lr=1e6, seed=2,
                         checkpoint_every=1)
        with pytest.raises(TrainingDivergedError) as err:
            md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg))
        exc = err.value
        assert "iteration" in str(exc)
        assert exc.checkpoint is not None
        assert exc.checkpoint.iteration < exc.iteration
        rebuilt = exc.checkpoint.build_model()
        assert set(rebuilt.params) == set(md.param_shapes(cfg))

    def test_divergence_before_a_snapshot_carries_the_start(self):
        cfg = toy_den_cfg()
        tr = TrainConfig(batch_size=8, iterations=200, lr=1e6, seed=2,
                         checkpoint_every=1000)
        start = initial_checkpoint(cfg, toy_sched(cfg), md.Normalizer.identity(cfg.dim), 2)
        with pytest.raises(TrainingDivergedError) as err:
            md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg), start=start)
        assert err.value.checkpoint.iteration == 0
        assert err.value.checkpoint.rng_state == start.rng_state

    def assert_finite(self, ckpt):
        for tensors in (ckpt.params, ckpt.adam_m, ckpt.adam_v):
            for name, arr in tensors.items():
                assert np.all(np.isfinite(arr)), name

    def test_op_overflow_names_the_iteration(self):
        # an lr of 1e300 leaves huge but finite weights, and the next
        # iteration's own ops overflow on them
        cfg = toy_den_cfg()
        tr = TrainConfig(batch_size=8, iterations=200, lr=1e300, seed=3, checkpoint_every=1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError) as err:
            md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg))
        exc = err.value
        assert isinstance(exc.__cause__, NumericsError)
        assert str(exc).count("(iteration") == 1
        assert exc.checkpoint.iteration == exc.iteration - 1
        self.assert_finite(exc.checkpoint)

    def test_overflowing_last_update_raises_with_the_start(self):
        # poses far outside the normalized range give gradients above 1,
        # so lr * m / (1 - beta1) passes the largest float
        cfg = toy_den_cfg()
        tasks = [md.PredictionTask(100 * t.p_obs, 100 * t.p_gt) for t in toy_tasks(cfg)]
        tr = TrainConfig(batch_size=8, iterations=1, lr=1e308, seed=3)
        start = initial_checkpoint(cfg, toy_sched(cfg), md.Normalizer.identity(cfg.dim), 3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError) as err:
            md.train(tasks, cfg, tr, toy_sched(cfg), start=start)
        exc = err.value
        assert exc.iteration == tr.iterations
        assert "non-finite" in str(exc) and str(exc).count("(iteration") == 1
        assert exc.checkpoint is start

    def test_non_finite_gradient_names_the_iteration_once(self, monkeypatch):
        gradients = nm.Tape.gradients

        def poisoned(tape, loss, named):
            grads = gradients(tape, loss, named)
            grads["in_w"] = np.full_like(grads["in_w"], np.nan)
            return grads

        monkeypatch.setattr(nm.Tape, "gradients", poisoned)
        cfg = toy_den_cfg()
        tr = TrainConfig(batch_size=8, iterations=3, lr=1e-3, seed=3)
        with pytest.raises(TrainingDivergedError) as err:
            md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg))
        assert "'in_w'" in str(err.value)
        assert str(err.value).count("(iteration") == 1
        # the first gradient is poisoned: the run stops at once, with its start
        assert err.value.iteration == 1 and err.value.checkpoint.iteration == 0

    def test_input_validation(self):
        cfg = toy_den_cfg()
        tr = TrainConfig(batch_size=2, iterations=1, seed=0)
        sched = toy_sched(cfg)
        with pytest.raises(ContractError):
            md.train([], cfg, tr, sched)
        with pytest.raises(DimensionError):
            md.train([md.PredictionTask(np.zeros((4, 5)), np.zeros((4, 5)))],
                     cfg, tr, sched)
        with pytest.raises(ConfigError):
            md.train(toy_tasks(cfg), cfg, tr, md.build_schedule(7, 0.02, 0.3))

    def test_step_tape_dies_before_the_next_forward(self, monkeypatch):
        # each record's pullback holds its group's activations: a tape alive
        # through the next group's forward doubles the resident activations;
        # a batch of 8 runs one loss per step in one group, 3 in groups of 3
        # (a taped group gets a fifth of the budget)
        true_loss = training.batch_noise_loss
        for group, per_step in ((8, 1), (3, 3)):
            tapes = []

            def loss(model, tape, *args):
                assert [t() for t in tapes] == [None] * len(tapes)
                tapes.append(weakref.ref(tape))
                return true_loss(model, tape, *args)

            monkeypatch.setattr(dn, "GROUP_BYTES", 5 * group * chain_bytes(toy_den_cfg()))
            monkeypatch.setattr(training, "batch_noise_loss", loss)
            quick_train(iterations=3)
            assert len(tapes) == 3 * per_step

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_peak_memory_does_not_grow_with_steps(self, variant):
        # tracemalloc sees numpy's buffers: a second step must not hold the
        # first step's activations beside its own
        cfg = toy_den_cfg(variant)
        tasks = toy_tasks(cfg)

        def traced_peak(iterations):
            tr = TrainConfig(batch_size=16, iterations=iterations, lr=1e-3, seed=0)
            tracemalloc.start()
            try:
                md.train(tasks, cfg, tr, toy_sched(cfg))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = traced_peak(1), traced_peak(2)
        assert two < 1.25 * one, (one, two)

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_peak_memory_does_not_grow_with_groups(self, variant, monkeypatch):
        # a batch of 4 groups holds one group's activations at a time; run
        # as one call, its traced peak was 3.0-3.1 times one group's
        cfg = toy_den_cfg(variant)
        tasks = toy_tasks(cfg)
        monkeypatch.setattr(dn, "GROUP_BYTES", 8 * chain_bytes(cfg))
        md.train(tasks, cfg, TrainConfig(batch_size=8, iterations=1, seed=0),
                 toy_sched(cfg))                       # first-call allocations

        def traced_peak(batch_size):
            tr = TrainConfig(batch_size=batch_size, iterations=1, lr=1e-3, seed=0)
            tracemalloc.start()
            try:
                md.train(tasks, cfg, tr, toy_sched(cfg))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = traced_peak(8), traced_peak(32)
        assert four <= 1.5 * one, (one, four)

    def test_result_checkpoint_rebuilds_the_model(self):
        result, _, _, _ = quick_train(iterations=5)
        rebuilt = result.checkpoint.build_model()
        for name in result.model.params:
            np.testing.assert_array_equal(rebuilt.params[name],
                                          result.model.params[name])


def step_draws(tasks, cfg, tr, sched):
    """Each iteration's (p_obs, p_gt, ks, eps), drawn from the root stream as `train` does."""
    rng = np.random.default_rng()
    rng.bit_generator.state = initial_checkpoint(
        cfg, sched, md.Normalizer.identity(cfg.dim), tr.seed).rng_state
    obs = np.stack([t.p_obs for t in tasks])
    gt = np.stack([t.p_gt for t in tasks])
    for _ in range(tr.iterations):
        idx = rng.integers(0, len(tasks), size=tr.batch_size)
        ks = rng.integers(1, sched.k_steps + 1, size=tr.batch_size)
        eps = rng.standard_normal((tr.batch_size, cfg.l_pred, cfg.dim))
        yield obs[idx], gt[idx], ks, eps


def whole_batch_step(params, cfg, batch, sched):
    """(loss, gradients) of one `batch_noise_loss` over the whole batch, on one tape."""
    tape = nm.Tape()
    loss, leaves = md.batch_noise_loss(md.DenoiserModel(cfg, dict(params)), tape,
                                       *batch, sched)
    return float(loss.data), tape.gradients(loss, leaves)


class TestGroupedSteps:
    """`train` against a whole-batch oracle: one tape and one backward per step."""

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_one_group_gives_the_bytes_of_the_whole_batch(self, variant):
        cfg = toy_den_cfg(variant)
        tasks, sched = toy_tasks(cfg), toy_sched(cfg)
        tr = TrainConfig(batch_size=8, iterations=3, lr=1e-3, seed=3)
        assert len(dn._eval_groups(cfg, 8, 8)) == 1
        got = md.train(tasks, cfg, tr, sched)

        params = dict(initial_checkpoint(cfg, sched, md.Normalizer.identity(cfg.dim),
                                         tr.seed).params)
        m = {k: np.zeros_like(a) for k, a in params.items()}
        v = {k: np.zeros_like(a) for k, a in params.items()}
        losses = []
        for it, batch in enumerate(step_draws(tasks, cfg, tr, sched), 1):
            loss, grads = whole_batch_step(params, cfg, batch, sched)
            adam_step(params, grads, m, v, it, tr)
            losses.append(loss)
        assert [x.hex() for x in got.losses] == [x.hex() for x in losses]
        for group, want in (("params", params), ("adam_m", m), ("adam_v", v)):
            for name, arr in want.items():
                assert getattr(got.checkpoint, group)[name].tobytes() == arr.tobytes(), \
                    (group, name)

    @pytest.mark.parametrize("group, n_groups", [(4, 2), (3, 3)])
    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_summed_groups_match_the_whole_batch(self, variant, group, n_groups,
                                                 monkeypatch):
        # only the sums over rows change association: each gradient stays
        # within 1e-12 of its tensor's largest entry
        cfg = toy_den_cfg(variant)
        tasks, sched = toy_tasks(cfg), toy_sched(cfg)
        tr = TrainConfig(batch_size=8, iterations=3, lr=1e-3, seed=3)
        monkeypatch.setattr(dn, "GROUP_BYTES", group * chain_bytes(cfg))
        assert len(dn._eval_groups(cfg, 8, 8)) == n_groups
        seen = []

        def capture(params, grads, m, v, t, cfg_):
            seen.append(({k: a.copy() for k, a in params.items()}, grads))
            adam_step(params, grads, m, v, t, cfg_)

        monkeypatch.setattr(training, "adam_step", capture)
        got = md.train(tasks, cfg, tr, sched)
        for (params, grads), batch, loss in zip(seen, step_draws(tasks, cfg, tr, sched),
                                                got.losses, strict=True):
            want_loss, want = whole_batch_step(params, cfg, batch, sched)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            for name, g in want.items():
                assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


class TestTrainingPool:
    """`train` runs in one `numerics.buffer_pool`, so its taped groups reuse memory."""

    @pytest.mark.parametrize("group", [None, 2])
    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_pooled_training_gives_the_bytes_of_unpooled(self, variant, group, tmp_path,
                                                          monkeypatch):
        # as shipped a batch of 8 is one group; at group=2, 4 taped groups
        # (a taped group gets a fifth of the budget)
        cfg = toy_den_cfg(variant)
        if group is not None:
            monkeypatch.setattr(dn, "GROUP_BYTES", 5 * group * chain_bytes(cfg))
        assert len(dn._eval_groups(cfg, 8, 8, taped=True)) == (1 if group is None else 4)
        tr = TrainConfig(batch_size=8, iterations=3, lr=1e-3, seed=3, checkpoint_every=2)
        runs = {}
        for pooled in (True, False):
            with monkeypatch.context() as patch:
                if not pooled:  # `_alloc` is then `np.empty` throughout
                    patch.setattr(nm, "buffer_pool", contextlib.nullcontext)
                result = md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg))
            path = tmp_path / f"{pooled}.ckpt"
            training.save_checkpoint(result.checkpoint, path)
            runs[pooled] = result, path.read_bytes()
        (got, got_file), (want, want_file) = runs[True], runs[False]
        assert [x.hex() for x in got.losses] == [x.hex() for x in want.losses]
        for name in ("params", "adam_m", "adam_v"):
            for key, arr in getattr(want.checkpoint, name).items():
                assert getattr(got.checkpoint, name)[key].tobytes() == arr.tobytes(), key
        assert got_file == want_file

    def test_held_gradients_survive_the_next_group(self):
        # a gradient that one group's backward hands out from the pool keeps
        # its bytes through the next group's forward and backward
        cfg = toy_den_cfg()
        model = md.init_denoiser(cfg, seed=0)
        sched = toy_sched(cfg)
        rng = np.random.default_rng(0)

        def group_gradients():
            tape = nm.Tape()
            loss, leaves = md.batch_noise_loss(
                model, tape, rng.normal(size=(4, cfg.t_obs, cfg.dim)),
                rng.normal(size=(4, cfg.l_pred, cfg.dim)),
                rng.integers(1, cfg.k_steps + 1, size=4),
                rng.normal(size=(4, cfg.l_pred, cfg.dim)), sched)
            return tape.gradients(loss, leaves)

        with nm.buffer_pool():
            first = group_gradients()
            pooled = [k for k, g in first.items() if isinstance(g.base, bytearray)]
            assert pooled  # the step embedding's gradient, at least
            kept = {k: g.tobytes() for k, g in first.items()}
            second = group_gradients()
        assert {k: g.tobytes() for k, g in first.items()} == kept
        assert any(second[k].tobytes() != kept[k] for k in pooled)

    @pytest.mark.parametrize("group", [None, 3])
    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_pool_stops_growing_after_the_first_iteration(self, variant, group,
                                                          monkeypatch):
        # every later iteration runs in the slots of the first: a leak, or a
        # shape that drifts between iterations, would add one
        cfg = toy_den_cfg(variant)
        if group is not None:  # taped groups of 3, 3 and 2 chains
            monkeypatch.setattr(dn, "GROUP_BYTES", 5 * group * chain_bytes(cfg))
        assert len(dn._eval_groups(cfg, 8, 8, taped=True)) == (1 if group is None else 3)
        true_alloc, true_adam = nm._alloc, training.adam_step
        iteration, grown = [1], []

        def alloc(shape):
            slots = nm._POOL.get()
            before = len(slots)
            arr = true_alloc(shape)
            if len(slots) > before:
                grown.append(iteration[0])
            return arr

        def adam(*args):
            true_adam(*args)
            iteration[0] += 1

        monkeypatch.setattr(nm, "_alloc", alloc)
        monkeypatch.setattr(training, "adam_step", adam)
        quick_train(variant, iterations=3)
        assert iteration[0] == 4
        assert grown and set(grown) == {1}


class TestTrainingGroupBudget:
    """A taped group gets a fifth of `GROUP_BYTES`: one chain at CLI defaults."""

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_a_cli_default_step_keeps_a_small_pool(self, variant, monkeypatch):
        # the pool holds one taped group's forward: 9.55 MiB (series) and
        # 7.57 MiB (parallel) in one-chain groups, 38.2 and 30.3 in groups of 4
        cfg = toy_den_cfg(variant, model_dim=64, n_heads=4, t_obs=16, l_pred=20,
                          dim=15, k_steps=20)
        true_pool, pools = nm.buffer_pool, []

        @contextlib.contextmanager
        def spy():
            with true_pool():
                pools.append(nm._POOL.get())
                yield

        monkeypatch.setattr(nm, "buffer_pool", spy)
        md.train(toy_tasks(cfg, n=4), cfg, TrainConfig(batch_size=4, iterations=1, seed=0),
                 toy_sched(cfg))
        assert len(pools) == 1
        assert sum(len(buf) for buf, _ in pools[0]) <= 12 << 20

    @pytest.mark.parametrize("cfg", [md.DenoiserConfig(variant="series", **GRADCHECK_TOY),
                                     toy_den_cfg()], ids=["gradcheck-toy", "test-toy"])
    def test_every_toy_batch_of_32_is_one_group(self, cfg):
        # the overfit run, the golden pipeline and perfbench's `pipeline`
        # train batches of at most 32 at gradcheck's TOY shape, and the tests
        # here at the smaller one: each keeps the bits of a whole-batch step
        assert len(dn._eval_groups(cfg, 32, 32, taped=True)) == 1


class TestCheckpointIO:
    def trained_checkpoint(self, tmp_path, with_norm=True):
        cfg = toy_den_cfg()
        tr = TrainConfig(batch_size=4, iterations=6, lr=1e-3, seed=7,
                         checkpoint_every=3)
        norm = None
        if with_norm:
            norm = md.fit_normalizer(toy_tasks(cfg, n=2, seed=11))
        result = md.train(toy_tasks(cfg), cfg, tr, toy_sched(cfg),
                          normalizer=norm)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(result.checkpoint, path)
        return result, path, cfg

    def test_round_trip_bit_exact(self, tmp_path):
        result, path, cfg = self.trained_checkpoint(tmp_path)
        loaded = md.load_checkpoint(path)
        src = result.checkpoint
        assert loaded.iteration == src.iteration
        assert loaded.rng_state == src.rng_state
        assert loaded.denoiser_config == cfg
        assert loaded.schedule.k_steps == src.schedule.k_steps
        assert loaded.schedule.beta_min == src.schedule.beta_min
        np.testing.assert_array_equal(loaded.normalizer.mean,
                                      src.normalizer.mean)
        np.testing.assert_array_equal(loaded.normalizer.std,
                                      src.normalizer.std)
        for name in src.params:
            np.testing.assert_array_equal(loaded.params[name], src.params[name])
            np.testing.assert_array_equal(loaded.adam_m[name], src.adam_m[name])
            np.testing.assert_array_equal(loaded.adam_v[name], src.adam_v[name])

    def test_resume_from_file_matches_resume_from_memory(self, tmp_path):
        full, cfg, tr20, tasks = quick_train(iterations=20, seed=5)
        half, _, _, _ = quick_train(iterations=10, seed=5)
        path = tmp_path / "half.ckpt"
        md.save_checkpoint(half.checkpoint, path)
        tr_resume = replace(tr20, iterations=20)
        cont = md.train(tasks, cfg, tr_resume, toy_sched(cfg),
                        start=md.load_checkpoint(path))
        assert cont.losses == full.losses[10:]
        for name in full.model.params:
            np.testing.assert_array_equal(cont.model.params[name],
                                          full.model.params[name])

    def test_checkpoint_without_fitted_normalizer_carries_the_identity(self, tmp_path):
        _, path, cfg = self.trained_checkpoint(tmp_path, with_norm=False)
        loaded = md.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.normalizer.mean, np.zeros(cfg.dim))
        np.testing.assert_array_equal(loaded.normalizer.std, np.ones(cfg.dim))

    def test_version_mismatch_rejected(self, tmp_path):
        # a CKPT1 file, too, is refused by its version before its trailer
        _, path, _ = self.trained_checkpoint(tmp_path)
        edit_header(path, lambda m: m.update(version=1))
        with pytest.raises(IntegrityError, match=named(path, "unsupported .* version 1")):
            md.load_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        _, path, _ = self.trained_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # the last payload byte, before the 4-byte trailer
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match=named(path, "checksum")):
            md.load_checkpoint(path)

    def test_truncated_payload_detected(self, tmp_path):
        _, path, _ = self.trained_checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(IntegrityError, match=named(path, "checksum")):
            md.load_checkpoint(path)
        # sealed again, the short payload fails the layout's length
        path.write_bytes(sealed(blob[:-20]))
        with pytest.raises(IntegrityError, match=named(path, "payload has")):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("group, name, shape", [
        ("adam_m", "in_w", (1,)), ("adam_m", "in_w", (3,)),
        ("adam_v", "step_emb", (2, 16)), ("param", "out_w", (16,)),
        ("norm", "mean", (4,)), ("norm", "std", (6,)),
    ], ids=["m-broadcastable", "m-unbroadcastable", "v-short", "param-flat",
            "mean-length-not-dim", "std-length-not-dim"])
    def test_writer_refuses_a_misshaped_tensor(self, tmp_path, group, name, shape):
        # a (1,) moment would broadcast silently through every Adam update
        result, path, _ = self.trained_checkpoint(tmp_path)
        ckpt = result.checkpoint
        if group == "norm":
            ckpt.normalizer = replace(ckpt.normalizer, **{name: np.ones(shape)})
        else:
            {"param": ckpt.params, "adam_m": ckpt.adam_m,
             "adam_v": ckpt.adam_v}[group][name] = np.zeros(shape)
        with pytest.raises(ContractError, match=rf"'{group}\.{name}' is of shape"):
            md.save_checkpoint(ckpt, tmp_path / "misshaped.ckpt")
        assert not (tmp_path / "misshaped.ckpt").exists()

    def test_writer_refuses_a_missing_tensor(self, tmp_path):
        result, _, _ = self.trained_checkpoint(tmp_path)
        del result.checkpoint.adam_v["temp.wq"]
        with pytest.raises(ContractError, match=r"'adam_v\.temp\.wq' is missing"):
            md.save_checkpoint(result.checkpoint, tmp_path / "short.ckpt")

    @pytest.mark.parametrize("group, prefix", [("params", "param"), ("adam_m", "adam_m"),
                                               ("adam_v", "adam_v")])
    def test_non_finite_tensor_is_integrity_error(self, tmp_path, group, prefix):
        # saved with valid checksums: only the value check can refuse it
        result, path, _ = self.trained_checkpoint(tmp_path)
        getattr(result.checkpoint, group)["temp.wq"][1, 2] = np.nan
        md.save_checkpoint(result.checkpoint, path)
        with pytest.raises(IntegrityError, match=named(path, rf"'{prefix}\.temp\.wq'")):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        lambda m: m["denoiser_config"].pop("dim"),
        lambda m: m["denoiser_config"].update(model_dim="64"),
        lambda m: m["schedule"].update(extra=1),
        lambda m: m["schedule"].update(beta_min=2.0),
        lambda m: m.pop("rng_state"),
        lambda m: m.update(iteration="abc"),
        lambda m: m.update(iteration=-1),
        lambda m: m.update(rng_state="bogus"),
        lambda m: m["rng_state"].update(bit_generator="MT19937"),
        lambda m: m["rng_state"].pop("has_uint32"),
        lambda m: m["rng_state"]["state"].update(state=-1),
        lambda m: m["rng_state"]["state"].update(inc=None),
        # the schedule's K must be the denoiser's K (5)
        lambda m: m["schedule"].update(k_steps=3),
        lambda m: m["schedule"].update(k_steps=8),
        # a K no float array holds: the step_emb payload bounds it first
        lambda m: m["schedule"].update(k_steps=10**12),
        lambda m: (m["schedule"].update(k_steps=10**12),
                   m["denoiser_config"].update(k_steps=10**12)),
    ], ids=["config-key-missing", "config-value-type",
            "schedule-extra-key", "schedule-bad-value", "no-rng-state",
            "iteration-not-int", "iteration-negative", "rng-state-not-object", "rng-state-other-generator",
            "rng-state-key-missing", "rng-state-negative", "rng-state-inc-null",
            "schedule-k-below-model", "schedule-k-above-model", "schedule-k-huge",
            "both-k-huge"])
    def test_malformed_manifest_is_integrity_error(self, tmp_path, mutate):
        _, path, _ = self.trained_checkpoint(tmp_path)
        edit_header(path, mutate)
        with pytest.raises(IntegrityError):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("mean, std", [
        (np.zeros(5), np.array([1.0, 0.0, 1.0, 1.0, 1.0])),
        (np.zeros(5), np.array([1.0, 1.0, np.nan, 1.0, 1.0])),
        (np.zeros(5), np.array([1.0, 1.0, 1.0, np.inf, 1.0])),
        (np.zeros(5), -np.ones(5)),
        (np.array([0.0, 0.0, 0.0, 0.0, np.nan]), np.ones(5)),
    ], ids=["std-zero", "std-nan", "std-inf", "std-negative", "mean-nan"])
    def test_malformed_normalizer_is_integrity_error(self, tmp_path, mean, std):
        result, path, _ = self.trained_checkpoint(tmp_path)
        result.checkpoint.normalizer = md.Normalizer(mean=mean, std=std)
        md.save_checkpoint(result.checkpoint, path)
        with pytest.raises(IntegrityError, match=named(path, "normalizer")):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("line", [b"[1, 2]", b'"CKPT1"', b"null"])
    def test_manifest_must_be_an_object(self, tmp_path, line):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(line + b"\npayload")
        with pytest.raises(IntegrityError, match=named(path, "object")):
            md.load_checkpoint(path)

    def test_manifest_must_be_json(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not json\npayload")
        with pytest.raises(IntegrityError):
            md.load_checkpoint(path)

    def test_manifest_line_required(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(IntegrityError):
            md.load_checkpoint(path)

    def test_unexpected_config_rejected(self, tmp_path):
        _, path, cfg = self.trained_checkpoint(tmp_path)
        other = toy_den_cfg(model_dim=32)
        tr = TrainConfig(batch_size=4, iterations=9, lr=1e-3, seed=7)
        with pytest.raises(ConfigError, match="denoiser config"):
            md.train(toy_tasks(cfg), other, tr, toy_sched(cfg),
                     start=md.load_checkpoint(path))


class TestConvergence:
    def test_smoothed_loss_decreases(self, overfit_run):
        # window width sized to smooth over the minibatch noise at the floor
        losses = overfit_run["result"].losses
        window = 400
        means = [float(np.mean(losses[i:i + window]))
                 for i in range(0, len(losses), window)]
        assert len(means) >= 4
        for before, after in zip(means, means[1:]):
            assert after < before
        assert means[-1] < 0.05 * means[0]
