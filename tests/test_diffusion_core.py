"""Schedule algebra, forward/reverse process, loss contract, samplers."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motion_diffusion as md
import motion_diffusion.denoiser as dn
import motion_diffusion.numerics as nm
from motion_diffusion.diffusion import batch_noise_loss
from motion_diffusion.errors import (ConfigError, ContractError, DimensionError,
                                     NumericsError, SamplingDivergedError)


class StubModel:
    """Test double driven by a callable (obs, x, ks) -> eps_hat batch.

    Carries one zero bias parameter so the loss graph has a leaf to
    differentiate; the bias never changes the forward value.
    """

    def __init__(self, l_pred, dim, fn):
        self.pred_shape = (l_pred, dim)
        self.fn = fn
        self.eval_count = 0
        self.bias = np.zeros((l_pred, dim))

    def eval_batch(self, p_obs, x, ks):
        self.eval_count += x.shape[0]
        return self.fn(p_obs, x, ks) + self.bias

    def bind(self, tape):
        if tape is None:
            return {"bias": nm.constant(self.bias)}
        return {"bias": tape.param(self.bias)}

    def forward_batch(self, leaves, p_obs, x, ks):
        return nm.add(nm.constant(self.fn(p_obs, x, ks)), leaves["bias"])


def zero_model(l_pred=5, dim=6):
    return StubModel(l_pred, dim, lambda o, x, k: np.zeros_like(x))


def posterior_mean(x0, xk, k, s):
    # analytic DDPM q-posterior mean, written out independently
    a_k, a_km1 = s.alpha(k), s.alpha(k - 1)
    return (np.sqrt(a_km1) * s.beta(k) / (1 - a_k) * x0
            + np.sqrt(s.alpha_hat(k)) * (1 - a_km1) / (1 - a_k) * xk)


class TestSchedule:
    def test_paper_endpoints_exact(self):
        s = md.build_schedule(20, 0.001, 0.333)
        assert s.beta(1) == 0.001
        assert s.beta(20) == 0.333
        assert s.sigma2(1) == 0.0
        assert np.all(np.diff(s.alphas) < 0)

    def test_beta_10_linear_interpolation(self):
        s = md.build_schedule(20, 0.001, 0.333)
        assert s.beta(10) == pytest.approx(0.001 + 9 * (0.332 / 19), abs=1e-15)

    def test_alpha_cumulative_products(self):
        s = md.build_schedule(20, 0.001, 0.333)
        assert s.alpha(1) == pytest.approx(0.999, abs=1e-15)
        assert s.alpha(2) == pytest.approx(0.999 * (1 - s.beta(2)), abs=1e-15)
        assert s.alpha(2) == pytest.approx(0.980545, abs=5e-7)

    def test_identities_hold_exactly(self):
        s = md.build_schedule(12, 0.01, 0.4)
        for k in range(1, 13):
            assert s.alpha_hat(k) == 1.0 - s.beta(k)
            assert s.alpha(k) == s.alpha(k - 1) * s.alpha_hat(k)
        for k in range(2, 13):
            assert s.sigma2(k) < s.beta(k)

    @given(k_steps=st.integers(2, 40),
           bounds=st.tuples(st.floats(1e-4, 0.4), st.floats(1e-4, 0.4)))
    # one ulp between the bounds: linear interpolation gives equal betas
    @example(k_steps=3, bounds=(1.0000000000000002e-4, 1e-4))
    @settings(max_examples=50, deadline=None)
    def test_schedule_invariants_property(self, k_steps, bounds):
        lo, hi = min(bounds), max(bounds)
        if lo == hi:
            hi = lo * 1.5
        s = md.build_schedule(k_steps, lo, hi)
        assert np.all(s.betas > 0) and np.all(s.betas < 1)
        # the contract is non-decreasing betas; neighbours can only be told
        # apart when the bounds lie more than one ulp per step apart
        assert np.all(np.diff(s.betas) >= 0)
        if hi - lo > (k_steps - 1) * np.spacing(hi):
            assert np.all(np.diff(s.betas) > 0)
        assert np.all(np.diff(s.alphas) < 0)
        assert s.sigma2(1) == 0.0

    def test_bounds_rejected(self):
        for bad in [(0, 0.1, 0.3), (5, 0.0, 0.3), (5, 0.3, 0.1), (5, 0.1, 1.0)]:
            with pytest.raises(ConfigError):
                md.build_schedule(*bad)

    def test_k_range_contract(self):
        s = md.build_schedule(5, 0.01, 0.3)
        with pytest.raises(ContractError):
            s.beta(0)
        with pytest.raises(ContractError):
            s.beta(6)
        assert s.alpha(0) == 1.0


class TestForwardNoise:
    def test_noise_free_limit(self, rng):
        s = md.build_schedule(10, 0.01, 0.3)
        x0 = rng.normal(size=(4, 6))
        got = md.forward_noise(x0, 7, np.zeros_like(x0), s)
        np.testing.assert_allclose(got, np.sqrt(s.alpha(7)) * x0, rtol=1e-15)

    def test_zero_signal_limit(self, rng):
        s = md.build_schedule(10, 0.01, 0.3)
        eps = rng.normal(size=(4, 6))
        got = md.forward_noise(np.zeros((4, 6)), 3, eps, s)
        np.testing.assert_allclose(got, np.sqrt(1 - s.alpha(3)) * eps, rtol=1e-15)

    def test_monte_carlo_moments(self):
        # mean sqrt(a_k) x0, variance (1 - a_k), within 3 sigma
        s = md.build_schedule(10, 0.01, 0.3)
        k = 6
        x0 = np.array([[0.7, -1.2, 0.4]])
        n = 100_000
        draws = np.random.default_rng(11).standard_normal((n, 1, 3))
        xs = np.sqrt(s.alpha(k)) * x0 + np.sqrt(1 - s.alpha(k)) * draws
        var = 1 - s.alpha(k)
        mean_tol = 3 * np.sqrt(var / n)
        assert np.all(np.abs(xs.mean(axis=0) - np.sqrt(s.alpha(k)) * x0) < mean_tol)
        var_tol = 3 * var * np.sqrt(2 / (n - 1))
        assert np.all(np.abs(xs.var(axis=0) - var) < var_tol)
        # the same moments via the implementation on a batch of draws
        got = np.stack([md.forward_noise(x0, k, draws[i], s) for i in range(100)])
        want = np.stack([xs[i] for i in range(100)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_k_out_of_range(self, rng):
        s = md.build_schedule(5, 0.01, 0.3)
        x = rng.normal(size=(2, 3))
        for k in (0, 6):
            with pytest.raises(ContractError):
                md.forward_noise(x, k, x, s)

    def test_shape_mismatch(self):
        s = md.build_schedule(5, 0.01, 0.3)
        with pytest.raises(DimensionError):
            md.forward_noise(np.zeros((2, 3)), 1, np.zeros((3, 2)), s)

    def test_one_step_per_batch_item(self, rng):
        s = md.build_schedule(10, 0.01, 0.3)
        x0, eps = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6))
        ks = np.array([1, 7, 10])
        got = md.forward_noise(x0, ks, eps, s)
        for i, k in enumerate(ks):
            np.testing.assert_array_equal(got[i], md.forward_noise(x0[i], k, eps[i], s))

    def test_step_array_contract(self, rng):
        s = md.build_schedule(5, 0.01, 0.3)
        x = rng.normal(size=(3, 2))
        for ks in ([1, 2], [[1], [2], [3]], [1, 6, 2], [0, 1, 2]):
            with pytest.raises(ContractError):
                md.forward_noise(x, np.array(ks), x, s)


class TestMuTheta:
    def test_zero_eps_hat(self, rng):
        s = md.build_schedule(8, 0.02, 0.3)
        xk = rng.normal(size=(3, 6))
        got = md.mu_theta(xk, 4, np.zeros_like(xk), s)
        np.testing.assert_allclose(got, xk / np.sqrt(1 - s.beta(4)), rtol=1e-15)

    def test_oracle_denoiser_matches_posterior_mean(self, rng):
        s = md.build_schedule(20, 0.001, 0.333)
        worst = 0.0
        for _ in range(100):
            x0 = rng.normal(size=(5, 6))
            eps = rng.normal(size=(5, 6))
            for k in range(1, 21):
                xk = md.forward_noise(x0, k, eps, s)
                got = md.mu_theta(xk, k, eps, s)
                worst = max(worst, np.abs(got - posterior_mean(x0, xk, k, s)).max())
        assert worst < 1e-10

    def test_linearity(self, rng):
        s = md.build_schedule(8, 0.02, 0.3)
        xk, eh = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        got = md.mu_theta(2.5 * xk, 5, 2.5 * eh, s)
        np.testing.assert_allclose(got, 2.5 * md.mu_theta(xk, 5, eh, s), atol=1e-12)


class TestReverseStep:
    def test_zero_z_equals_mu(self, rng):
        s = md.build_schedule(8, 0.02, 0.3)
        xk, eh = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        got = md.reverse_step(xk, 5, eh, np.zeros_like(xk), s)
        np.testing.assert_array_equal(got, md.mu_theta(xk, 5, eh, s))

    def test_k1_ignores_z(self, rng):
        s = md.build_schedule(8, 0.02, 0.3)
        xk, eh = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        a = md.reverse_step(xk, 1, eh, rng.normal(size=(3, 6)), s)
        b = md.reverse_step(xk, 1, eh, rng.normal(size=(3, 6)) * 100, s)
        assert np.array_equal(a, b)

    def test_monte_carlo_variance(self):
        s = md.build_schedule(8, 0.02, 0.3)
        k = 5
        xk = np.zeros((1, 2))
        eh = np.zeros((1, 2))
        n = 100_000
        zs = np.random.default_rng(5).standard_normal((n, 1, 2))
        outs = np.stack([md.reverse_step(xk, k, eh, zs[i], s) for i in range(2000)])
        var = outs.var(axis=0)
        tol = 3 * s.sigma2(k) * np.sqrt(2 / (2000 - 1))
        assert np.all(np.abs(var - s.sigma2(k)) < tol)


def one_task_loss(model, obs, gt, k, eps, sched):
    """Loss value and parameter gradients of a one-item batch."""
    tape = nm.Tape()
    value, leaves = batch_noise_loss(model, tape, obs[None], gt[None],
                                     np.array([k]), eps[None], sched)
    return float(value.data), tape.gradients(value, leaves)


class TestLoss:
    def test_oracle_model_gives_zero(self, rng):
        s = md.build_schedule(6, 0.02, 0.3)
        gt = rng.normal(size=(5, 6))
        eps = rng.normal(size=(5, 6))
        model = StubModel(5, 6, lambda o, x, k: eps[None])
        value, grads = one_task_loss(model, rng.normal(size=(3, 6)), gt, 2, eps, s)
        assert value == 0.0
        np.testing.assert_array_equal(grads["bias"], np.zeros((5, 6)))

    def test_zero_model_chi_square_moment(self):
        s = md.build_schedule(6, 0.02, 0.3)
        rng = np.random.default_rng(8)
        model = zero_model()
        vals = []
        for _ in range(200):
            obs, gt = rng.normal(size=(3, 6)), rng.normal(size=(5, 6))
            eps = rng.standard_normal((5, 6))
            value, _ = one_task_loss(model, obs, gt, 3, eps, s)
            # direct oracle: zero prediction leaves mean of eps^2
            assert value == pytest.approx(float(np.mean(eps ** 2)), rel=1e-12)
            vals.append(value)
        # chi^2 moment: mean 1, var 2/(L*D) per draw
        tol = 3 * np.sqrt(2 / 30 / len(vals))
        assert abs(np.mean(vals) - 1.0) < tol

    def test_batch_permutation_invariance(self, rng):
        s = md.build_schedule(6, 0.02, 0.3)
        model = zero_model()
        obs = rng.normal(size=(4, 3, 6))
        gt = rng.normal(size=(4, 5, 6))
        ks = np.array([1, 3, 5, 2])
        eps = rng.standard_normal((4, 5, 6))
        lt, _ = batch_noise_loss(model, None, obs, gt, ks, eps, s)
        perm = np.array([2, 0, 3, 1])
        lt_p, _ = batch_noise_loss(model, None, obs[perm], gt[perm], ks[perm],
                                   eps[perm], s)
        assert float(lt.data) == pytest.approx(float(lt_p.data), rel=1e-15)


    def test_eps_must_have_the_batch_shape(self, rng):
        # one (L, D) noise draw for a (B, L, D) batch is an error, not a broadcast
        s = md.build_schedule(6, 0.02, 0.3)
        obs, gt = rng.normal(size=(4, 3, 6)), rng.normal(size=(4, 5, 6))
        with pytest.raises(DimensionError):
            batch_noise_loss(zero_model(), None, obs, gt, np.array([1, 3, 5, 2]),
                             rng.standard_normal((5, 6)), s)


class TestSamplers:
    def test_same_seed_bit_identical(self):
        model = zero_model()
        s = md.build_schedule(6, 0.02, 0.3)
        obs = np.zeros((3, 6))
        a = md.sample_stochastic(model, obs, 5, seed=42, sched=s)
        b = md.sample_stochastic(model, obs, 5, seed=42, sched=s)
        assert np.array_equal(a.samples, b.samples)

    def test_first_sample_stable_as_n_grows(self):
        # per-sample streams derive from (seed, index), so sample 0 is the
        # same whether 1 or 50 are requested
        model = zero_model()
        s = md.build_schedule(6, 0.02, 0.3)
        obs = np.zeros((3, 6))
        one = md.sample_stochastic(model, obs, 1, seed=9, sched=s)
        fifty = md.sample_stochastic(model, obs, 50, seed=9, sched=s)
        assert np.array_equal(one.samples[0], fifty.samples[0])

    def test_exact_nk_evaluation_count(self):
        s = md.build_schedule(7, 0.02, 0.3)
        model = zero_model()
        md.sample_stochastic(model, np.zeros((3, 6)), 13, seed=0, sched=s)
        assert model.eval_count == 13 * 7

    def test_k1_schedule_single_call(self):
        s = md.build_schedule(1, 0.02, 0.02)
        model = zero_model()
        out = md.sample_stochastic(model, np.zeros((3, 6)), 4, seed=0, sched=s)
        assert model.eval_count == 4
        assert out.samples.shape == (4, 5, 6)

    def test_deterministic_is_pure(self):
        model = zero_model()
        s = md.build_schedule(6, 0.02, 0.3)
        obs = np.zeros((3, 6))
        a = md.sample_deterministic(model, obs, s)
        b = md.sample_deterministic(model, obs, s)
        assert np.array_equal(a, b)
        assert a.shape == (5, 6)

    def test_deterministic_equals_zero_noise_stochastic(self, rng):
        # replace the random start/step draws by zeros: identical pipeline
        s = md.build_schedule(6, 0.02, 0.3)
        w = rng.normal(size=(6, 6))
        model = StubModel(5, 6, lambda o, x, k: x @ w * 0.01)
        obs = rng.normal(size=(3, 6))
        det = md.sample_deterministic(model, obs, s)
        x = np.zeros((1, 5, 6))
        for k in range(6, 0, -1):
            eh = model.fn(obs[None], x, np.full(1, k))
            x = md.mu_theta(x, k, eh, s)
        assert np.array_equal(det, x[0])

    @pytest.mark.parametrize("j", [0, 3])
    def test_noise_layout_is_one_draw_per_sample(self, j):
        # sample j's x_K and then z_K..z_2 are one standard_normal((K, L, D))
        # draw from the stream of (seed, j); step 1 adds no noise
        k_steps, seed = 6, 21
        s = md.build_schedule(k_steps, 0.02, 0.3)
        model = StubModel(5, 6, lambda o, x, k: 0.1 * np.tanh(x) + 0.01 * k[:, None, None])
        obs = np.zeros((3, 6))
        got = md.sample_stochastic(model, obs, 4, seed=seed, sched=s).samples[j]
        stream = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        draw = stream.standard_normal((k_steps, 5, 6))
        x, zs = draw[0], list(draw[1:])
        for k in range(k_steps, 0, -1):
            x = md.mu_theta(x, k, model.fn(obs[None], x[None], np.full(1, k))[0], s)
            if k > 1:
                x = x + s.sigma(k) * zs.pop(0)
        assert zs == []
        np.testing.assert_array_equal(got, x)

    def test_divergence_reports_step(self):
        s = md.build_schedule(6, 0.02, 0.3)

        def explode(o, x, k):
            return np.full_like(x, np.nan) if k[0] == 4 else np.zeros_like(x)

        model = StubModel(5, 6, explode)
        with pytest.raises(SamplingDivergedError) as err:
            md.sample_stochastic(model, np.zeros((3, 6)), 2, seed=1, sched=s)
        assert err.value.step == 4

    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_denoiser_overflow_names_the_step(self, variant):
        # output heads scaled to 1e305 leave step K a huge but finite state,
        # and the denoiser's own ops overflow on it at step K - 1
        cfg = md.DenoiserConfig(variant=variant, model_dim=16, n_heads=2,
                                t_obs=3, l_pred=5, dim=6, k_steps=6)
        model = md.init_denoiser(cfg, 0)
        for name in model.params:
            if name.startswith("out") and name.endswith("_w"):
                model.params[name] = model.params[name] * 1e305
        s = md.build_schedule(6, 0.02, 0.3)
        obs = np.full((3, 6), 1e3)
        for sample in (lambda: md.sample_stochastic(model, obs, 2, seed=1, sched=s),
                       lambda: md.sample_deterministic(model, obs, s)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(SamplingDivergedError) as err:
                sample()
            assert err.value.step == s.k_steps - 1
            assert isinstance(err.value.__cause__, NumericsError)

    def test_n_below_one_rejected(self):
        s = md.build_schedule(6, 0.02, 0.3)
        with pytest.raises(ContractError):
            md.sample_stochastic(zero_model(), np.zeros((3, 6)), 0, seed=1, sched=s)


def pool_model(variant, l_pred=5, dim=6, seed=1):
    cfg = md.DenoiserConfig(variant=variant, model_dim=8, n_heads=2, t_obs=3,
                            l_pred=l_pred, dim=dim, k_steps=4)
    return md.init_denoiser(cfg, seed)


def two_chain_groups(model):
    """The group budget the golden test cuts to: two chains per denoiser call."""
    cfg = model.config
    return 2 * cfg.l_pred * cfg.dim * cfg.model_dim * 8


def slot_counts(model):
    """Wrap model.eval_batch to record the open pool's slot count after each call."""
    counts, inner = [], model.eval_batch

    def counted(*args):
        out = inner(*args)
        counts.append(len(nm._POOL.get()))
        return out

    model.eval_batch = counted
    return counts


class TestBufferPool:
    """`_reverse_loop` runs its K steps in one `numerics.buffer_pool`."""

    @pytest.mark.parametrize("variant", dn.VARIANTS)
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("pred", [(5, 6), (1, 1)])   # L * D = 1: one row per chain
    @pytest.mark.parametrize("cut", [False, True])
    def test_pool_keeps_every_byte(self, monkeypatch, variant, n, pred, cut):
        model = pool_model(variant, *pred)
        if cut:
            monkeypatch.setattr(dn, "GROUP_BYTES", two_chain_groups(model))
        obs = np.random.default_rng(n).normal(size=(3, pred[1]))
        s = md.build_schedule(4, 0.02, 0.3)

        def run():
            return (md.sample_stochastic(model, obs, n, seed=9, sched=s).samples,
                    md.sample_deterministic(model, obs, s))

        pooled = run()
        monkeypatch.setattr(nm, "_alloc", np.empty)
        for got, want in zip(pooled, run()):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", dn.VARIANTS)
    def test_later_steps_make_no_new_slots(self, monkeypatch, variant):
        model = pool_model(variant)
        monkeypatch.setattr(dn, "GROUP_BYTES", two_chain_groups(model))
        counts = slot_counts(model)
        md.sample_stochastic(model, np.zeros((3, 6)), 7, seed=2,
                             sched=md.build_schedule(4, 0.02, 0.3))
        assert len(counts) == 4 and counts[0] > 0
        assert counts == counts[:1] * 4

    def test_pool_is_closed_after_the_loop_and_after_divergence(self):
        s = md.build_schedule(6, 0.02, 0.3)
        open_in_loop = []

        def explode(o, x, k):
            open_in_loop.append(nm._POOL.get() is not None)
            return np.full_like(x, np.nan) if k[0] == 4 else np.zeros_like(x)

        md.sample_deterministic(zero_model(), np.zeros((3, 6)), s)
        assert nm._POOL.get() is None
        with pytest.raises(SamplingDivergedError):
            md.sample_stochastic(StubModel(5, 6, explode), np.zeros((3, 6)), 2, seed=1,
                                 sched=s)
        assert open_in_loop == [True] * 3
        assert nm._POOL.get() is None

    def test_threads_sampling_at_once_give_the_bytes_of_serial_runs(self):
        s = md.build_schedule(4, 0.02, 0.3)
        obs = np.random.default_rng(3).normal(size=(3, 6))
        jobs = [(variant, seed) for variant in dn.VARIANTS for seed in (4, 5)]
        serial = [md.sample_stochastic(pool_model(v), obs, 7, seed=seed, sched=s).samples
                  for v, seed in jobs]
        results, pools = [None] * len(jobs), [[] for _ in jobs]

        def run(i):
            model = pool_model(jobs[i][0])
            inner = model.eval_batch

            def seen(*args):
                pools[i].append(nm._POOL.get())
                return inner(*args)

            model.eval_batch = seen
            results[i] = md.sample_stochastic(model, obs, 7, seed=jobs[i][1], sched=s).samples

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert got.tobytes() == want.tobytes()
        # each thread's loop had one pool of its own, open in all its steps
        firsts = [seen[0] for seen in pools]
        assert all(p is first for seen, first in zip(pools, firsts) for p in seen)
        assert len({id(first) for first in firsts}) == len(jobs)


class TestTrainedSampling:
    def test_apd_positive_on_trained_model(self, overfit_run):
        sset = md.sample_stochastic(overfit_run["model"],
                                    overfit_run["tasks"][0].p_obs, 50,
                                    seed=77, sched=overfit_run["sched"])
        assert md.apd(sset) > 0.0

    def test_overfit_deterministic_ade(self, overfit_run):
        ades = []
        for task in overfit_run["tasks"]:
            pred = md.sample_deterministic(overfit_run["model"], task.p_obs,
                                           overfit_run["sched"])
            sset = md.SampleSet(samples=pred[None], ground_truth=task.p_gt)
            ades.append(md.displacement_errors(sset)[1])
        assert max(ades) < 0.1
