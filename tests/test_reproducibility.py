"""The bit-for-bit reproducibility contract at every small shape.

Four properties, in both variants: sample i does not depend on the
sample count N, one item's forward row does not depend on the batch
size, its position or its batch-mates, an observation shared by several
chains gives the bytes of the same observation repeated for each, and a
resumed training run equals an uninterrupted one.  The shapes include L*D = 1, where a one-row
product once took another BLAS path than the same row among others.

`eval_batch` splits its chains into groups and relies on these properties
to give the bytes of one call, so the rows here come from one whole-batch
`forward_batch`, and the samplers' chains fit one group.  Training sums
its groups' gradients, so its runs are checked both with a batch that
fits one group and with a budget that splits it.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motion_diffusion as md
from motion_diffusion import denoiser as dn

K_STEPS = 3


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _rows(model, p_obs, x_k, ks):
    """One unsplit forward of the whole batch."""
    return model.forward_batch(model.bind(None), p_obs, x_k, ks).data


def _chain_bytes(cfg):
    return cfg.l_pred * cfg.dim * cfg.model_dim * 8


def _fits_one_group(cfg, n):
    return n * _chain_bytes(cfg) <= dn.GROUP_BYTES


def _check_training_runs(tasks, cfg, tr, sched):
    """The same seed gives the same bytes, and a resume equals an uninterrupted run."""
    whole = md.train(tasks, cfg, tr, sched)
    again = md.train(tasks, cfg, tr, sched)
    first = md.train(tasks, cfg, replace(tr, iterations=1), sched)
    rest = md.train(tasks, cfg, tr, sched, start=first.checkpoint)
    hexes = [x.hex() for x in whole.losses]
    assert [x.hex() for x in again.losses] == hexes
    assert [x.hex() for x in first.losses + rest.losses] == hexes
    for group in ("params", "adam_m", "adam_v"):
        for name, arr in getattr(whole.checkpoint, group).items():
            assert _same(getattr(again.checkpoint, group)[name], arr), (group, name)
            assert _same(getattr(rest.checkpoint, group)[name], arr), (group, name)
    assert rest.checkpoint.rng_state == whole.checkpoint.rng_state


@given(variant=st.sampled_from(["series", "parallel"]),
       model_dim=st.sampled_from([8, 16]), n_heads=st.sampled_from([1, 2]),
       t_obs=st.integers(1, 3), l_pred=st.integers(1, 2), dim=st.integers(1, 3),
       n=st.integers(2, 7), m=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
@example(variant="series", model_dim=16, n_heads=1, t_obs=1, l_pred=1, dim=1,
         n=7, m=1, seed=0)
@example(variant="parallel", model_dim=8, n_heads=2, t_obs=3, l_pred=1, dim=1,
         n=2, m=1, seed=0)
@example(variant="parallel", model_dim=16, n_heads=1, t_obs=2, l_pred=1, dim=3,
         n=7, m=2, seed=0)   # one temporal query row per chain, several chains
@example(variant="series", model_dim=16, n_heads=2, t_obs=2, l_pred=2, dim=1,
         n=7, m=3, seed=0)   # one spatial query row and key per frame, two heads
@settings(max_examples=25, deadline=None)
def test_reproducibility_contract_at_small_shapes(variant, model_dim, n_heads, t_obs,
                                                  l_pred, dim, n, m, seed):
    cfg = md.DenoiserConfig(variant=variant, model_dim=model_dim, n_heads=n_heads,
                            t_obs=t_obs, l_pred=l_pred, dim=dim, k_steps=K_STEPS)
    model = md.init_denoiser(cfg, seed)
    sched = md.build_schedule(K_STEPS, 0.01, 0.3)
    rng = np.random.default_rng(seed)

    # sample i does not depend on N
    m = min(m, n - 1)
    assert _fits_one_group(cfg, n)
    obs = rng.normal(size=(t_obs, dim))
    many = md.sample_stochastic(model, obs, n, seed, sched).samples
    few = md.sample_stochastic(model, obs, m, seed, sched).samples
    assert _same(few, many[:m]), f"samples 0..{m - 1} differ between N={m} and N={n}"

    # a forward row does not depend on batch size, position or batch-mates
    obs_b = rng.normal(size=(n, t_obs, dim))
    x_b = rng.normal(size=(n, l_pred, dim))
    ks = rng.integers(1, K_STEPS + 1, size=n)
    full = _rows(model, obs_b, x_b, ks)
    for j in range(n):
        alone = _rows(model, obs_b[j:j + 1], x_b[j:j + 1], ks[j:j + 1])
        assert _same(alone[0], full[j]), f"item {j} alone differs from batch {n}"
    perm = rng.permutation(n)
    assert _same(_rows(model, obs_b[perm], x_b[perm], ks[perm]), full[perm])
    mates = (rng.normal(size=(m, t_obs, dim)), rng.normal(size=(m, l_pred, dim)),
             rng.integers(1, K_STEPS + 1, size=m))
    mixed = _rows(model, np.concatenate([mates[0], obs_b[:1]]),
                  np.concatenate([mates[1], x_b[:1]]),
                  np.concatenate([mates[2], ks[:1]]))
    assert _same(mixed[-1], full[0]), "item 0 differs with other batch-mates"

    # same seed, same bytes, and a resume equals an uninterrupted run: with
    # the batch in one group, then with m + 1 chains in groups of m // 2 + 1
    tasks = [md.PredictionTask(rng.normal(size=(t_obs, dim)), rng.normal(size=(l_pred, dim)))
             for _ in range(3)]
    tr = md.TrainConfig(batch_size=m, iterations=2, lr=1e-3, seed=seed,
                        checkpoint_every=1)
    assert _fits_one_group(cfg, m)
    _check_training_runs(tasks, cfg, tr, sched)
    with mock.patch.object(dn, "GROUP_BYTES", (m // 2 + 1) * _chain_bytes(cfg)):
        assert len(dn._eval_groups(cfg, m + 1, m + 1)) >= 2
        _check_training_runs(tasks, cfg, replace(tr, batch_size=m + 1), sched)


@given(variant=st.sampled_from(["series", "parallel"]),
       model_dim=st.sampled_from([8, 16]), n_heads=st.sampled_from([1, 2]),
       t_obs=st.integers(1, 3), l_pred=st.integers(1, 2), dim=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
@example(variant="series", model_dim=8, n_heads=2, t_obs=1, l_pred=2, dim=1, seed=0)
@example(variant="parallel", model_dim=16, n_heads=1, t_obs=1, l_pred=1, dim=1, seed=0)
@settings(max_examples=25, deadline=None)
def test_shared_observation_gives_the_bytes_of_its_repeats(variant, model_dim, n_heads,
                                                           t_obs, l_pred, dim, seed):
    cfg = md.DenoiserConfig(variant=variant, model_dim=model_dim, n_heads=n_heads,
                            t_obs=t_obs, l_pred=l_pred, dim=dim, k_steps=K_STEPS)
    model = md.init_denoiser(cfg, seed)
    rng = np.random.default_rng(seed)
    b = 6
    x_k = rng.normal(size=(b, l_pred, dim))
    for m in (1, 2):
        p_obs = rng.normal(size=(m, t_obs, dim))
        ks = np.repeat(rng.integers(1, K_STEPS + 1, size=m), b // m)
        shared = _rows(model, p_obs, x_k, ks)
        repeated = _rows(model, np.repeat(p_obs, b // m, axis=0), x_k, ks)
        assert _same(shared, repeated), f"{m} observation(s) shared by {b} chains"
