"""Shared fixtures.

The overfit training run is expensive (~1 minute), so it runs once per
session and is shared by the training tests, the sampling tests, and
the acceptance suite.
"""

import json
import time
import zlib

import numpy as np
import pytest

import motion_diffusion as md

# toy extents used by the gradient and overfit checks
TOY = dict(model_dim=32, n_heads=2, t_obs=4, l_pred=5, dim=6, k_steps=5)

# overfit run settings: schedule floor and learning rate picked from the
# first reference run and pinned (see the acceptance suite)
OVERFIT_SCHED = (5, 0.05, 0.333)
OVERFIT_TRAIN = dict(batch_size=32, iterations=2000, lr=3e-3, seed=1,
                     checkpoint_every=1000)


def sealed(body: bytes) -> bytes:
    """`body` and the trailer that ends every .mseq and checkpoint file: the
    CRC32 of its bytes, 4 bytes little-endian.  A test that hand-builds or
    edits such a file seals it, so the load reaches the check the test names."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def edit_header(path, mutate) -> None:
    """Rewrite the header line of the sealed file `path` as `mutate` leaves it,
    keep its payload, and seal it again."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    mutate(header)
    with open(path, "wb") as fh:
        fh.write(sealed(json.dumps(header, sort_keys=True).encode() + blob[nl:-4]))


def make_overfit_tasks() -> tuple[list, md.Normalizer]:
    seqs = md.synth_dataset(n_joints=2, n_sequences=2, frames_per_sequence=30,
                            fps=25.0, action_mix={"walk": 1.0}, seed=7)
    tasks = []
    for seq in seqs:
        tasks.extend(md.window_split(seq, TOY["t_obs"], TOY["l_pred"], 6))
    tasks = tasks[:8]
    assert len(tasks) == 8
    norm = md.fit_normalizer(tasks)
    return [norm.apply_task(t) for t in tasks], norm


@pytest.fixture(scope="session")
def overfit_run():
    tasks, norm = make_overfit_tasks()
    den_cfg = md.DenoiserConfig(variant="series", **TOY)
    sched = md.build_schedule(*OVERFIT_SCHED)
    tr_cfg = md.TrainConfig(**OVERFIT_TRAIN)
    t0 = time.monotonic()
    result = md.train(tasks, den_cfg, tr_cfg, sched, normalizer=norm)
    seconds = time.monotonic() - t0
    return {"tasks": tasks, "normalizer": norm, "den_cfg": den_cfg,
            "train_cfg": tr_cfg, "sched": sched, "result": result,
            "model": result.model, "train_seconds": seconds}


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
