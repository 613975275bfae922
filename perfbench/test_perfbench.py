"""Tests for the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import os
import re

import numpy as np
import pytest

import motion_diffusion as md
from motion_diffusion import cli, diffusion
from gate import Gate, close, negative_control, perturbed, same_bytes
from stats import percentile, tail_percentile
from tracer import LAYER_METRICS, Tracer, layer_metrics, self_times
from workloads import NULL, Sample

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = dict(model_dim=32, n_heads=2, t_obs=4, l_pred=5, dim=6, k_steps=5)


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n, p", [(19, None), (20, 50), (50, 80), (100, 90), (101, 90),
                                  (110, 90), (200, 95), (1000, 99)])
def test_tail_percentile_examples(n, p):
    assert tail_percentile(n) == p


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(20, 3000):
        p = tail_percentile(n)
        assert n * (100 - p) >= 10 * 100          # at least ten samples beyond p
        assert n * (100 - (p + 1)) < 10 * 100     # but not beyond p + 1


def test_percentile_matches_numpy_linear():
    values = np.random.default_rng(0).exponential(size=137)
    for p in (0, 10, 50, 90, 99, 100):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p), rel=1e-12)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 3.0, 0, 0],
             ["b", 4.0, 8.0, 0, 0],
             ["b.child", 5.0, 6.0, 2, 0],
             ["later", 11.0, 12.0, -1, 0]]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_layer_metrics_attribution():
    spans = [["diffusion.sample_deterministic", 0.0, 1.0, -1, 0],
             ["denoiser.eval_batch", 0.1, 0.5, 0, 3],
             ["numerics.matmul", 0.2, 0.3, 1, 800],
             ["numerics.add", 0.3, 0.35, 1, 200],
             ["denoiser.eval_batch", 0.5, 0.9, 0, 3],
             ["numerics.matmul", 0.6, 0.8, 4, 800],
             ["numerics.sub", 0.95, 0.97, 0, 64]]     # op outside the denoiser
    m = layer_metrics(spans)
    assert set(m) == set(LAYER_METRICS)
    assert m["diffusion.eval_calls"] == 2
    assert m["denoiser.items"] == 6
    assert m["numerics.matmul_calls"] == 2
    assert m["numerics.matmul_s"] == pytest.approx(0.3)
    assert m["numerics.calls_per_forward"] == 1.5
    assert m["numerics.bytes_out_per_forward"] == 900
    assert m["denoiser.eval_s"] == pytest.approx(0.8)
    assert m["denoiser.self_s"] == pytest.approx(0.8 - 0.35)
    assert m["diffusion.sampler_self_s"] == pytest.approx(1.0 - 0.8 - 0.02)
    assert m["trace.spans"] == len(spans)


# -- tracer on the real package ----------------------------------------------


def test_tracer_patches_names_where_they_are_looked_up():
    original = diffusion.sample_deterministic
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.sample_deterministic is diffusion.sample_deterministic
        assert cli.sample_deterministic is not original
        assert md.sample_deterministic is diffusion.sample_deterministic
    finally:
        tracer.uninstall()
    assert cli.sample_deterministic is original
    assert diffusion.sample_deterministic is original
    assert md.sample_deterministic is original


def test_tracer_counts_tape_records_and_forward_ops():
    cfg = md.DenoiserConfig(variant="series", **TOY)
    model = md.init_denoiser(cfg, 0)
    sched = md.build_schedule(TOY["k_steps"], 0.05, 0.333)
    rng = np.random.default_rng(0)
    p_obs = rng.normal(size=(3, TOY["t_obs"], TOY["dim"]))
    p_gt = rng.normal(size=(3, TOY["l_pred"], TOY["dim"]))
    eps = rng.normal(size=p_gt.shape)
    ks = np.array([1, 2, 3])

    untraced = md.numerics.Tape()
    loss, _ = md.batch_noise_loss(model, untraced, p_obs, p_gt, ks, eps, sched)

    tracer = Tracer()
    tracer.install()
    try:
        tape = md.numerics.Tape()
        traced_loss, leaves = md.batch_noise_loss(model, tape, p_obs, p_gt, ks, eps, sched)
        tape.gradients(traced_loss, leaves)
        md.sample_deterministic(model, p_obs[0], sched)
    finally:
        tracer.uninstall()
    assert traced_loss.data.tobytes() == loss.data.tobytes()
    m = layer_metrics(tracer.take())
    assert m["numerics.tape_records"] == len(untraced.records)
    forward_records = len(untraced.records) - 3    # the loss adds sub, mul and mean_all
    assert m["numerics.calls_per_forward"] == forward_records
    assert m["diffusion.eval_calls"] == TOY["k_steps"]
    assert m["denoiser.items"] == TOY["k_steps"]
    assert m["numerics.backward_s"] > 0


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.paused():
            md.numerics.add(np.ones(2), np.ones(2))
        md.numerics.add(np.ones(2), np.ones(2))
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.take()] == ["numerics.add"]


# -- correctness gate ----------------------------------------------------------


def test_gate_counts_a_perturbed_output_as_failed():
    out = np.random.default_rng(1).normal(size=(20, 15))
    gate = Gate()
    gate.record("same output", same_bytes("output", out.copy(), out))
    gate.record("perturbed output", same_bytes("output", perturbed(out), out))
    assert (gate.attempted, gate.failed, gate.fail_rate) == (2, 1, 0.5)
    assert negative_control(out)


def test_close_applies_the_stated_tolerance():
    want = np.array([1.0, -2.0, 0.0])
    assert close("x", want * (1 + 5e-7), want) == []
    assert close("x", want + np.array([0, 0, 5e-10]), want) == []
    assert close("x", want * (1 + 5e-6), want) != []


def test_workload_gate_catches_a_perturbed_prediction(tmp_path):
    st = Sample.setup(0, str(tmp_path), ref=None)
    gate = Gate()
    Sample.deterministic(st, gate, NULL)
    st.det_seen[0] = perturbed(st.det_seen[0])
    st.n_det = 0                                 # predict task 0 again
    Sample.deterministic(st, gate, NULL)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "repeated deterministic prediction" in gate.problems[0]


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["train", "sample", "pipeline"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    assert [m["name"] for m in spec["per_layer"]] == \
        LAYER_METRICS + ["trace.overhead_s", "trace.overhead_pct"]
