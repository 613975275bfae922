"""End-to-end command-line pipeline: config resolution, artifacts,
determinism contracts, and exit codes."""

import ast
import csv
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import motion_diffusion as md
import motion_diffusion.cli as cli
import motion_diffusion.numerics as nm
from conftest import edit_header, sealed
from motion_diffusion.cli import LOG_EVERY, main, parse_config_file

# window/model settings shared by every pipeline invocation in this file;
# the sampler refuses a checkpoint whose extents disagree with the flags
WINDOW_ARGS = ["--t-obs", "4", "--l-pred", "5", "--stride", "6"]
# more digits than int() converts from a string (4,300 by default)
LONG_INT = "9" * 5000
TRAIN_ARGS = WINDOW_ARGS + [
    "--model-dim", "16", "--n-heads", "2", "--k-steps", "3",
    "--batch-size", "4", "--lr", "1e-3", "--checkpoint-every", "10"]


def only_run_dir(base, command):
    dirs = glob.glob(os.path.join(str(base), f"{command}-*"))
    assert len(dirs) == 1, f"expected one {command} run under {base}, got {dirs}"
    return dirs[0]


def read_manifest(run_dir):
    with open(os.path.join(run_dir, "run_manifest.json")) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("MD_SEED", raising=False)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    os.environ.pop("MD_SEED", None)
    base = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(base), "--n-joints", "2",
                 "--n-sequences", "3", "--frames", "30", "--seed", "3"]) == 0
    return os.path.join(only_run_dir(base, "synth"), "manifest.json")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, dataset):
    os.environ.pop("MD_SEED", None)
    base = tmp_path_factory.mktemp("train")
    assert main(["train", "--out", str(base), "--data", dataset,
                 "--iterations", "30", "--seed", "4", *TRAIN_ARGS]) == 0
    return os.path.join(only_run_dir(base, "train"), "checkpoint.ckpt")


class TestConfigResolution:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment only\nseed = 5\n\nframes=40  # trailing\n")
        assert parse_config_file(str(cfg)) == {"seed": "5", "frames": "40"}

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 3\n")
        assert main(["synth", "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2

    def test_duplicate_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        assert main(["synth", "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2

    def test_unparseable_value_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames = ten\n")
        assert main(["synth", "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2

    def test_missing_required_setting_exits_2(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o")]) == 2

    def test_precedence_default_env_file_flag(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 55\n")
        base = dict(n_joints="2", n_sequences="1", frames="12")
        args = sum((["--" + k.replace("_", "-"), v] for k, v in base.items()), [])

        def seed_of(out, extra):
            assert main(["synth", "--out", str(tmp_path / out), *args, *extra]) == 0
            return read_manifest(only_run_dir(tmp_path / out, "synth"))["seed"]

        assert seed_of("o1", []) == 0  # built-in default
        monkeypatch.setenv("MD_SEED", "11")
        assert seed_of("o2", []) == 11  # env beats default
        assert seed_of("o3", ["--config", str(cfg)]) == 55  # file beats env
        assert seed_of("o4", ["--config", str(cfg), "--seed", "7"]) == 7

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MD_SEED", "lots")
        assert main(["synth", "--out", str(tmp_path / "o")]) == 2

    def test_manifest_records_resolved_config_and_build(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "o"), "--n-joints", "2",
                     "--n-sequences", "1", "--frames", "12"]) == 0
        manifest = read_manifest(only_run_dir(tmp_path / "o", "synth"))
        assert manifest["command"] == "synth"
        assert manifest["config"]["frames"] == 12
        assert manifest["config"]["fps"] == 25.0  # default echoed
        assert manifest["build"].startswith("motion-diffusion/")


class TestSynth:
    def synth(self, out, seed):
        assert main(["synth", "--out", str(out), "--n-joints", "2",
                     "--n-sequences", "3", "--frames", "20",
                     "--seed", str(seed)]) == 0
        return only_run_dir(out, "synth")

    def test_writes_listed_sequences(self, tmp_path):
        run = self.synth(tmp_path / "a", 0)
        with open(os.path.join(run, "manifest.json")) as fh:
            names = json.load(fh)
        assert len(names) == 3
        for name in names:
            seq = md.load_motion_file(os.path.join(run, name))
            assert seq.frames.shape == (20, 6)

    def test_same_seed_same_bytes(self, tmp_path):
        run_a = self.synth(tmp_path / "a", 9)
        run_b = self.synth(tmp_path / "b", 9)
        run_c = self.synth(tmp_path / "c", 10)
        name = "seq_000.mseq"
        bytes_a = open(os.path.join(run_a, name), "rb").read()
        assert bytes_a == open(os.path.join(run_b, name), "rb").read()
        assert bytes_a != open(os.path.join(run_c, name), "rb").read()

    def test_unknown_action_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "o"),
                     "--actions", "sprint:1"]) == 2
        assert "sprint" in capsys.readouterr().err


class TestTrainCmd:
    def test_artifacts(self, tmp_path, dataset):
        out = tmp_path / "t"
        assert main(["train", "--out", str(out), "--data", dataset,
                     "--iterations", "12", "--seed", "1", *TRAIN_ARGS]) == 0
        run = only_run_dir(out, "train")
        ckpt = md.load_checkpoint(os.path.join(run, "checkpoint.ckpt"))
        assert ckpt.iteration == 12
        assert not np.array_equal(ckpt.normalizer.std, np.ones(6))  # fitted
        log = open(os.path.join(run, "loss_log.csv")).read().splitlines()
        assert log[0] == "iteration,loss"
        assert log[1].startswith("1,")

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
    def test_loss_log_rows(self, tmp_path, dataset, checkpoint, monkeypatch, resume):
        # iteration 1, every LOG_EVERY-th and the last, as the loss train
        # returned; a resume from iteration 30 has no row for iteration 1
        results = []

        def recording_train(*args, **kw):
            results.append(md.train(*args, **kw))
            return results[-1]

        monkeypatch.setattr(cli, "train", recording_train)
        out = tmp_path / "t"
        assert main(["train", "--out", str(out), "--data", dataset,
                     "--iterations", "150", "--seed", "4", *TRAIN_ARGS,
                     *(["--resume", checkpoint] if resume else [])]) == 0
        losses = results[0].losses
        first = 31 if resume else 1
        lines = open(os.path.join(only_run_dir(out, "train"),
                                  "loss_log.csv")).read().splitlines()
        assert lines[0] == "iteration,loss"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, LOG_EVERY, 150][resume:]
        if not resume:
            assert float(rows[0][1]) == losses[0]
        assert float(rows[-2][1]) == losses[LOG_EVERY - first]
        assert float(rows[-1][1]) == losses[-1]

    @pytest.mark.parametrize("shape", [(1,), (3,)], ids=["broadcastable", "not"])
    def test_resume_with_misshaped_moment_exits_1(self, tmp_path, dataset, checkpoint,
                                                  capsys, shape):
        # the writer refuses the shape, so splice it into a sealed payload:
        # adam_m.in_w, (16,), follows every parameter in the file
        blob = open(checkpoint, "rb").read()
        ckpt = md.load_checkpoint(checkpoint)
        start = (blob.index(b"\n") + 1
                 + 8 * sum(a.size for a in ckpt.params.values()))
        path = tmp_path / "bad.ckpt"
        path.write_bytes(sealed(blob[:start] + np.zeros(shape).tobytes()
                                + blob[start + 16 * 8:-4]))
        assert main(["train", "--out", str(tmp_path / "r"), "--data", dataset,
                     "--iterations", "33", *TRAIN_ARGS, "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "payload has" in err
        assert not (tmp_path / "r").exists()

    def test_resume_from_a_non_finite_checkpoint_exits_1(self, tmp_path, dataset,
                                                         checkpoint, capsys):
        ckpt = md.load_checkpoint(checkpoint)
        ckpt.params["in_w"][0] = np.nan
        path = tmp_path / "nan.ckpt"
        md.save_checkpoint(ckpt, path)
        assert main(["train", "--out", str(tmp_path / "r"), "--data", dataset,
                     "--iterations", "33", *TRAIN_ARGS, "--resume", str(path)]) == 1
        assert "param.in_w" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_manifest_exits_2(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o"),
                     "--data", str(tmp_path / "nope.json"), *TRAIN_ARGS]) == 2

    @pytest.mark.parametrize("second", [dict(n_joints=3), dict(fps=30.0)],
                             ids=["dim", "fps"])
    def test_mixed_sequence_metadata_exits_2(self, tmp_path, capsys, second):
        # the second sequence disagrees with the first in pose dimension
        # or frame rate
        names = []
        for i, over in enumerate([{}, second]):
            kw = dict(n_joints=2, n_sequences=1, frames_per_sequence=30,
                      fps=25.0, action_mix={"walk": 1.0}, seed=i)
            kw.update(over)
            names.append(f"seq_{i}.mseq")
            md.save_motion_file(str(tmp_path / names[-1]), md.synth_dataset(**kw)[0])
        manifest = str(tmp_path / "manifest.json")
        md.save_manifest(manifest, names)
        assert main(["train", "--out", str(tmp_path / "o"), "--data", manifest,
                     "--iterations", "1", *TRAIN_ARGS]) == 2
        assert "sequence 1" in capsys.readouterr().err

    def test_resume_continues_bit_identically(self, tmp_path, dataset):
        def train_to(out, iters, resume=None):
            argv = ["train", "--out", str(out), "--data", dataset,
                    "--iterations", str(iters), "--seed", "6", *TRAIN_ARGS]
            if resume:
                argv += ["--resume", resume]
            assert main(argv) == 0
            return os.path.join(only_run_dir(out, "train"), "checkpoint.ckpt")

        full = train_to(tmp_path / "full", 24)
        half = train_to(tmp_path / "half", 12)
        cont = train_to(tmp_path / "cont", 24, resume=half)
        assert open(cont, "rb").read() == open(full, "rb").read()

    def test_resume_past_target_exits_2(self, tmp_path, dataset, checkpoint, capsys):
        # the fixture checkpoint is at iteration 30; a 10-iteration target
        # would hand back iteration-30 weights labelled iteration 10
        assert main(["train", "--out", str(tmp_path / "r"), "--data", dataset,
                     "--iterations", "10", "--seed", "4", *TRAIN_ARGS,
                     "--resume", checkpoint]) == 2
        assert "past the target" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_resume_records_no_seed(self, tmp_path, dataset, checkpoint):
        # the stream continues from the checkpoint whatever --seed says
        runs = []
        for seed in ("1", "99"):
            out = tmp_path / f"seed{seed}"
            assert main(["train", "--out", str(out), "--data", dataset,
                         "--iterations", "33", "--seed", seed, *TRAIN_ARGS,
                         "--resume", checkpoint]) == 0
            runs.append(only_run_dir(out, "train"))
        a, b = (open(os.path.join(r, "checkpoint.ckpt"), "rb").read() for r in runs)
        assert a == b
        for run in runs:
            manifest = read_manifest(run)
            assert manifest["seed"] is None
            assert manifest["config"]["seed"] is None

    def test_resume_with_another_model_exits_2(self, tmp_path, dataset, checkpoint,
                                               capsys):
        assert main(["train", "--out", str(tmp_path / "r"), "--data", dataset,
                     "--iterations", "33", *TRAIN_ARGS, "--model-dim", "32",
                     "--resume", checkpoint]) == 2
        assert "denoiser config" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_resume_on_another_pose_dimension_exits_2(self, tmp_path, checkpoint,
                                                      capsys):
        # the checkpoint's normalizer cannot apply to 9-dimensional poses
        assert main(["synth", "--out", str(tmp_path / "s"), "--n-joints", "3",
                     "--n-sequences", "3", "--frames", "30"]) == 0
        data = os.path.join(only_run_dir(tmp_path / "s", "synth"), "manifest.json")
        assert main(["train", "--out", str(tmp_path / "r"), "--data", data,
                     "--iterations", "33", *TRAIN_ARGS, "--resume", checkpoint]) == 2
        err = capsys.readouterr().err
        assert "dimension" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_resume_with_another_schedule_exits_2(self, tmp_path, dataset,
                                                  checkpoint, capsys):
        assert main(["train", "--out", str(tmp_path / "r"), "--data", dataset,
                     "--iterations", "33", "--seed", "4", *TRAIN_ARGS,
                     "--beta-max", "0.2", "--resume", checkpoint]) == 2
        assert "schedule" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_divergence_exits_1_with_last_good_checkpoint(self, tmp_path,
                                                          dataset, capsys):
        out = tmp_path / "d"
        argv = ["train", "--out", str(out), "--data", dataset,
                "--iterations", "50", "--seed", "1", *WINDOW_ARGS,
                "--model-dim", "16", "--n-heads", "2", "--k-steps", "3",
                "--batch-size", "4", "--lr", "1e6", "--checkpoint-every", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        ckpt = md.load_checkpoint(
            os.path.join(only_run_dir(out, "train"), "checkpoint.ckpt"))
        assert ckpt.iteration >= 1

    def test_op_overflow_exits_1_naming_the_iteration(self, tmp_path, dataset, capsys):
        # an update leaves huge but finite weights, and the next
        # iteration's ops overflow on them
        out = tmp_path / "d"
        assert main(["train", "--out", str(out), "--data", dataset, "--iterations", "50",
                     "--seed", "1", *TRAIN_ARGS, "--lr", "1e300",
                     "--checkpoint-every", "1"]) == 1
        err = capsys.readouterr().err
        (failed,) = re.findall(r"\(iteration (\d+)\)", err)
        saved = re.search(r"saved last good checkpoint at iteration (\d+)", err)
        assert int(saved.group(1)) == int(failed) - 1
        ckpt = md.load_checkpoint(
            os.path.join(only_run_dir(out, "train"), "checkpoint.ckpt"))
        assert ckpt.iteration == int(failed) - 1

    def test_diverged_run_prints_no_numpy_warning(self, tmp_path, dataset):
        # its own process, so that Python prints any warning to stderr as a
        # user would see it; every overflow already ends in a typed error
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(md.__file__)))
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "motion_diffusion.cli", "train",
             "--out", str(tmp_path / "d"), "--data", dataset, "--iterations", "50",
             "--seed", "1", *TRAIN_ARGS, "--lr", "1e308", "--checkpoint-every", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "saved last good checkpoint" in done.stderr
        assert "Warning" not in done.stderr, done.stderr


class TestSampleCmd:
    def sample(self, out, checkpoint, dataset, *extra):
        assert main(["sample", "--out", str(out), "--checkpoint", checkpoint,
                     "--data", dataset, *WINDOW_ARGS, *extra]) == 0
        return only_run_dir(out, "sample")

    def test_stochastic_artifacts_and_shapes(self, tmp_path, checkpoint, dataset):
        run = self.sample(tmp_path / "s", checkpoint, dataset,
                          "--n", "3", "--seed", "5", "--limit", "2")
        with open(os.path.join(run, "samples_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["mode"] == "stochastic"
        assert len(manifest["tasks"]) == 2
        for entry in manifest["tasks"]:
            assert entry["files"] == [f"sample_{j:03d}.mseq" for j in range(3)]
            task_dir = os.path.join(run, entry["dir"])
            gt = md.load_motion_file(os.path.join(task_dir, entry["gt"]))
            assert gt.frames.shape == (5, 6)
            for name in entry["files"]:
                assert md.load_motion_file(
                    os.path.join(task_dir, name)).frames.shape == (5, 6)

    @pytest.mark.parametrize("mode", ["stochastic", "deterministic"])
    def test_every_task_runs_in_one_pool(self, tmp_path, checkpoint, dataset, monkeypatch,
                                         mode):
        # the run's pool outlives each task, so a later task makes no new slot
        true_alloc, pools, grown = nm._alloc, [], []
        task = [0]

        def alloc(shape):
            pools.append(nm._POOL.get())
            before = len(pools[-1])
            arr = true_alloc(shape)
            grown.append((task[0], len(pools[-1]) > before))
            return arr

        def counted(sampler):
            def run(*args):
                task[0] += 1
                return sampler(*args)
            return run

        monkeypatch.setattr(nm, "_alloc", alloc)
        for name in ("sample_stochastic", "sample_deterministic"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        self.sample(tmp_path / "s", checkpoint, dataset, "--mode", mode, "--n", "3",
                    "--limit", "3")
        assert task[0] == 3
        assert len({id(pool) for pool in pools}) == 1
        assert {t for t, new in grown if new} == {1}
        assert nm._POOL.get() is None

    def test_same_seed_reproduces_bytes(self, tmp_path, checkpoint, dataset):
        extra = ("--n", "2", "--seed", "5", "--limit", "1")
        run_a = self.sample(tmp_path / "a", checkpoint, dataset, *extra)
        run_b = self.sample(tmp_path / "b", checkpoint, dataset, *extra)
        rel = os.path.join("task_000", "sample_001.mseq")
        assert (open(os.path.join(run_a, rel), "rb").read()
                == open(os.path.join(run_b, rel), "rb").read())

    def test_first_sample_independent_of_n(self, tmp_path, checkpoint, dataset):
        run_1 = self.sample(tmp_path / "n1", checkpoint, dataset,
                            "--n", "1", "--seed", "8", "--limit", "1")
        run_4 = self.sample(tmp_path / "n4", checkpoint, dataset,
                            "--n", "4", "--seed", "8", "--limit", "1")
        rel = os.path.join("task_000", "sample_000.mseq")
        assert (open(os.path.join(run_1, rel), "rb").read()
                == open(os.path.join(run_4, rel), "rb").read())

    def test_deterministic_ignores_seed(self, tmp_path, checkpoint, dataset):
        run_a = self.sample(tmp_path / "a", checkpoint, dataset,
                            "--mode", "deterministic", "--seed", "1",
                            "--limit", "1")
        run_b = self.sample(tmp_path / "b", checkpoint, dataset,
                            "--mode", "deterministic", "--seed", "999",
                            "--limit", "1")
        rel = os.path.join("task_000", "det.mseq")
        assert (open(os.path.join(run_a, rel), "rb").read()
                == open(os.path.join(run_b, rel), "rb").read())

    def test_mode_typo_exits_2(self, tmp_path, checkpoint, dataset):
        assert main(["sample", "--out", str(tmp_path / "o"),
                     "--checkpoint", checkpoint, "--data", dataset,
                     *WINDOW_ARGS, "--mode", "stochastc"]) == 2

    def test_window_mismatch_exits_2(self, tmp_path, checkpoint, dataset):
        assert main(["sample", "--out", str(tmp_path / "o"),
                     "--checkpoint", checkpoint, "--data", dataset,
                     "--t-obs", "5", "--l-pred", "5", "--stride", "6"]) == 2

    def test_corrupt_checkpoint_exits_1(self, tmp_path, checkpoint, dataset):
        blob = bytearray(open(checkpoint, "rb").read())
        blob[-1] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["sample", "--out", str(tmp_path / "o"),
                     "--checkpoint", str(bad), "--data", dataset,
                     *WINDOW_ARGS]) == 1


    @pytest.mark.parametrize("edit", [
        {"denoiser_config": {"dim": 10**12}},
        {"denoiser_config": {"model_dim": 10**12}},
        {"denoiser_config": {"k_steps": 10**12}, "schedule": {"k_steps": 10**12}},
    ], ids=["dim", "model-dim", "both-k-steps"])
    def test_huge_extent_exits_1_before_it_allocates(self, tmp_path, checkpoint,
                                                     dataset, capsys, edit):
        # the payload length is checked against the config's layout first, so
        # no extent reaches an array or a schedule table
        bad = shutil.copyfile(checkpoint, tmp_path / "huge.ckpt")
        edit_header(bad, lambda manifest: [manifest[group].update(values)
                                           for group, values in edit.items()])
        assert main(["sample", "--out", str(tmp_path / "o"), "--checkpoint", str(bad),
                     "--data", dataset, *WINDOW_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "payload has" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_malformed_checkpoint_manifest_exits_1(self, tmp_path, checkpoint,
                                                   dataset):
        bad = shutil.copyfile(checkpoint, tmp_path / "bad.ckpt")
        edit_header(bad, lambda manifest: manifest.pop("iteration"))
        assert main(["sample", "--out", str(tmp_path / "o"),
                     "--checkpoint", str(bad), "--data", dataset,
                     *WINDOW_ARGS]) == 1

    @pytest.mark.parametrize("group, key, value", [
        ("denoiser_config", "model_dim", 16.0), ("denoiser_config", "model_dim", True),
        ("schedule", "k_steps", 3.0), ("schedule", "k_steps", True),
        (None, "iteration", 30.0), (None, "version", 1.0), (None, "version", True),
        (None, "version", 2.0)])
    def test_checkpoint_count_of_another_kind_exits_1(self, tmp_path, checkpoint,
                                                      dataset, capsys, group, key,
                                                      value):
        # a float or a boolean, even one equal to the count, is no count
        bad = shutil.copyfile(checkpoint, tmp_path / "bad.ckpt")
        edit_header(bad, lambda manifest: (manifest[group] if group else manifest)
                    .__setitem__(key, value))
        assert main(["sample", "--out", str(tmp_path / "o"),
                     "--checkpoint", str(bad), "--data", dataset,
                     *WINDOW_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "o").exists()

    def test_another_pose_dimension_exits_2(self, tmp_path, checkpoint, capsys):
        assert main(["synth", "--out", str(tmp_path / "s"), "--n-joints", "3",
                     "--n-sequences", "3", "--frames", "30"]) == 0
        data = os.path.join(only_run_dir(tmp_path / "s", "synth"), "manifest.json")
        assert main(["sample", "--out", str(tmp_path / "o"), "--checkpoint", checkpoint,
                     "--data", data, *WINDOW_ARGS]) == 2
        assert "dimension" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("k_steps", [2, 5])
    def test_schedule_k_other_than_the_model_k_exits_1(self, tmp_path, checkpoint,
                                                       dataset, capsys, k_steps):
        # fewer steps would sample silently with a truncated chain, more
        # would fail mid-chain; the checkpoint is rejected when it loads
        bad = shutil.copyfile(checkpoint, tmp_path / "bad.ckpt")
        edit_header(bad, lambda manifest: manifest["schedule"].update(k_steps=k_steps))
        for mode in ("stochastic", "deterministic"):
            assert main(["sample", "--out", str(tmp_path / mode),
                         "--checkpoint", str(bad), "--data", dataset,
                         *WINDOW_ARGS, "--mode", mode, "--n", "2"]) == 1
            assert f"schedule K={k_steps}" in capsys.readouterr().err
            assert not (tmp_path / mode).exists()

    def test_divergence_names_the_diffusion_step(self, tmp_path, checkpoint,
                                                 dataset, capsys):
        # an output head scaled to 1e305 overflows the reverse chain
        ckpt = md.load_checkpoint(checkpoint)
        ckpt.params["out_w"] = ckpt.params["out_w"] * 1e305
        bad = str(tmp_path / "huge.ckpt")
        md.save_checkpoint(ckpt, bad)
        for mode in ("stochastic", "deterministic"):
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["sample", "--out", str(tmp_path / mode),
                             "--checkpoint", bad, "--data", dataset,
                             *WINDOW_ARGS, "--mode", mode, "--n", "2"]) == 1
            err = capsys.readouterr().err
            assert "(task 0, diffusion step k=" in err
            assert "Traceback" not in err

    def test_divergence_names_the_index_of_a_later_task(self, tmp_path, checkpoint,
                                                        dataset, capsys, monkeypatch):
        true_sample, calls = cli.sample_deterministic, []

        def diverge_at_the_third_task(model, p_obs, sched):
            calls.append(p_obs)
            if len(calls) == 3:
                raise md.SamplingDivergedError("reverse state is non-finite", step=4)
            return true_sample(model, p_obs, sched)

        monkeypatch.setattr(cli, "sample_deterministic", diverge_at_the_third_task)
        assert main(["sample", "--out", str(tmp_path), "--checkpoint", checkpoint,
                     "--data", dataset, *WINDOW_ARGS, "--mode", "deterministic",
                     "--split", "all"]) == 1
        assert ("reverse state is non-finite (task 2, diffusion step k=4)"
                in capsys.readouterr().err)

    def test_integer_past_the_digit_limit_exits_cleanly(self, tmp_path, checkpoint,
                                                       dataset):
        # json.loads raises a plain ValueError for it, not a JSONDecodeError
        blob = open(checkpoint, "rb").read()
        assert b'"iteration": 30' in blob
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(b'"iteration": 30',
                                     f'"iteration": {LONG_INT}'.encode(), 1))
        assert main(["sample", "--out", str(tmp_path / "o"), "--checkpoint", str(bad),
                     "--data", dataset, *WINDOW_ARGS]) == 1
        manifest = tmp_path / "manifest.json"
        manifest.write_text(f"[{LONG_INT}]")
        assert main(["sample", "--out", str(tmp_path / "o"), "--checkpoint", checkpoint,
                     "--data", str(manifest), *WINDOW_ARGS]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_dataset_manifest_not_json_exits_2(self, tmp_path, checkpoint,
                                               command):
        bad = tmp_path / "manifest.json"
        bad.write_text('["seq_000.mseq",')
        args = (["--iterations", "1", *TRAIN_ARGS] if command == "train"
                else ["--checkpoint", checkpoint, *WINDOW_ARGS])
        assert main([command, "--out", str(tmp_path / "o"),
                     "--data", str(bad), *args]) == 2


def build_sample_run(path, task_samples, gt_list, mode="stochastic", fps=25.0,
                     representation="euler"):
    """Hand-build a sample run directory the eval command can consume."""
    os.makedirs(path)
    entries = []
    for i, (samples, gt) in enumerate(zip(task_samples, gt_list)):
        task_dir = os.path.join(path, f"task_{i:03d}")
        os.makedirs(task_dir)
        entry = {"index": i, "dir": f"task_{i:03d}", "files": [], "gt": "gt.mseq"}
        md.save_motion_file(os.path.join(task_dir, "gt.mseq"),
                            md.MotionSequence(frames=gt, fps=fps,
                                              representation=representation))
        stem = "det" if mode == "deterministic" else "sample_{:03d}"
        for j, frames in enumerate(samples):
            name = (stem + ".mseq") if mode == "deterministic" else (
                stem.format(j) + ".mseq")
            md.save_motion_file(os.path.join(task_dir, name),
                                md.MotionSequence(frames=frames, fps=fps,
                                                  representation=representation))
            entry["files"].append(name)
        entries.append(entry)
    with open(os.path.join(path, "samples_manifest.json"), "w") as fh:
        json.dump({"mode": mode, "n": len(task_samples[0]), "seed": 0,
                   "fps": fps, "representation": representation,
                   "l_pred": gt_list[0].shape[0], "dim": gt_list[0].shape[1],
                   "tasks": entries}, fh)


def rewrite_json(path, mutate):
    with open(path) as fh:
        obj = json.load(fh)
    mutate(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


class TestEvalCmd:
    def test_ground_truth_duplicates_score_zero(self, tmp_path):
        rng = np.random.default_rng(0)
        gt = rng.normal(size=(5, 6))
        build_sample_run(tmp_path / "s", [[gt.copy() for _ in range(4)]], [gt])
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out), "--samples",
                     str(tmp_path / "s")]) == 0
        with open(os.path.join(only_run_dir(out, "eval"), "metrics.csv"),
                  newline="") as fh:
            table = list(csv.reader(fh))
        row = dict(zip(table[0], table[1]))
        assert row["task"] == "task_000"
        for col in ("apd", "mde", "ade", "sde", "mfde", "afde", "sfde"):
            assert float(row[col]) == 0.0

    def test_aggregate_row_is_column_mean(self, tmp_path):
        rng = np.random.default_rng(1)
        gts = [rng.normal(size=(5, 6)) for _ in range(3)]
        sets = [[gt + rng.normal(size=(5, 6)) for _ in range(4)] for gt in gts]
        build_sample_run(tmp_path / "s", sets, gts)
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out), "--samples",
                     str(tmp_path / "s")]) == 0
        with open(os.path.join(only_run_dir(out, "eval"), "metrics.csv"),
                  newline="") as fh:
            table = list(csv.reader(fh))
        body = np.array([[float(x) for x in r[1:]] for r in table[1:-1]])
        agg = np.array([float(x) for x in table[-1][1:]])
        assert table[-1][0] == "mean"
        np.testing.assert_allclose(agg, body.mean(axis=0), rtol=1e-11)

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        gt = rng.normal(size=(5, 6))
        build_sample_run(tmp_path / "s",
                         [[gt + rng.normal(size=(5, 6)) for _ in range(3)]], [gt])
        csvs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["eval", "--out", str(out), "--samples",
                         str(tmp_path / "s")]) == 0
            csvs.append(open(os.path.join(only_run_dir(out, "eval"),
                                          "metrics.csv"), "rb").read())
        assert csvs[0] == csvs[1]

    def test_shape_mismatch_names_task(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(5, 6))
        build_sample_run(tmp_path / "s",
                         [[gt, gt], [rng.normal(size=(4, 6)), gt]],
                         [gt, gt])
        assert main(["eval", "--out", str(tmp_path / "e"), "--samples",
                     str(tmp_path / "s")]) == 1
        assert "task 1" in capsys.readouterr().err

    def test_deterministic_run_rejected_as_samples(self, tmp_path):
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(5, 6))
        build_sample_run(tmp_path / "d", [[gt]], [gt], mode="deterministic")
        assert main(["eval", "--out", str(tmp_path / "e"), "--samples",
                     str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("edit", [
        lambda path: path.write_text('{"mode": "stochastic", '),
        lambda path: path.write_bytes(b"\xff\xfe{}"),
        lambda path: path.write_text("[]"),
        lambda path: rewrite_json(path, lambda m: m.pop("mode")),
        lambda path: rewrite_json(path, lambda m: m.pop("tasks")),
        lambda path: rewrite_json(path, lambda m: m.update(tasks={"0": {}})),
        lambda path: rewrite_json(path, lambda m: m["tasks"][0].pop("files")),
        lambda path: rewrite_json(path, lambda m: m["tasks"][0].update(files=[])),
        lambda path: rewrite_json(path, lambda m: m["tasks"][0].update(dir=3)),
        lambda path: rewrite_json(path, lambda m: m.pop("fps")),
        lambda path: rewrite_json(path, lambda m: m.update(fps=True)),
        lambda path: rewrite_json(path, lambda m: m.update(fps="25")),
        lambda path: rewrite_json(path, lambda m: m["tasks"][0].pop("gt")),
        lambda path: rewrite_json(path, lambda m: m["tasks"][0].update(index=False)),
        lambda path: rewrite_json(path, lambda m: m["tasks"][0].update(index=-1)),
        lambda path: path.write_text(f'{{"n": {LONG_INT}}}'),
        lambda path: rewrite_json(path, lambda m: m.update(tasks=[])),
        lambda path: rewrite_json(path, lambda m: m["tasks"].append(dict(m["tasks"][0]))),
    ], ids=["truncated", "not-utf8", "not-object", "no-mode", "no-tasks",
            "tasks-not-list", "task-no-files", "task-empty-files",
            "task-dir-not-string", "no-fps", "fps-true", "fps-string", "task-no-gt",
            "task-index-false", "task-index-negative", "integer-past-digit-limit",
            "tasks-empty", "task-index-repeated"])
    @pytest.mark.parametrize("role", ["samples", "det"])
    def test_malformed_samples_manifest_exits_2(self, tmp_path, edit, role):
        rng = np.random.default_rng(5)
        gt = rng.normal(size=(5, 6))
        build_sample_run(tmp_path / "s", [[gt, gt + 1.0]], [gt])
        build_sample_run(tmp_path / "d", [[gt]], [gt], mode="deterministic")
        edit(tmp_path / ("s" if role == "samples" else "d") / "samples_manifest.json")
        assert main(["eval", "--out", str(tmp_path / "e"),
                     "--samples", str(tmp_path / "s"),
                     "--det", str(tmp_path / "d")]) == 2
        assert not (tmp_path / "e").exists()

    def test_det_run_missing_a_task_exits_2(self, tmp_path, capsys):
        # the euler columns of task 1 would have no deterministic prediction
        rng = np.random.default_rng(7)
        gts = [rng.normal(size=(5, 6)) for _ in range(3)]
        build_sample_run(tmp_path / "s", [[gt, gt + 1.0] for gt in gts], gts)
        build_sample_run(tmp_path / "d", [[gts[0]], [gts[2]]], [gts[0], gts[2]],
                         mode="deterministic")
        rewrite_json(tmp_path / "d" / "samples_manifest.json",
                     lambda m: m["tasks"][1].update(index=2))
        assert main(["eval", "--out", str(tmp_path / "e"), "--samples",
                     str(tmp_path / "s"), "--det", str(tmp_path / "d")]) == 2
        assert "no task 1 " in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("representation, horizons, columns", [
        ("euler", "80", ["euler_mse_80ms"]),
        ("xyz", "80", []),  # the angle MSE scores euler angles only
        # past the last frame, however large: omitted, not an overflow
        ("euler", "80,1" + "0" * 308, ["euler_mse_80ms"]),
        ("euler", "80,1" + "0" * 400, ["euler_mse_80ms"]),
    ], ids=["euler", "xyz", "horizon-1e308", "horizon-1e400"])
    def test_euler_mse_columns(self, tmp_path, representation, horizons, columns):
        rng = np.random.default_rng(6)
        gt = rng.normal(size=(5, 6))
        build_sample_run(tmp_path / "s", [[gt, gt + 1.0]], [gt],
                         representation=representation)
        build_sample_run(tmp_path / "d", [[gt + 0.5]], [gt], mode="deterministic",
                         representation=representation)
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out), "--samples", str(tmp_path / "s"),
                     "--det", str(tmp_path / "d"), "--horizons", horizons]) == 0
        with open(os.path.join(only_run_dir(out, "eval"), "metrics.csv"),
                  newline="") as fh:
            header = next(csv.reader(fh))
        assert [c for c in header if c.startswith("euler_mse_")] == columns

    @pytest.mark.parametrize("horizons", ["0", "80,0", "-80"])
    def test_horizon_not_positive_exits_2(self, tmp_path, capsys, horizons):
        rng = np.random.default_rng(8)
        gt = rng.normal(size=(5, 6))
        build_sample_run(tmp_path / "s", [[gt, gt + 1.0]], [gt])
        assert main(["eval", "--out", str(tmp_path / "e"), "--samples",
                     str(tmp_path / "s"), f"--horizons={horizons}"]) == 2
        assert "positive" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_pipeline_with_deterministic_merge(self, tmp_path, checkpoint,
                                               dataset):
        sto = tmp_path / "sto"
        det = tmp_path / "det"
        common = ["--checkpoint", checkpoint, "--data", dataset, *WINDOW_ARGS,
                  "--limit", "2"]
        assert main(["sample", "--out", str(sto), *common, "--n", "3"]) == 0
        assert main(["sample", "--out", str(det), *common,
                     "--mode", "deterministic"]) == 0
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out),
                     "--samples", only_run_dir(sto, "sample"),
                     "--det", only_run_dir(det, "sample"),
                     "--horizons", "80,160,1000"]) == 0
        with open(os.path.join(only_run_dir(out, "eval"), "metrics.csv"),
                  newline="") as fh:
            table = list(csv.reader(fh))
        # 1000 ms at 25 fps needs frame 25 > l_pred=5, so it drops out
        assert table[0][-2:] == ["euler_mse_80ms", "euler_mse_160ms"]
        assert [r[0] for r in table[1:]] == ["task_000", "task_001", "mean"]

    def test_det_run_of_another_dataset_exits_2(self, tmp_path, checkpoint, dataset,
                                                capsys):
        # stochastic samples of an xyz dataset, deterministic ones of the euler
        # dataset: scoring them together used to write euler_mse columns
        assert main(["synth", "--out", str(tmp_path / "x"), "--n-joints", "2",
                     "--n-sequences", "3", "--frames", "30", "--seed", "1",
                     "--representation", "xyz"]) == 0
        xyz = os.path.join(only_run_dir(tmp_path / "x", "synth"), "manifest.json")
        common = ["--checkpoint", checkpoint, *WINDOW_ARGS, "--limit", "2"]
        assert main(["sample", "--out", str(tmp_path / "sto"), "--data", xyz,
                     *common, "--n", "3"]) == 0
        assert main(["sample", "--out", str(tmp_path / "det"), "--data", dataset,
                     *common, "--mode", "deterministic"]) == 0
        assert main(["eval", "--out", str(tmp_path / "e"),
                     "--samples", only_run_dir(tmp_path / "sto", "sample"),
                     "--det", only_run_dir(tmp_path / "det", "sample")]) == 2
        assert "representation" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("differs", ["representation", "fps", "ground truth"])
    def test_det_run_of_other_motions_exits_2(self, tmp_path, capsys, differs):
        # both sampling modes are scored on the same observed windows
        rng = np.random.default_rng(10)
        gts = [rng.normal(size=(5, 6)) for _ in range(2)]
        build_sample_run(tmp_path / "s", [[gt, gt + 1.0] for gt in gts], gts)
        det_gts = [gts[0], gts[1] + 1e-9] if differs == "ground truth" else gts
        build_sample_run(tmp_path / "d", [[gt] for gt in det_gts], det_gts,
                         mode="deterministic", fps=50.0 if differs == "fps" else 25.0,
                         representation="xyz" if differs == "representation" else "euler")
        assert main(["eval", "--out", str(tmp_path / "e"), "--samples",
                     str(tmp_path / "s"), "--det", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert differs in err
        if differs == "ground truth":
            assert "task 1 " in err
        assert not (tmp_path / "e").exists()


def damage_byte(path, offset):
    """Make byte `offset` of the file a control character (0x01)."""
    blob = bytearray(path.read_bytes())
    blob[offset] = 0x01
    path.write_bytes(bytes(blob))


class TestDamagedFileIsNamed:
    """An error about a file's content names that file, once."""

    def test_eval_names_a_damaged_sample(self, tmp_path, capsys):
        gt = np.random.default_rng(11).normal(size=(5, 6))
        build_sample_run(tmp_path / "s", [[gt, gt + 1.0]], [gt])
        bad = tmp_path / "s" / "task_000" / "sample_001.mseq"
        damage_byte(bad, 3)
        assert main(["eval", "--out", str(tmp_path / "e"), "--samples",
                     str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "motion file header is not valid JSON" in err
        assert err.count(str(bad)) == 1
        assert not (tmp_path / "e").exists()

    def test_train_names_a_damaged_sequence(self, tmp_path, dataset, capsys):
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(dataset), data)
        bad = data / "seq_002.mseq"
        damage_byte(bad, 3)
        assert main(["train", "--out", str(tmp_path / "o"), "--data",
                     str(data / "manifest.json"), "--iterations", "1", *TRAIN_ARGS]) == 2
        err = capsys.readouterr().err
        assert "motion file header is not valid JSON" in err
        assert err.count(str(bad)) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("offset, fragment", [(3, "not valid JSON"),
                                                  (-1, "checksum")],
                             ids=["manifest-line", "payload"])
    def test_sample_names_a_damaged_checkpoint(self, tmp_path, checkpoint, dataset,
                                               capsys, offset, fragment):
        bad = tmp_path / "bad.ckpt"
        shutil.copyfile(checkpoint, bad)
        damage_byte(bad, offset)
        assert main(["sample", "--out", str(tmp_path / "o"), "--checkpoint", str(bad),
                     "--data", dataset, *WINDOW_ARGS]) == 1
        err = capsys.readouterr().err
        assert fragment in err and err.count(str(bad)) == 1
        assert not (tmp_path / "o").exists()


def _eval_args(tmp_path, dataset, checkpoint):
    gt = np.random.default_rng(12).normal(size=(5, 6))
    build_sample_run(tmp_path / "s", [[gt, gt + 1.0]], [gt])
    return ["--samples", str(tmp_path / "s")]


# each command's arguments, from (a directory, the dataset manifest, the checkpoint)
RUN_ARGS = {
    "synth": lambda tmp_path, dataset, checkpoint: [
        "--n-joints", "2", "--n-sequences", "1", "--frames", "12"],
    "train": lambda tmp_path, dataset, checkpoint: [
        "--data", dataset, "--iterations", "1", *TRAIN_ARGS],
    "sample": lambda tmp_path, dataset, checkpoint: [
        "--checkpoint", checkpoint, "--data", dataset, *WINDOW_ARGS, "--limit", "1",
        "--n", "2"],
    "eval": _eval_args,
    "gradcheck": lambda tmp_path, dataset, checkpoint: ["--probes", "1"],
    "export": lambda tmp_path, dataset, checkpoint: [
        "--input", os.path.join(os.path.dirname(dataset), "seq_000.mseq")],
}


@pytest.mark.parametrize("command", sorted(cli.COMMAND_KEYS))
def test_every_command_announces_exactly_one_run(tmp_path, dataset, checkpoint, capsys,
                                                 command):
    out = tmp_path / "out"
    argv = [command, *RUN_ARGS[command](tmp_path, dataset, checkpoint), "--out", str(out)]
    assert main(argv) == 0
    announced = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("run directory: ")]
    assert len(announced) == 1, announced
    run_dir = announced[0][len("run directory: "):]
    assert os.listdir(out) == [os.path.basename(run_dir)]
    assert run_dir == os.path.join(str(out), os.path.basename(run_dir))
    manifest = read_manifest(run_dir)
    resolved = cli.resolve_config(command, cli.build_parser().parse_args(argv))
    assert manifest["command"] == command
    assert manifest["config"] == json.loads(json.dumps(resolved))


class TestGradcheckCmd:
    def test_reports_and_passes(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gradcheck", "--out", str(out), "--probes", "2"]) == 0
        text = open(os.path.join(only_run_dir(out, "gradcheck"),
                                 "gradcheck.txt")).read()
        assert "PASS" in text and "FAIL" not in text
        assert "matmul" in text and "layer_norm" in text
        assert "linear" in text and "attention" in text
        assert "attention_block_rows" in text and "attention_block_one_row" in text
        assert "series" in text and "parallel" in text
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_pullback_detected(self, tmp_path, monkeypatch):
        # negative control: a 1% error in one backward kernel must fail
        # the suite and surface as a nonzero exit
        true_kernel = nm._matmul_backward_a
        monkeypatch.setattr(nm, "_matmul_backward_a",
                            lambda g, b: true_kernel(g, b) * 1.01)
        assert main(["gradcheck", "--out", str(tmp_path / "g"),
                     "--probes", "1"]) == 1


def _imported_modules(source: str) -> list[str]:
    """The top-level package of every module that `source` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return found


def _src_imports() -> dict[str, list[str]]:
    """The `_imported_modules` of every module of the package, by file name."""
    src = os.path.dirname(md.__file__)
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                found[name] = _imported_modules(fh.read())
    return found


def _foreign(modules: list[str]) -> list[str]:
    """The modules that are neither the standard library's nor numpy."""
    return [m for m in modules if m not in sys.stdlib_module_names and m != "numpy"]


def test_no_module_touches_the_host_allocator():
    # memory reuse is the buffer pool's: no module reaches the C library
    assert [name for name, mods in _src_imports().items() if "ctypes" in mods] == []


def test_every_module_imports_only_the_stdlib_numpy_and_its_package():
    # pyproject.toml declares numpy alone, and perfbench's `setup_s` times a
    # fresh `import motion_diffusion`; package-relative imports are not listed
    assert {name: _foreign(mods) for name, mods in _src_imports().items()
            if _foreign(mods)} == {}


@pytest.mark.parametrize("source", [
    "import ctypes\n", "import os, ctypes.util\n", "from ctypes import CDLL\n",
    "def f():\n    import ctypes.util as u\n",
])
def test_the_import_scan_sees_ctypes(source):
    assert "ctypes" in _imported_modules(source)


def test_the_import_scan_sees_a_foreign_module():
    source = ("import json, numpy as np\nfrom . import numerics\n"
              "def f():\n    from scipy.linalg import solve\n")
    assert _foreign(_imported_modules(source)) == ["scipy"]


# each builds argv from (a directory, the dataset manifest, the checkpoint)
BAD_PATHS_AND_COUNTS = {
    "export-input-is-dir": lambda d, data, ckpt: ["export", "--input", d],
    "train-data-is-dir": lambda d, data, ckpt: [
        "train", "--data", d, "--iterations", "1", *TRAIN_ARGS],
    "sample-checkpoint-is-dir": lambda d, data, ckpt: [
        "sample", "--checkpoint", d, "--data", data, *WINDOW_ARGS],
    "sample-n-0": lambda d, data, ckpt: [
        "sample", "--checkpoint", ckpt, "--data", data, *WINDOW_ARGS, "--n", "0"],
    "train-stride-0": lambda d, data, ckpt: [
        "train", "--data", data, "--iterations", "1", *TRAIN_ARGS, "--stride", "0"],
    "train-t-obs-0": lambda d, data, ckpt: [
        "train", "--data", data, "--iterations", "1", *TRAIN_ARGS, "--t-obs", "0"],
    "train-l-pred-0": lambda d, data, ckpt: [
        "train", "--data", data, "--iterations", "1", *TRAIN_ARGS, "--l-pred", "0"],
    "sample-limit--1": lambda d, data, ckpt: [
        "sample", "--checkpoint", ckpt, "--data", data, *WINDOW_ARGS, "--limit", "-1"],
    # no end-to-end probe is no pass
    "gradcheck-probes-0": lambda d, data, ckpt: ["gradcheck", "--probes", "0"],
    "gradcheck-probes--1": lambda d, data, ckpt: ["gradcheck", "--probes", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS_AND_COUNTS))
def test_bad_path_or_count_exits_2(tmp_path, dataset, checkpoint, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = BAD_PATHS_AND_COUNTS[case](str(folder), dataset, checkpoint)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# argv of each command that takes a seed, from (the dataset manifest, the checkpoint)
SEEDED = {
    "synth": lambda data, ckpt: ["synth", "--n-joints", "2", "--n-sequences", "1"],
    "train": lambda data, ckpt: [
        "train", "--data", data, "--iterations", "1", *TRAIN_ARGS],
    "sample": lambda data, ckpt: [
        "sample", "--checkpoint", ckpt, "--data", data, *WINDOW_ARGS, "--n", "2"],
    "gradcheck": lambda data, ckpt: ["gradcheck", "--probes", "1"],
}
NEGATIVE_SEEDS = ([(command, "seed", source) for command in sorted(SEEDED)
                   for source in ("flag", "config", "env")]
                  + [(command, "split_seed", source) for command in ("sample", "train")
                     for source in ("flag", "config")])


@pytest.mark.parametrize("command, key, source", NEGATIVE_SEEDS)
def test_negative_seed_exits_2(tmp_path, dataset, checkpoint, monkeypatch, capsys,
                               command, key, source):
    argv = SEEDED[command](dataset, checkpoint) + ["--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), "-1"]
    elif source == "config":
        (tmp_path / "run.cfg").write_text(f"{key} = -1\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("MD_SEED", "-1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "o").exists()


# each builds argv from (a directory holding latin1.cfg, the dataset manifest)
BAD_VALUES = {
    "config-not-utf8": lambda d, data: [
        "synth", "--config", os.path.join(d, "latin1.cfg")],
    "synth-action-weight-nan": lambda d, data: ["synth", "--actions", "walk:nan"],
    "synth-action-weight-inf": lambda d, data: ["synth", "--actions", "walk:inf"],
    "synth-actions-empty": lambda d, data: ["synth", "--actions", " , "],
    "synth-fps-nan": lambda d, data: ["synth", "--fps", "nan"],
    "synth-fps-inf": lambda d, data: ["synth", "--fps", "inf"],
    # rejected before any sequence is generated, even when none would be
    "synth-representation-0-sequences": lambda d, data: [
        "synth", "--representation", "quaternion", "--n-sequences", "0"],
    "synth-representation-8-sequences": lambda d, data: [
        "synth", "--representation", "quaternion", "--n-sequences", "8"],
    "train-grad-clip-nan": lambda d, data: [
        "train", "--data", data, "--iterations", "1", *TRAIN_ARGS, "--grad-clip", "nan"],
    "train-lr-inf": lambda d, data: [
        "train", "--data", data, "--iterations", "1", *TRAIN_ARGS, "--lr", "inf"],
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_2(tmp_path, dataset, capsys, case):
    (tmp_path / "latin1.cfg").write_bytes(b"actions = caf\xe9:1\n")
    argv = BAD_VALUES[case](str(tmp_path), dataset)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not (tmp_path / "o").exists()


class TestExportCmd:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(7, 6))
        src = tmp_path / "motion.mseq"
        md.save_motion_file(src, md.MotionSequence(frames=frames, fps=25.0,
                                                   representation="euler"))
        out = tmp_path / "x"
        assert main(["export", "--out", str(out), "--input", str(src)]) == 0
        path = os.path.join(only_run_dir(out, "export"), "motion.csv")
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["frame"] + [f"d{j}" for j in range(6)]
        assert len(table) == 8
        got = np.array([[float(x) for x in row[1:]] for row in table[1:]])
        np.testing.assert_array_equal(got, frames)

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["export", "--out", str(tmp_path / "o"),
                     "--input", str(tmp_path / "nope.mseq")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("F", 2.7), ("F", "2"), ("fps", "25"), ("fps", True), ("version", 1.0),
        ("version", True), ("version", 2.0)])
    def test_header_field_of_another_kind_exits_2(self, tmp_path, capsys, field,
                                                  value):
        header = {"version": 2, "F": 2, "D": 3, "fps": 25.0, "repr": "euler",
                  "label": None, field: value}
        src = tmp_path / "motion.mseq"
        src.write_bytes(sealed(json.dumps(header).encode() + b"\n" + bytes(2 * 3 * 8)))
        assert main(["export", "--out", str(tmp_path / "o"), "--input", str(src)]) == 2
        assert f"header {field}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_header_integer_past_the_digit_limit_exits_2(self, tmp_path):
        # json.loads raises a plain ValueError for it, not a JSONDecodeError
        header = json.dumps({"version": 2, "F": 0, "D": 3, "fps": 25.0,
                             "repr": "euler", "label": None})
        src = tmp_path / "motion.mseq"
        src.write_bytes(sealed(header.replace('"F": 0', f'"F": {LONG_INT}').encode()
                               + b"\n" + bytes(3 * 8)))
        assert main(["export", "--out", str(tmp_path / "o"), "--input", str(src)]) == 2
        assert not (tmp_path / "o").exists()


# a JSON line nested deeper than the parser's recursion limit
DEEP_NESTING = b"[" * 100_000


def _nested_mseq(tmp_path, dataset, checkpoint):
    bad = tmp_path / "motion.mseq"
    bad.write_bytes(sealed(DEEP_NESTING + b"\n" + bytes(2 * 3 * 8)))
    return ["export", "--input", str(bad)]


def _nested_checkpoint(tmp_path, dataset, checkpoint):
    blob = open(checkpoint, "rb").read()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(sealed(DEEP_NESTING + blob[blob.index(b"\n"):-4]))
    return ["sample", "--checkpoint", str(bad), "--data", dataset, *WINDOW_ARGS]


def _nested_dataset_manifest(tmp_path, dataset, checkpoint):
    bad = tmp_path / "manifest.json"
    bad.write_bytes(DEEP_NESTING + b"\n")
    return ["train", "--data", str(bad), "--iterations", "1", *TRAIN_ARGS]


def _nested_samples_manifest(tmp_path, dataset, checkpoint):
    gt = np.random.default_rng(9).normal(size=(5, 6))
    build_sample_run(tmp_path / "s", [[gt, gt + 1.0]], [gt])
    (tmp_path / "s" / "samples_manifest.json").write_bytes(DEEP_NESTING + b"\n")
    return ["eval", "--samples", str(tmp_path / "s")]


@pytest.mark.parametrize("damage, kind, code", [
    (_nested_mseq, "motion file header", 2),
    (_nested_checkpoint, "checkpoint manifest", 1),
    (_nested_dataset_manifest, "dataset manifest", 2),
    (_nested_samples_manifest, "samples manifest", 2),
], ids=["export-mseq", "sample-checkpoint", "train-dataset", "eval-samples"])
def test_json_nested_past_the_parser_limit_exits_cleanly(tmp_path, dataset, checkpoint,
                                                         capsys, damage, kind, code):
    # json.loads raises RecursionError for it, which is no ValueError
    argv = damage(tmp_path, dataset, checkpoint)
    assert main(argv + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and kind in err and "nests deeper" in err
    assert not (tmp_path / "o").exists()


class TestSmokeBudget:
    @pytest.mark.parametrize("variant", ["series", "parallel"])
    def test_200_iteration_smoke_run(self, tmp_path, dataset, variant):
        out = tmp_path / variant
        start = time.monotonic()
        assert main(["train", "--out", str(out), "--data", dataset,
                     "--iterations", "200", "--seed", "0",
                     "--variant", variant, *WINDOW_ARGS,
                     "--model-dim", "32", "--n-heads", "2", "--k-steps", "10",
                     "--batch-size", "16", "--lr", "1e-3",
                     "--checkpoint-every", "100"]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        run = only_run_dir(out, "train")
        assert md.load_checkpoint(
            os.path.join(run, "checkpoint.ckpt")).iteration == 200
