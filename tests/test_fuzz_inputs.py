"""Byte damage to any file the command line reads, and an extreme value of any
numeric `train` flag, end in exit code 0, 1 or 2.

One TOY synth → train → sample run is built per module.  Each example
damages a copy of one of its files (1 to 4 flipped bytes, or a
truncation) and runs the command that reads it in-process: no exception
may escape `cli.main`, and an exit of 2, a rejected input, must leave no
run directory.  A damaged `.mseq` or checkpoint must fail its CRC32
trailer, so those two targets never exit 0; a sweep flips bit 0 of every
byte of a `.mseq` and of a checkpoint's header line and expects each load
to fail.  Whole-value swaps of typed fields are covered in
test_typed_fields.py; this covers damage below the JSON value level.
A `train` run with an extreme flag value that exits 0 or 1 must leave a
checkpoint that loads.
"""

import contextlib
import glob
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motion_diffusion.cli import main
from motion_diffusion.errors import IntegrityError, ParseError
from motion_diffusion.motion_data import load_motion_file
from motion_diffusion.training import load_checkpoint

WINDOW_ARGS = ["--t-obs", "4", "--l-pred", "5", "--stride", "6"]
TRAIN_ARGS = WINDOW_ARGS + ["--model-dim", "16", "--n-heads", "2", "--k-steps", "3",
                            "--batch-size", "4", "--lr", "1e-3"]


def _only(pattern):
    (path,) = glob.glob(pattern)
    return path


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The run's folder, and per target the file to damage and the argv that
    reads a damaged copy of it."""
    base = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(base / "synth"), "--n-joints", "2",
                 "--n-sequences", "3", "--frames", "30", "--seed", "3"]) == 0
    data = _only(str(base / "synth" / "synth-*" / "manifest.json"))
    assert main(["train", "--out", str(base / "train"), "--data", data,
                 "--iterations", "2", "--seed", "4", *TRAIN_ARGS]) == 0
    ckpt = _only(str(base / "train" / "train-*" / "checkpoint.ckpt"))
    sample = ["--data", data, *WINDOW_ARGS, "--limit", "1", "--n", "2"]
    assert main(["sample", "--out", str(base / "sample"), "--checkpoint", ckpt,
                 *sample]) == 0
    samples = _only(str(base / "sample" / "sample-*"))
    return base, {
        "mseq-export": (os.path.join(samples, "task_000", "sample_001.mseq"),
                        lambda path: ["export", "--input", path]),
        "checkpoint-sample": (ckpt, lambda path: ["sample", "--checkpoint", path,
                                                  *sample]),
        "dataset-manifest-train": (data, lambda path: [
            "train", "--data", path, "--iterations", "1", *TRAIN_ARGS]),
        "samples-manifest-eval": (os.path.join(samples, "samples_manifest.json"),
                                  lambda path: ["eval", "--samples", path]),
    }


def _damage(blob: bytes, data) -> bytes:
    """`blob` truncated, or with 1 to 4 distinct bytes flipped by a nonzero mask:
    never `blob` itself."""
    position = st.integers(0, len(blob) - 1)
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(position, label="length")]
    out = bytearray(blob)
    flips = st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=4,
                     unique_by=lambda flip: flip[0])
    for i, mask in data.draw(flips, label="flips"):
        out[i] ^= mask
    return bytes(out)


# the exit codes a damaged copy may end in: the two sealed containers must fail
EXITS = {"mseq-export": (1, 2), "checkpoint-sample": (1, 2),
         "dataset-manifest-train": (0, 1, 2), "samples-manifest-eval": (0, 1, 2)}


@pytest.mark.parametrize("target", sorted(EXITS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_byte_damage_never_escapes_main(run, target, data):
    base, targets = run
    original, argv = targets[target]
    work = tempfile.mkdtemp(dir=base)
    try:
        # the manifests name files beside them: damage a copy of the whole folder
        shutil.copytree(os.path.dirname(original), os.path.join(work, "in"))
        damaged = os.path.join(work, "in", os.path.basename(original))
        with open(original, "rb") as fh:
            blob = fh.read()
        with open(damaged, "wb") as fh:
            fh.write(_damage(blob, data))
        out = os.path.join(work, "out")
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(argv(damaged) + ["--out", out])
        err = stderr.getvalue()
        assert code in EXITS[target], err
        if code:
            assert err.startswith("error:"), err
        if code == 2:
            assert not os.path.exists(out), err
    finally:
        shutil.rmtree(work)


def _flip_each_byte(tmp_path, original, positions, load, error):
    """Load a copy of `original` with bit 0 of each byte in `positions`
    flipped, one at a time; every load must raise `error`."""
    with open(original, "rb") as fh:
        blob = fh.read()
    damaged = tmp_path / os.path.basename(original)
    for i in positions:
        out = bytearray(blob)
        out[i] ^= 1
        damaged.write_bytes(bytes(out))
        with pytest.raises(error):
            load(damaged)


def test_every_flipped_mseq_bit_is_caught(run, tmp_path):
    original = run[1]["mseq-export"][0]
    _flip_each_byte(tmp_path, original, range(os.path.getsize(original)),
                    load_motion_file, ParseError)


def test_every_flipped_checkpoint_header_bit_is_caught(run, tmp_path):
    original = run[1]["checkpoint-sample"][0]
    with open(original, "rb") as fh:
        header_line = fh.read().index(b"\n") + 1
    _flip_each_byte(tmp_path, original, range(header_line), load_checkpoint,
                    IntegrityError)


def test_another_schedule_in_the_header_exits_1(run, tmp_path):
    # one changed digit once sampled with the other schedule and exited 0
    original, argv = run[1]["checkpoint-sample"]
    with open(original, "rb") as fh:
        blob = fh.read()
    assert blob.count(b'"beta_max": 0.333') == 1
    damaged = tmp_path / "other_beta.ckpt"
    damaged.write_bytes(blob.replace(b'"beta_max": 0.333', b'"beta_max": 0.393'))
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(argv(str(damaged)) + ["--out", str(tmp_path / "out")])
    assert code == 1, stderr.getvalue()
    assert "checksum" in stderr.getvalue()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e308", "0", "-0.0"])
@pytest.mark.parametrize("flag", ["--lr", "--grad-clip", "--beta-min", "--beta-max",
                                  "--train-fraction"])
def test_extreme_train_flag_never_escapes_main(run, tmp_path, flag, value):
    # a snapshot every iteration, so a diverged run saves what the update
    # before it made; `flag=value` keeps argparse from reading -inf as a flag
    data, _ = run[1]["dataset-manifest-train"]
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(["train", "--out", str(out), "--data", data, "--iterations", "2",
                     "--seed", "4", *TRAIN_ARGS, "--checkpoint-every", "1",
                     f"{flag}={value}"])
    err = stderr.getvalue()
    assert code in (0, 1, 2), err
    if code == 2:
        assert not out.exists(), err
    else:
        load_checkpoint(_only(str(out / "train-*" / "checkpoint.ckpt")))
