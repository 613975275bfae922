"""Typed JSON fields: a value of another JSON kind in any field of a
checkpoint manifest, an .mseq header or a samples manifest ends the
command that reads it with exit 0, 1 or 2, never a traceback, and a
failed command leaves no run directory behind."""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TOY, edit_header
from motion_diffusion.cli import main

WINDOW = ["--t-obs", str(TOY["t_obs"]), "--l-pred", str(TOY["l_pred"]),
          "--stride", "6"]

# field paths per file; an int is a list index
FIELDS = {
    "checkpoint": [("version",), ("iteration",),
                   ("rng_state",), ("rng_state", "state", "state"),
                   *[("denoiser_config", k) for k in (
                       "variant", "model_dim", "n_heads", "t_obs", "l_pred", "dim",
                       "k_steps")],
                   *[("schedule", k) for k in ("k_steps", "beta_min", "beta_max")]],
    "mseq": [("version",), ("F",), ("D",), ("fps",), ("repr",), ("label",)],
    "samples": [(k,) for k in ("mode", "n", "seed", "fps", "representation",
                               "l_pred", "dim", "tasks")]
               + [("tasks", 0, k) for k in ("index", "dir", "gt", "files")]
               + [("tasks", 0, "files", 0)],
}
TARGETS = [(kind, path) for kind, paths in FIELDS.items() for path in paths]
# "float" is the field's own value as a float where that is an int
KINDS = ["true", "float", "string", "null", "-1", "10**400"]


def other_kind(old, kind):
    if kind == "float":
        return float(old) if type(old) is int else 0.5
    return {"true": True, "string": "x", "null": None, "-1": -1,
            "10**400": 10 ** 400}[kind]


def replace_field(obj, path, kind):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = other_kind(obj[path[-1]], kind)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A dataset, a TOY-shape checkpoint and a sample run, each written once."""
    os.environ.pop("MD_SEED", None)
    base = str(tmp_path_factory.mktemp("typed"))

    def run(command, *args):
        out = os.path.join(base, command)
        assert main([command, "--out", out, *args]) == 0
        (run_dir,) = os.listdir(out)
        return os.path.join(out, run_dir)

    synth = run("synth", "--n-joints", str(TOY["dim"] // 3), "--n-sequences", "2",
                "--frames", "20")
    data = os.path.join(synth, "manifest.json")
    train = run("train", "--data", data, "--iterations", "1", *WINDOW,
                "--model-dim", str(TOY["model_dim"]), "--n-heads", str(TOY["n_heads"]),
                "--k-steps", str(TOY["k_steps"]), "--batch-size", "2")
    checkpoint = os.path.join(train, "checkpoint.ckpt")
    samples = run("sample", "--checkpoint", checkpoint, "--data", data, *WINDOW,
                  "--n", "2", "--limit", "1")
    return {"data": data, "checkpoint": checkpoint, "samples": samples,
            "mseq": os.path.join(synth, "seq_000.mseq")}


def run_with_replaced_field(files, scratch, target, path, kind):
    out = os.path.join(scratch, "out")
    if target == "checkpoint":
        bad = shutil.copy(files["checkpoint"], scratch)
        edit_header(bad, lambda head: replace_field(head, path, kind))
        argv = ["sample", "--checkpoint", bad, "--data", files["data"], *WINDOW,
                "--n", "2", "--limit", "1"]
    elif target == "mseq":
        bad = shutil.copy(files["mseq"], scratch)
        edit_header(bad, lambda head: replace_field(head, path, kind))
        argv = ["export", "--input", bad]
    else:
        bad = shutil.copytree(files["samples"], os.path.join(scratch, "samples"))
        manifest = os.path.join(bad, "samples_manifest.json")
        with open(manifest) as fh:
            obj = json.load(fh)
        replace_field(obj, path, kind)
        with open(manifest, "w") as fh:
            json.dump(obj, fh)
        argv = ["eval", "--samples", bad]
    code = main(argv + ["--out", out])
    assert code in (0, 1, 2)
    if code:
        assert not os.path.exists(out)
    return code


@given(target=st.sampled_from(TARGETS), kind=st.sampled_from(KINDS))
@example(target=("checkpoint", ("denoiser_config", "model_dim")), kind="float")
@example(target=("checkpoint", ("schedule", "k_steps")), kind="10**400")
@settings(max_examples=100, deadline=None)
def test_field_of_another_kind_never_raises(files, target, kind):
    with tempfile.TemporaryDirectory() as scratch:
        run_with_replaced_field(files, scratch, *target, kind)

