"""Golden SHA-256 digests of every file a TOY command-line pipeline writes.

`cli.main` runs synth → export → train → train --resume → sample
(stochastic) → sample (deterministic) → eval in-process at gradcheck's
TOY shape, for both denoiser variants, twice: once with
`denoiser.GROUP_BYTES` cut so that a training batch and an N-sample batch
each span 2 groups, and once as shipped.  Every file except run_manifest.json (it records paths) must
hash to its digest in golden_digests.json.

Digests hold for one numpy, BLAS and machine architecture, recorded beside
them; on any other the test fails and names the difference.

Re-recording: a change that alters output bits on purpose re-records the
digests with `PYTHONPATH=src python tests/test_golden_bytes.py --record`,
states the reason in CHANGES.md as a test-data change, and
perfbench/reference.json must still pass unchanged.
"""

import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

import motion_diffusion.denoiser as dn
from motion_diffusion.cli import main
from motion_diffusion.gradcheck import TOY_CONFIG

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
VARIANTS = ("series", "parallel")
BATCH, N_SAMPLES = 4, 3
# two chains' (L * D, model_dim) float64 activation: groups of 2 chains
CHAIN_BYTES = TOY_CONFIG["l_pred"] * TOY_CONFIG["dim"] * TOY_CONFIG["model_dim"] * 8
BUDGETS = {"two-chain-groups": 2 * CHAIN_BYTES, "shipped": dn.GROUP_BYTES}

WINDOW = ["--t-obs", str(TOY_CONFIG["t_obs"]), "--l-pred", str(TOY_CONFIG["l_pred"]),
          "--stride", "6"]
MODEL = ["--model-dim", str(TOY_CONFIG["model_dim"]), "--n-heads",
         str(TOY_CONFIG["n_heads"]), "--k-steps", str(TOY_CONFIG["k_steps"])]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def _run(base, step: str, argv: list[str]) -> str:
    out = os.path.join(base, step)
    assert main(argv + ["--out", out]) == 0, step
    (run_dir,) = glob.glob(os.path.join(out, "*"))
    return run_dir


def pipeline_digests(base, variant: str) -> dict[str, str]:
    """SHA-256 of each file the pipeline writes, keyed `step/path in its run`."""
    runs = {"synth": _run(base, "synth", [
        "synth", "--n-joints", str(TOY_CONFIG["dim"] // 3), "--n-sequences", "3",
        "--frames", "30", "--seed", "3"])}
    runs["export"] = _run(base, "export", [
        "export", "--input", os.path.join(runs["synth"], "seq_000.mseq")])
    data = os.path.join(runs["synth"], "manifest.json")
    train = ["train", "--data", data, "--variant", variant, *WINDOW, *MODEL,
             "--batch-size", str(BATCH), "--lr", "1e-3", "--checkpoint-every", "1"]
    runs["train"] = _run(base, "train", train + ["--iterations", "2", "--seed", "4"])
    runs["resume"] = _run(base, "resume", train + [
        "--iterations", "4", "--resume", os.path.join(runs["train"], "checkpoint.ckpt")])
    sample = ["sample", "--checkpoint", os.path.join(runs["resume"], "checkpoint.ckpt"),
              "--data", data, *WINDOW, "--limit", "2"]
    runs["stochastic"] = _run(base, "stochastic",
                              sample + ["--n", str(N_SAMPLES), "--seed", "5"])
    runs["deterministic"] = _run(base, "deterministic",
                                 sample + ["--mode", "deterministic"])
    runs["eval"] = _run(base, "eval", ["eval", "--samples", runs["stochastic"],
                                       "--det", runs["deterministic"],
                                       "--horizons", "80,160"])
    digests = {}
    for step, run_dir in runs.items():
        for root, _, files in os.walk(run_dir):
            for name in files:
                if name == "run_manifest.json":
                    continue
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                digests[f"{step}/{os.path.relpath(path, run_dir)}"] = digest
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_bytes_match_the_golden_digests(tmp_path, monkeypatch, variant,
                                                 budget):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    here = environment()
    differ = {k: (golden["environment"].get(k), v) for k, v in here.items()
              if golden["environment"].get(k) != v}
    assert not differ, f"digests were recorded elsewhere; (recorded, here): {differ}"
    monkeypatch.setattr(dn, "GROUP_BYTES", BUDGETS[budget])
    if budget == "two-chain-groups":
        cfg = dn.DenoiserConfig(variant=variant, **TOY_CONFIG)
        assert len(dn._eval_groups(cfg, BATCH, BATCH)) == 2  # a training batch
        assert len(dn._eval_groups(cfg, 1, N_SAMPLES)) == 2  # one task's samples
    got = pipeline_digests(tmp_path, variant)
    want = golden["digests"][f"{variant}/{budget}"]
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"files whose bytes changed: {changed}"


def record(scratch: str) -> None:
    digests = {}
    for variant in VARIANTS:
        for budget, group_bytes in sorted(BUDGETS.items()):
            dn.GROUP_BYTES = group_bytes
            digests[f"{variant}/{budget}"] = pipeline_digests(
                os.path.join(scratch, variant, budget), variant)
    with open(GOLDEN, "w") as fh:
        json.dump({"environment": environment(), "digests": digests}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_bytes.py --record")
    with tempfile.TemporaryDirectory() as scratch:
        record(scratch)
