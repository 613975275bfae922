"""The package names the benchmark in perfbench/ looks up still exist.

perfbench/ is outside the default test paths, so a rename that breaks the
benchmark's tracer or workloads would otherwise pass here unnoticed.  The
perfbench files are only read: tracer.py is imported from its path and
workloads.py is scanned as text.  The attributes the workloads read from
returned objects are checked on objects built at the TOY shape.
"""

import importlib
import importlib.util
import inspect
import os
import re

import pytest

import motion_diffusion as md
from motion_diffusion import cli
from motion_diffusion.gradcheck import TOY_CONFIG

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


def _package_module(name):
    return importlib.import_module(f"{TRACER.PACKAGE}.{name}")


@pytest.mark.parametrize("entry", TRACER.FUNCTIONS, ids=lambda e: f"{e[0]}.{e[1]}")
def test_traced_function_resolves(entry):
    module, attr = entry[:2]
    assert callable(getattr(_package_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("entry", TRACER.METHODS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_traced_method_resolves(entry):
    module, cls_name, attr = entry[:3]
    cls = getattr(_package_module(module), cls_name)
    # Tracer.install reads the method from the class's own namespace
    assert attr in cls.__dict__, f"{cls_name}.{attr}"


def test_eval_batch_reads_x_k_third():
    # the tracer counts denoiser.items as len(args[2]) of an eval_batch call
    assert list(inspect.signature(md.DenoiserModel.eval_batch).parameters)[2] == "x_k"


def test_cli_names_the_pipeline_workload_uses():
    assert callable(cli.main)
    assert callable(cli.sample_deterministic)


def test_every_md_name_in_the_workloads_exists():
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        names = set(re.findall(r"\bmd\.([A-Za-z_]\w*)", fh.read()))
    assert names, "workloads.py no longer calls the package as md"
    assert sorted(n for n in names if not hasattr(md, n)) == []


# (type name, attribute) pairs read by perfbench/workloads.py
RETURNED_ATTRIBUTES = [
    ("PredictionTask", "dim"), ("PredictionTask", "p_obs"),
    ("Normalizer", "apply_task"),
    ("TrainResult", "losses"), ("TrainResult", "model"), ("TrainResult", "checkpoint"),
    ("DenoiserModel", "params"), ("DenoiserModel", "pred_shape"),
    ("Checkpoint", "params"), ("Checkpoint", "adam_m"), ("Checkpoint", "adam_v"),
    ("Checkpoint", "normalizer"), ("Checkpoint", "iteration"),
    ("Checkpoint", "rng_state"), ("Checkpoint", "denoiser_config"),
    ("SampleSet", "samples"),
    ("MotionSequence", "frames"),
]


@pytest.fixture(scope="module")
def toy_objects():
    span = TOY_CONFIG["t_obs"] + TOY_CONFIG["l_pred"]
    seq = md.synth_dataset(n_joints=TOY_CONFIG["dim"] // 3, n_sequences=1,
                           frames_per_sequence=span + 1, fps=25.0,
                           action_mix={"walk": 1.0}, seed=0)[0]
    tasks = md.window_split(seq, TOY_CONFIG["t_obs"], TOY_CONFIG["l_pred"], 1)
    norm = md.fit_normalizer(tasks)
    cfg = md.DenoiserConfig(variant="parallel", **TOY_CONFIG)
    sched = md.build_schedule(TOY_CONFIG["k_steps"], 0.001, 0.333)
    result = md.train([norm.apply_task(t) for t in tasks], cfg,
                      md.TrainConfig(batch_size=2, iterations=1), sched, normalizer=norm)
    objects = [seq, tasks[0], norm, result, result.model, result.checkpoint,
               md.sample_stochastic(result.model, tasks[0].p_obs, 2, 0, sched)]
    return {type(obj).__name__: obj for obj in objects}


@pytest.mark.parametrize("kind, attr", RETURNED_ATTRIBUTES,
                         ids=[f"{k}.{a}" for k, a in RETURNED_ATTRIBUTES])
def test_returned_object_has_the_attribute(toy_objects, kind, attr):
    assert hasattr(toy_objects[kind], attr), f"{kind}.{attr}"
