"""The package names the benchmark in perfbench/ looks up still exist.

perfbench/ is outside the default test paths, so a rename that breaks the
benchmark's tracer or workloads would otherwise pass here unnoticed.  The
perfbench files are only read: tracer.py is imported from its path and
workloads.py is scanned as text.
"""

import importlib
import importlib.util
import os
import re

import pytest

import motion_diffusion as md
from motion_diffusion import cli

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


def test_cli_names_the_pipeline_workload_uses():
    assert callable(cli.main)
    assert callable(cli.sample_deterministic)


def test_every_md_name_in_the_workloads_exists():
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        names = set(re.findall(r"\bmd\.([A-Za-z_]\w*)", fh.read()))
    assert names, "workloads.py no longer calls the package as md"
    assert sorted(n for n in names if not hasattr(md, n)) == []
