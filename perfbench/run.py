"""Benchmark entry point.

    python3 perfbench/run.py --workload train|sample|pipeline --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--record FILE]

One workload runs in one process with BLAS pinned to one thread.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics plus the tracing overhead.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it, starting with "detail ", records the run
environment, the named metrics with their sample counts and any problem the
correctness gate found.  `--workload all` runs every workload untraced and
traced, each in a fresh process, and prints them together with the rows of
the ROADMAP baseline table.

Run from the repository root; the package is imported from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("train", "sample", "pipeline")

BLAS_THREADS = 1
NUMPY_HUGEPAGES = 0
DEFAULT_SEED = 0
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 180

clock = time.perf_counter


def pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the machine's memory fragmentation, which
    # made peak RSS and step times differ between otherwise equal runs.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = str(NUMPY_HUGEPAGES)
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)


def blas_threads_in_use() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a library that exports it."""
    import ctypes
    import glob

    import numpy as np

    base = os.path.dirname(np.__file__)
    for lib in glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*")) + \
            glob.glob(os.path.join(base, ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(),
        "numpy_madvise_hugepage": NUMPY_HUGEPAGES,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload, seed, workdir, ref, record):
    """Median fresh-interpreter import time plus median in-process set-up time."""
    from stats import median

    imports = []
    for _ in range(SETUP_REPEATS):
        # No timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, and the measured time would round up to those steps.
        start = clock()
        subprocess.run([sys.executable, "-c", "import motion_diffusion"], check=True, cwd=ROOT)
        imports.append(clock() - start)
    builds = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        state = workload.setup(seed, workdir, ref, record)
        builds.append(clock() - start)
    return state, {"import_s": median(imports), "build_s": median(builds)}


def trace_run(workload, state, seconds, gate):
    """Pairs of one untraced and one traced unit until the time is up; at least one pair.

    The pairs alternate which unit runs first.
    """
    from stats import median
    from tracer import LAYER_METRICS, PER_FORWARD, NullTracer, Tracer, layer_metrics

    tracer, plain, traced, per_unit, kept, walls = Tracer(), [], [], [], [], []
    deadline = clock() + seconds
    while not traced or clock() + median(walls) <= deadline:
        start = clock()
        for traced_turn in (False, True) if len(walls) % 2 == 0 else (True, False):
            if not traced_turn:
                plain.append(workload.unit(state, gate, NullTracer()))
                continue
            tracer.install()
            try:
                traced.append(workload.unit(state, gate, tracer))
            finally:
                tracer.uninstall()
        spans = tracer.take()
        kept.append(spans)
        per_unit.append(layer_metrics(spans))
        walls.append(clock() - start)
    scale = workload.unit_scale
    values = {k: median([u[k] for u in per_unit]) / (1 if k in PER_FORWARD else scale)
              for k in LAYER_METRICS}
    extra = median(traced) - median(plain)
    values["trace.overhead_s"] = extra / scale
    values["trace.overhead_pct"] = 100.0 * extra / median(plain)
    info = {"units": len(traced), "unit_scale": scale,
            "untraced_unit_s": plain, "traced_unit_s": traced}
    return values, kept, info


def run_one(args) -> int:
    try:
        import motion_diffusion  # noqa: F401
        from gate import Gate, negative_control
        from workloads import WORKLOADS
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (ImportError, OSError) as exc:
        print(f"error: cannot start the benchmark: {exc}", file=sys.stderr)
        return 2
    ref = record = None
    if args.write_reference:
        record = {}
    elif args.seed == DEFAULT_SEED:
        with open(REFERENCE) as fh:
            ref = json.load(fh)[args.workload]

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        state, setup = measure_setup(workload, args.seed, workdir, ref, record)
        gate = Gate()
        if args.trace:
            values, spans, trace_info = trace_run(workload, state, args.seconds, gate)
            named = []
            with open(os.path.join(OUT_DIR, f"trace-{args.workload}.json"), "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "span_fields": ["name", "start", "end", "parent", "size"],
                           "units": spans}, fh)
        else:
            values, named = workload.run(state, args.seconds, gate)
            trace_info = None
            values["setup_s"] = setup["import_s"] + setup["build_s"]
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            named = [{"name": "setup_s", "value": values["setup_s"], "unit": "s",
                      "samples": SETUP_REPEATS}, *named,
                     {"name": "peak_rss_mb", "value": values["peak_rss_mb"], "unit": "MB",
                      "samples": 1}]
        control = state.output is not None and negative_control(state.output)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if record is not None:
        write_reference(args.workload, record)

    entries = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in entries}
    detail = {"env": environment(args), "setup": setup, "named": named,
              "fail_rate": gate.fail_rate, "negative_control_detected": control,
              "problems": gate.problems[:20], "trace": trace_info}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for row in named:
        print(f"  {row['name']:<24} {row['value']:>14.6g} {row['unit']:<5} (n={row['samples']})")
    print(f"  {'fail_rate':<24} {gate.fail_rate:>14.6g}       "
          f"({gate.failed} of {gate.attempted} operations)")
    if args.trace:
        for m in entries:
            print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    for problem in gate.problems[:20]:
        print(f"  problem: {problem}")
    if not control:
        print("  problem: the negative control was not detected")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": gate.failed == 0 and control, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def write_reference(workload: str, record: dict) -> None:
    from gate import REF_ATOL, REF_RTOL

    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data["seed"] = DEFAULT_SEED
    data["tolerance"] = {"rtol": REF_RTOL, "atol": REF_ATOL}
    data[workload] = record
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# every workload, each in a fresh process
# ---------------------------------------------------------------------------

# ROADMAP baseline table: (row, value at the ROADMAP review, how this benchmark gets it)
BASELINE_ROWS = [
    ("train step, forward only (s)", 1.07,
     lambda r: r["train"]["trace"]["diffusion.loss_s"]),
    ("train step, forward + backward (s)", 2.9,
     lambda r: r["train"]["trace"]["diffusion.loss_s"] + r["train"]["trace"]["numerics.backward_s"]),
    ("sample_stochastic, N=50, one task (s)", 14.6,
     lambda r: 50.0 / r["sample"]["e2e"]["throughput_per_s"]),
    ("sample_deterministic, one task (s)", 0.18,
     lambda r: r["sample"]["e2e"]["latency_s_p50"]),
    ("tape records per step", 80,
     lambda r: r["train"]["trace"]["numerics.tape_records"]),
]
AGREE_WITHIN = 0.2


def run_child(name, trace, args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} (trace {trace}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    for line in lines[:-1]:
        if not line.startswith("detail "):
            print(line)
    result = json.loads(lines[-1])
    result["detail"] = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
    return result


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        e2e, traced = run_child(name, 0, args), run_child(name, 1, args)
        results[name] = {
            "correct": e2e["correct"] and traced["correct"],
            "e2e": {k: v["value"] for k, v in e2e["metrics"].items()},
            "named": e2e["detail"]["named"],
            "fail_rate": e2e["detail"]["fail_rate"],
            "trace": {k: v["value"] for k, v in traced["metrics"].items()},
            "env": e2e["detail"]["env"],
        }
    baseline = []
    print("ROADMAP baseline table")
    for row, roadmap, get in BASELINE_ROWS:
        measured = get(results)
        agrees = abs(measured / roadmap - 1.0) <= AGREE_WITHIN
        baseline.append({"row": row, "roadmap": roadmap, "measured": measured,
                         "agrees_within_20pct": agrees})
        print(f"  {row:<40} roadmap {roadmap:>8.4g}  measured {measured:>10.4g}"
              f"  {'agrees' if agrees else 'DISAGREES'}")
    correct = all(r["correct"] for r in results.values())
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"baseline": baseline, "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "workloads": {k: v["e2e"] for k, v in results.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs as the reference (default seed only)")
    parser.add_argument("--record", help="with --workload all: write every result to this file")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error("--write-reference needs the default seed")
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
