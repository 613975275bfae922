"""The three workloads, driven through the package's public API.

Every workload has
  - `setup(seed, workdir, ref, record)`: build the inputs (timed several times),
  - `run(state, seconds, gate)`: the closed-loop, untraced measurement,
  - `unit(state, gate, tracer)`: one fixed piece of work, run traced and
    untraced to get per-layer numbers and the tracing overhead.

Operation functions time only the call into the package; their checks run
outside the timed region and, in traced units, with tracing paused.
Inputs derive from the seed alone.  `ref` holds the reference outputs of
the default seed (None for other seeds); a dict named `record` collects
them instead when the reference is being written.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from types import SimpleNamespace as State

import numpy as np

import motion_diffusion as md
from motion_diffusion import cli

from gate import close, equal, finite, has_shape, same_bytes
from stats import median, percentile, tail_percentile
from tracer import NullTracer

NULL = NullTracer()

clock = time.perf_counter

# CLI defaults for data and model (the `series` variant): 5 joints, D = 15.
SYNTH = dict(n_joints=5, n_sequences=8, frames_per_sequence=60, fps=25.0,
             action_mix={"walk": 1.0})
SHAPE = dict(variant="series", model_dim=64, n_heads=4, t_obs=16, l_pred=20,
             k_steps=20)
SCHEDULE = (20, 0.001, 0.333)
STRIDE = 4

TRAIN_BATCH = 64
TRAIN_STEPS = 2          # optimizer steps per `train` call
TRAIN_MIN_CALLS = 3

N_SAMPLES = 50
STOCHASTIC_SHARE = 0.45  # of the run; at least one stochastic task
DET_MIN = 100            # deterministic predictions per run, enough for p90
DET_PER_UNIT = 10

# The conftest TOY shape, `parallel` variant, through the CLI.  Synth at its
# CLI defaults (8 sequences of 60 frames) windows into 104 tasks.
TOY_JOINTS = 2
TOY_FLAGS = ["--t-obs", "4", "--l-pred", "5"]
TOY_MODEL = ["--variant", "parallel", "--model-dim", "32", "--n-heads", "2",
             "--k-steps", "5"]
PIPELINE_BATCH = 32
PIPELINE_ITERATIONS = 100
PIPELINE_MIN = 2


def repeat(op, deadline: float, minimum: int) -> list:
    """Call `op` until another call would likely end past `deadline`; at least `minimum` times."""
    results, walls = [], []
    while len(results) < minimum or clock() + median(walls) <= deadline:
        start = clock()
        results.append(op())
        walls.append(clock() - start)
    return results


def _named(name, value, unit, samples):
    return {"name": name, "value": value, "unit": unit, "samples": samples}


def _latency_report(prefix: str, times: list[float]) -> list[dict]:
    rows = [_named(f"{prefix}_p50", median(times), "s", len(times))]
    p = tail_percentile(len(times))
    if p is not None and p >= 90:
        rows.append(_named(f"{prefix}_p90", percentile(times, 90), "s", len(times)))
    return rows


def _tasks(seed: int):
    """Normalized windows of the CLI-default synthetic dataset (56 tasks)."""
    seqs = md.synth_dataset(seed=seed, **SYNTH)
    tasks = [t for s in seqs
             for t in md.window_split(s, SHAPE["t_obs"], SHAPE["l_pred"], STRIDE)]
    norm = md.fit_normalizer(tasks)
    return [norm.apply_task(t) for t in tasks], norm


def _check_reference(ref, record, key, value, what) -> list[str]:
    if record is not None:
        record[key] = np.asarray(value, dtype=np.float64).tolist()
    if ref is None:
        return []
    return close(what, value, ref[key])


# ---------------------------------------------------------------------------
# train: training.train at the CLI-default shape
# ---------------------------------------------------------------------------


class Train:
    name = "train"
    unit_scale = TRAIN_STEPS  # per-layer numbers are per optimizer step

    @staticmethod
    def setup(seed, workdir, ref, record=None):
        tasks, norm = _tasks(seed)
        den_cfg = md.DenoiserConfig(dim=tasks[0].dim, **SHAPE)
        tr_cfg = md.TrainConfig(batch_size=TRAIN_BATCH, iterations=TRAIN_STEPS, seed=seed)
        return State(tasks=tasks, norm=norm, den_cfg=den_cfg, tr_cfg=tr_cfg,
                     sched=md.build_schedule(*SCHEDULE), workdir=workdir, ref=ref,
                     record=record, first=None, output=None)

    @staticmethod
    def call(st, gate, tracer) -> float:
        start = clock()
        result = md.train(st.tasks, st.den_cfg, st.tr_cfg, st.sched, normalizer=st.norm)
        seconds = clock() - start
        with tracer.paused():
            losses = np.array(result.losses)
            params = np.concatenate([a.ravel() for _, a in sorted(result.model.params.items())])
            problems = finite("losses", losses) + finite("parameters", params)
            problems += has_shape("losses", losses, (TRAIN_STEPS,))
            if st.first is None:
                st.first = (losses, params)
                st.output = losses
                problems += _checkpoint_round_trip(result.checkpoint, st.workdir)
                problems += _check_reference(st.ref, st.record, "losses", losses, "losses")
                problems += _check_reference(st.ref, st.record, "param_abs_sum",
                                             np.abs(params).sum(), "parameter checksum")
            else:
                problems += same_bytes("losses of a repeated train call", losses, st.first[0])
                problems += same_bytes("parameters of a repeated train call", params, st.first[1])
            gate.record("train", problems, count=TRAIN_STEPS)
        return seconds

    @classmethod
    def run(cls, st, seconds, gate):
        times = repeat(lambda: cls.call(st, gate, NULL), clock() + seconds, TRAIN_MIN_CALLS)
        items = TRAIN_STEPS * TRAIN_BATCH
        rate = items / median(times)
        e2e = {"throughput_per_s": rate, "latency_s_p50": median(times) / TRAIN_STEPS}
        named = [_named("train_items_per_s", rate, "1/s", len(times))]
        return e2e, named

    unit = call


def _checkpoint_round_trip(ckpt, workdir) -> list[str]:
    """Save, load and save again: the arrays and both files must match bitwise."""
    first = os.path.join(workdir, "round_trip_a.ckpt")
    second = os.path.join(workdir, "round_trip_b.ckpt")
    md.save_checkpoint(ckpt, first)
    back = md.load_checkpoint(first)
    problems = []
    for group in ("params", "adam_m", "adam_v"):
        a, b = getattr(ckpt, group), getattr(back, group)
        problems += equal(f"checkpoint {group} names", sorted(b), sorted(a))
        for key in sorted(set(a) & set(b)):
            problems += same_bytes(f"checkpoint {group}.{key}", b[key], a[key])
    if ckpt.normalizer is not None and back.normalizer is not None:
        problems += same_bytes("checkpoint normalizer mean", back.normalizer.mean, ckpt.normalizer.mean)
        problems += same_bytes("checkpoint normalizer std", back.normalizer.std, ckpt.normalizer.std)
    problems += equal("checkpoint iteration", back.iteration, ckpt.iteration)
    problems += equal("checkpoint rng state", back.rng_state, ckpt.rng_state)
    problems += equal("checkpoint config", back.denoiser_config, ckpt.denoiser_config)
    md.save_checkpoint(back, second)
    problems += _same_file(first, second, "re-saved checkpoint")
    os.remove(first)
    os.remove(second)
    return problems


def _same_file(path_a, path_b, what) -> list[str]:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return [] if fa.read() == fb.read() else [f"{what} differs bytewise"]


# ---------------------------------------------------------------------------
# sample: both samplers on one fixed-seed model at the CLI-default shape
# ---------------------------------------------------------------------------


def _task_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, index)).generate_state(1)[0])


class Sample:
    name = "sample"
    unit_scale = 1  # per-layer numbers are per (one N=50 task + DET_PER_UNIT predictions)

    @staticmethod
    def setup(seed, workdir, ref, record=None):
        tasks, _ = _tasks(seed)
        model = md.init_denoiser(md.DenoiserConfig(dim=tasks[0].dim, **SHAPE), seed)
        return State(tasks=tasks, model=model, sched=md.build_schedule(*SCHEDULE),
                     seed=seed, ref=ref, record=record, n_stochastic=0, n_det=0,
                     det_seen={}, output=None)

    @staticmethod
    def stochastic(st, gate, tracer) -> float:
        i = st.n_stochastic
        st.n_stochastic += 1
        task = st.tasks[i % len(st.tasks)]
        seed = _task_seed(st.seed, i)
        start = clock()
        sset = md.sample_stochastic(st.model, task.p_obs, N_SAMPLES, seed, st.sched)
        seconds = clock() - start
        with tracer.paused():
            x = sset.samples
            problems = finite("samples", x)
            problems += has_shape("samples", x, (N_SAMPLES,) + st.model.pred_shape)
            one = md.sample_stochastic(st.model, task.p_obs, 1, seed, st.sched).samples[0]
            problems += same_bytes("sample 0 of N=50 against the N=1 sample", x[0], one)
            if i == 0:
                problems += _check_reference(st.ref, st.record, "sample0", x[0], "sample 0")
                problems += _check_reference(st.ref, st.record, "sample_mean", x.mean(axis=0),
                                             "mean of the samples")
            gate.record("stochastic task", problems)
        return seconds

    @staticmethod
    def deterministic(st, gate, tracer) -> float:
        idx = st.n_det % len(st.tasks)
        st.n_det += 1
        start = clock()
        pred = md.sample_deterministic(st.model, st.tasks[idx].p_obs, st.sched)
        seconds = clock() - start
        with tracer.paused():
            problems = finite("prediction", pred) + has_shape("prediction", pred, st.model.pred_shape)
            if idx in st.det_seen:
                problems += same_bytes("repeated deterministic prediction", pred, st.det_seen[idx])
            else:
                st.det_seen[idx] = pred
                st.output = pred
                if idx == 0:
                    problems += _check_reference(st.ref, st.record, "det0", pred,
                                                 "deterministic prediction")
            gate.record("deterministic prediction", problems)
        return seconds

    @classmethod
    def run(cls, st, seconds, gate):
        start = clock()
        stoch = repeat(lambda: cls.stochastic(st, gate, NULL),
                       start + STOCHASTIC_SHARE * seconds, 1)
        det = repeat(lambda: cls.deterministic(st, gate, NULL), start + seconds, DET_MIN)
        rate = N_SAMPLES / median(stoch)
        e2e = {"throughput_per_s": rate, "latency_s_p50": median(det)}
        named = [_named("sample_futures_per_s", rate, "1/s", len(stoch)),
                 *_latency_report("det_predict_s", det)]
        return e2e, named

    @classmethod
    def unit(cls, st, gate, tracer) -> float:
        seconds = cls.stochastic(st, gate, tracer)
        for _ in range(DET_PER_UNIT):
            seconds += cls.deterministic(st, gate, tracer)
        return seconds


# ---------------------------------------------------------------------------
# pipeline: cli.main end to end at the TOY shape
# ---------------------------------------------------------------------------


def _only_run_dir(base: str) -> str | None:
    entries = os.listdir(base) if os.path.isdir(base) else []
    return os.path.join(base, entries[0]) if len(entries) == 1 else None


def _digest(run_dir: str) -> str:
    """Hash of a run directory's files, skipping run_manifest.json (it records paths)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(run_dir):
        dirs.sort()
        for name in sorted(files):
            if name == "run_manifest.json":
                continue
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, run_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _check_sample_run(run_dir: str, n_files: int) -> tuple[list[str], int]:
    """samples_manifest.json parses and every .mseq it lists loads back, finite.

    Returns the problems and the number of tasks.
    """
    with open(os.path.join(run_dir, "samples_manifest.json")) as fh:
        manifest = json.load(fh)
    problems = []
    loaded = 0
    for entry in manifest["tasks"]:
        names = list(entry["files"]) + ([entry["gt"]] if "gt" in entry else [])
        problems += equal(f"files of task {entry['index']}", len(entry["files"]), n_files)
        for name in names:
            frames = md.load_motion_file(os.path.join(run_dir, entry["dir"], name)).frames
            problems += finite(f"{entry['dir']}/{name}", frames)
            loaded += 1
    on_disk = sum(1 for _, _, files in os.walk(run_dir) for f in files if f.endswith(".mseq"))
    problems += equal(".mseq files loaded against written", loaded, on_disk)
    return problems, len(manifest["tasks"])


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_numeric_rows(what: str, rows: list[list[str]], skip: int) -> list[str]:
    try:
        values = np.array([[float(v) for v in row[skip:]] for row in rows])
    except ValueError as exc:
        return [f"{what} does not parse: {exc}"]
    return finite(what, values)


class Pipeline:
    name = "pipeline"
    unit_scale = 1  # per-layer numbers are per pipeline

    @staticmethod
    def setup(seed, workdir, ref, record=None):
        return State(seed=seed, workdir=workdir, ref=ref, record=record, first=None,
                     output=None, n_tasks=0)

    @staticmethod
    def call(st, gate, tracer) -> dict:
        """synth -> train -> sample (stochastic) -> sample (deterministic) -> eval.

        Each CLI command is one operation.  A command that fails ends the
        pipeline; `complete` says whether all five ran.
        """
        work = tempfile.mkdtemp(dir=st.workdir)
        first = st.first is None
        out = {"stages": {}, "det_times": [], "complete": False}
        digests: dict[str, str] = {}

        def stage(name, argv, checks):
            base = os.path.join(work, name)
            sink = io.StringIO()
            with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                start = clock()
                try:
                    code = cli.main(argv + ["--out", base])
                except Exception as exc:  # an uncaught error is a failed command
                    code = f"{type(exc).__name__}: {exc}"
                out["stages"][name] = clock() - start
            run_dir = _only_run_dir(base)
            if code != 0 or run_dir is None:
                gate.record(f"cli {name}", [f"exit {code!r}: {sink.getvalue()[-300:]}"])
                return None
            with tracer.paused():
                try:
                    problems = checks(run_dir)
                except (OSError, ValueError, KeyError, IndexError, md.ParseError,
                        md.ContractError) as exc:
                    problems = [f"output check raised {type(exc).__name__}: {exc}"]
                digests[name] = _digest(run_dir)
                if not first:
                    problems += equal(f"{name} outputs of a repeated pipeline (sha256)",
                                      digests[name], st.first[name])
            gate.record(f"cli {name}", problems)
            return run_dir

        def train_checks(run_dir):
            ckpt = os.path.join(run_dir, "checkpoint.ckpt")
            copy = os.path.join(run_dir, "reloaded.tmp")
            md.save_checkpoint(md.load_checkpoint(ckpt), copy)
            problems = _same_file(ckpt, copy, "checkpoint after load and save")
            os.remove(copy)
            _, rows = _read_csv(os.path.join(run_dir, "loss_log.csv"))
            problems += _check_numeric_rows("loss_log.csv", rows, 0)
            if first:
                problems += _check_reference(st.ref, st.record, "final_loss",
                                             float(rows[-1][1]), "final loss")
            return problems

        def sample_checks(n_files):
            def check(run_dir):
                problems, st.n_tasks = _check_sample_run(run_dir, n_files)
                return problems
            return check

        def eval_checks(run_dir):
            header, rows = _read_csv(os.path.join(run_dir, "metrics.csv"))
            problems = equal("metrics.csv rows", len(rows), st.n_tasks + 1)
            problems += _check_numeric_rows("metrics.csv", rows, 1)
            st.output = np.array([float(v) for v in rows[-1][1:]])
            if first:
                problems += _check_reference(st.ref, st.record, "metrics_mean", st.output,
                                             "metrics.csv mean row")
                if st.record is not None:
                    st.record["metrics_columns"] = header[1:]
            return problems

        seed = str(st.seed)
        try:
            synth = stage("synth", ["synth", "--n-joints", str(TOY_JOINTS), "--seed", seed],
                          lambda run_dir: [])
            if synth is None:
                return out
            data = ["--data", os.path.join(synth, "manifest.json")]
            train = stage("train", ["train", *data, *TOY_MODEL, *TOY_FLAGS,
                                    "--batch-size", str(PIPELINE_BATCH),
                                    "--iterations", str(PIPELINE_ITERATIONS), "--seed", seed],
                          train_checks)
            if train is None:
                return out
            sample = ["sample", *data, *TOY_FLAGS, "--seed", seed, "--split", "all",
                      "--limit", "0", "--checkpoint", os.path.join(train, "checkpoint.ckpt")]
            stoch = stage("sample", [*sample, "--mode", "stochastic", "--n", str(N_SAMPLES)],
                          sample_checks(N_SAMPLES))
            if stoch is None:
                return out
            with _timed(cli, "sample_deterministic", out["det_times"]):
                det = stage("sample_det", [*sample, "--mode", "deterministic"], sample_checks(1))
            if det is None:
                return out
            if stage("eval", ["eval", "--samples", stoch, "--det", det], eval_checks) is None:
                return out
            if first:
                st.first = digests
            out["complete"] = True
            out["tasks"] = st.n_tasks
            return out
        finally:
            shutil.rmtree(work, ignore_errors=True)

    @classmethod
    def run(cls, st, seconds, gate):
        runs = repeat(lambda: cls.call(st, gate, NULL), clock() + seconds, PIPELINE_MIN)
        runs = [r for r in runs if r["complete"]]
        if not runs:
            raise RuntimeError("no pipeline completed")
        total = [sum(r["stages"].values()) for r in runs]
        futures = [r["tasks"] * N_SAMPLES / r["stages"]["sample"] for r in runs]
        items = [PIPELINE_ITERATIONS * PIPELINE_BATCH / r["stages"]["train"] for r in runs]
        det = [t for r in runs for t in r["det_times"]]
        e2e = {"throughput_per_s": median(futures), "latency_s_p50": median(total)}
        named = [_named("pipeline_s", median(total), "s", len(runs)),
                 _named("train_items_per_s", median(items), "1/s", len(runs)),
                 _named("sample_futures_per_s", median(futures), "1/s", len(runs)),
                 *_latency_report("det_predict_s", det)]
        for name in runs[0]["stages"]:
            named.append(_named(f"cli_{name}_s", median([r["stages"][name] for r in runs]),
                                "s", len(runs)))
        return e2e, named

    @classmethod
    def unit(cls, st, gate, tracer) -> float:
        return sum(cls.call(st, gate, tracer)["stages"].values())


@contextlib.contextmanager
def _timed(module, attr: str, sink: list[float]):
    """Append the wall time of every call to module.attr while the block runs."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - start)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


WORKLOADS = {w.name: w for w in (Train, Sample, Pipeline)}
