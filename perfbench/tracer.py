"""Spans around the package's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every package module that bound it by name.  `cli` and `training` import
`sample_stochastic`, `save_checkpoint`, `batch_noise_loss` and others by
name, so patching only the defining module would miss their calls.  The
denoiser calls ops as `nm.<op>` and `Tape.gradients` calls the module-level
`backward`, so patching the `numerics` attributes catches those.
`uninstall()` puts every original back.

A span is `[name, start, end, parent, size]`: perf_counter seconds, the
index of the enclosing span (-1 at the top) and a size where the layer has
one (bytes of an op's output, tape records, batch items, file bytes).
Spans stay in memory until `take()` hands them over.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

PACKAGE = "motion_diffusion"

# Forward ops reported one by one; the rest still count towards the
# per-forward call and byte totals.
REPORTED_OPS = ("matmul", "add", "layer_norm", "softmax_rows", "transpose",
                "reshape", "relu", "scale")
OTHER_OPS = ("sub", "mul", "concat", "narrow", "take_rows", "sum_all", "mean_all")

CLI_STAGES = ("synth", "train", "sample", "sample_det", "eval")


def _out_bytes(args, kwargs, out):
    return out.data.nbytes


def _tape_records(args, kwargs, out):
    return len(args[0].records)


def _batch_items(args, kwargs, out):
    # DenoiserModel.eval_batch(self, p_obs, x_k, ks): eval_count grows by len(x_k)
    return int(args[2].shape[0])


def _file_bytes(position):
    def size(args, kwargs, out):
        return os.path.getsize(args[position] if len(args) > position else kwargs["path"])
    return size


# (module, attribute, span name, size)
FUNCTIONS = [
    *[("numerics", op, f"numerics.{op}", _out_bytes) for op in REPORTED_OPS + OTHER_OPS],
    ("numerics", "backward", "numerics.backward", _tape_records),
    ("diffusion", "batch_noise_loss", "diffusion.loss", None),
    ("diffusion", "sample_stochastic", "diffusion.sample_stochastic", None),
    ("diffusion", "sample_deterministic", "diffusion.sample_deterministic", None),
    ("training", "train", "training.train", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "save_checkpoint", "training.save_checkpoint", _file_bytes(1)),
    ("training", "load_checkpoint", "training.load_checkpoint", _file_bytes(0)),
    ("motion_data", "synth_dataset", "motion_data.synth_dataset", None),
    ("motion_data", "save_motion_file", "motion_data.save_motion_file", _file_bytes(0)),
    ("motion_data", "load_motion_file", "motion_data.load_motion_file", _file_bytes(0)),
    ("metrics", "compute_report", "metrics.compute_report", None),
    ("metrics", "apd", "metrics.apd", None),
    ("metrics", "write_report_csv", "metrics.write_report_csv", None),
]

# (module, class, method, span name, size)
METHODS = [
    ("denoiser", "DenoiserModel", "forward_batch", "denoiser.forward_batch", None),
    ("denoiser", "DenoiserModel", "eval_batch", "denoiser.eval_batch", _batch_items),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if self._paused:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Run a block (the correctness checks) without recording spans."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _wrap(self, name: str, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if size is not None:
                span[4] = size(args, kwargs, out)
            return out
        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, self.spans = self.spans, []
        return spans

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, attr, name, size in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = self._wrap(name, original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, name, size in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, size))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    span = staticmethod(lambda name: contextlib.nullcontext())
    paused = staticmethod(contextlib.nullcontext)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

SAMPLERS = {"diffusion.sample_stochastic", "diffusion.sample_deterministic"}
DENOISER = {"denoiser.forward_batch", "denoiser.eval_batch"}

# span name -> metric that sums the spans' durations
DURATION = {
    **{f"numerics.{op}": f"numerics.{op}_s" for op in REPORTED_OPS},
    "numerics.backward": "numerics.backward_s",
    "denoiser.forward_batch": "denoiser.forward_s",
    "denoiser.eval_batch": "denoiser.eval_s",
    "diffusion.loss": "diffusion.loss_s",
    "training.train": "training.train_s",
    "training.adam_step": "training.adam_s",
    "training.save_checkpoint": "training.checkpoint_save_s",
    "training.load_checkpoint": "training.checkpoint_load_s",
    "motion_data.synth_dataset": "motion_data.synth_s",
    "motion_data.save_motion_file": "motion_data.mseq_write_s",
    "motion_data.load_motion_file": "motion_data.mseq_read_s",
    "metrics.compute_report": "metrics.report_s",
    "metrics.apd": "metrics.apd_s",
    "metrics.write_report_csv": "metrics.csv_write_s",
    **{f"cli.{stage}": f"cli.{stage}_s" for stage in CLI_STAGES},
}
# span name -> metric that sums the spans' self time
SELF = {
    "denoiser.forward_batch": "denoiser.self_s",
    "denoiser.eval_batch": "denoiser.self_s",
    "diffusion.sample_stochastic": "diffusion.sampler_self_s",
    "diffusion.sample_deterministic": "diffusion.sampler_self_s",
    "diffusion.loss": "diffusion.loss_self_s",
    **{f"cli.{stage}": "cli.self_s" for stage in CLI_STAGES},
}
# span name -> metric that counts the spans
CALLS = {
    **{f"numerics.{op}": f"numerics.{op}_calls" for op in REPORTED_OPS},
    "motion_data.save_motion_file": "motion_data.mseq_files",
    "motion_data.load_motion_file": "motion_data.mseq_files",
}
# span name -> metric that sums the spans' sizes
SIZE = {
    "numerics.backward": "numerics.tape_records",
    "denoiser.eval_batch": "denoiser.items",
    "training.save_checkpoint": "training.checkpoint_bytes",
    "training.load_checkpoint": "training.checkpoint_bytes",
    "motion_data.save_motion_file": "motion_data.mseq_bytes",
    "motion_data.load_motion_file": "motion_data.mseq_bytes",
}
# already per denoiser forward, so not scaled to a workload's unit
PER_FORWARD = ("numerics.calls_per_forward", "numerics.bytes_out_per_forward")
DERIVED = (*PER_FORWARD, "diffusion.eval_calls", "trace.spans")

LAYER_METRICS = sorted({*DURATION.values(), *SELF.values(), *CALLS.values(),
                        *SIZE.values(), *DERIVED})


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over a list of spans, every LAYER_METRICS name present."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    own = self_times(spans)
    forwards = forward_ops = forward_bytes = 0
    for i, (name, start, end, parent, size) in enumerate(spans):
        if name in DURATION:
            out[DURATION[name]] += end - start
        if name in SELF:
            out[SELF[name]] += own[i]
        if name in CALLS:
            out[CALLS[name]] += 1
        if name in SIZE:
            out[SIZE[name]] += size
        parent_name = spans[parent][0] if parent >= 0 else None
        if name in DENOISER:
            forwards += 1
            if name == "denoiser.eval_batch" and parent_name in SAMPLERS:
                out["diffusion.eval_calls"] += 1
        elif name.startswith("numerics.") and parent_name in DENOISER:
            forward_ops += 1
            forward_bytes += size
    if forwards:
        out["numerics.calls_per_forward"] = forward_ops / forwards
        out["numerics.bytes_out_per_forward"] = forward_bytes / forwards
    out["trace.spans"] = float(len(spans))
    return out
