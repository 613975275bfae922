"""Command-line pipeline: synth, train, sample, eval, gradcheck, export.

Configuration is resolved in a fixed precedence order: built-in
defaults, then the MD_SEED environment variable (seed only), then the
`--config` key=value file, then explicit flags.  Unknown config keys
are rejected.  Every run writes its outputs into a fresh timestamped
directory under `out` together with a run_manifest.json recording the
fully resolved configuration; runs with identical manifests produce
identical primary outputs.

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage or
configuration error, including a path that cannot be read.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from . import numerics as nm
from .denoiser import DenoiserConfig
from .diffusion import build_schedule, sample_deterministic, sample_stochastic
from .errors import (ConfigError, ContractError, DimensionError, IntegrityError,
                     NumericsError, ParseError, SamplingDivergedError,
                     TrainingDivergedError, UndefinedMetricError, check_count,
                     check_frame_rate)
from .gradcheck import run_suite
from .metrics import SampleSet, compute_report, write_report_csv
from .motion_data import (MotionSequence, fit_normalizer, json_parts, load_dataset,
                          load_motion_file, read_json, save_manifest, save_motion_file,
                          split_sequences, synth_dataset, window_split, write_file)
from .training import (TrainConfig, check_start, initial_checkpoint, load_checkpoint,
                       save_checkpoint, train)

BUILD_ID = f"motion-diffusion/{__version__}"
LOG_EVERY = 100  # loss_log.csv keeps iteration 1, every LOG_EVERY-th and the last

# (key, type, default, help); required keys use the REQUIRED sentinel
REQUIRED = object()

_SPLIT_KEYS = [
    ("t_obs", int, 16, "observed frames per task"),
    ("l_pred", int, 20, "future frames per task"),
    ("stride", int, 4, "window start stride"),
    ("train_fraction", float, 0.8, "sequence fraction assigned to training"),
    ("split_seed", int, 0, "seed for the train/val sequence split"),
]

COMMAND_KEYS: dict[str, list[tuple]] = {
    "synth": [
        ("out", str, "runs", "base output directory"),
        ("n_joints", int, 5, "joints per skeleton (D = 3*joints)"),
        ("n_sequences", int, 8, "sequences to generate"),
        ("frames", int, 60, "frames per sequence"),
        ("fps", float, 25.0, "frame rate"),
        ("actions", str, "walk:1", "action mix, e.g. walk:0.5,idle:0.5"),
        ("representation", str, "euler", "pose representation"),
        ("seed", int, 0, "generation seed"),
    ],
    "train": [
        ("out", str, "runs", "base output directory"),
        ("data", str, REQUIRED, "dataset manifest path"),
        ("variant", str, "series", "denoiser variant: series or parallel"),
        ("model_dim", int, 64, "attention width"),
        ("n_heads", int, 4, "attention heads"),
        ("k_steps", int, 20, "diffusion steps"),
        ("beta_min", float, 0.001, "smallest noise-schedule beta"),
        ("beta_max", float, 0.333, "largest noise-schedule beta"),
        ("batch_size", int, TrainConfig.batch_size, "tasks per iteration"),
        ("iterations", int, TrainConfig.iterations, "optimizer steps"),
        ("lr", float, TrainConfig.lr, "Adam learning rate"),
        ("checkpoint_every", int, TrainConfig.checkpoint_every,
         "snapshot interval (iterations)"),
        ("grad_clip", float, TrainConfig.grad_clip,
         "global-norm gradient clip, 0 disables"),
        ("seed", int, TrainConfig.seed, "training seed"),
        ("resume", str, "", "checkpoint to resume from"),
        *_SPLIT_KEYS,
    ],
    "sample": [
        ("out", str, "runs", "base output directory"),
        ("checkpoint", str, REQUIRED, "trained checkpoint path"),
        ("data", str, REQUIRED, "dataset manifest path"),
        ("mode", str, "stochastic", "stochastic or deterministic"),
        ("n", int, 50, "samples per task (stochastic mode)"),
        ("seed", int, 0, "sampling seed"),
        ("split", str, "val", "task source: train, val or all"),
        ("limit", int, 4, "max tasks to sample (0 = no limit)"),
        *_SPLIT_KEYS,
    ],
    "eval": [
        ("out", str, "runs", "base output directory"),
        ("samples", str, REQUIRED, "sample run directory (stochastic)"),
        ("det", str, "", "optional deterministic sample run directory"),
        ("horizons", str, "80,160,320,400,560,1000",
         "euler MSE horizons in milliseconds"),
    ],
    "gradcheck": [
        ("out", str, "runs", "base output directory"),
        ("seed", int, 0, "probe seed"),
        ("probes", int, 8, "parameter probes per variant"),
    ],
    "export": [
        ("out", str, "runs", "base output directory"),
        ("input", str, REQUIRED, "motion file (.mseq) to convert"),
    ],
}


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; blanks ignored."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < MD_SEED < config file < flags; unknown keys rejected."""
    spec = COMMAND_KEYS[command]
    known = {key: (typ, default) for key, typ, default, _ in spec}
    resolved = {key: default for key, (_, default) in known.items()}

    env_seed = os.environ.get("MD_SEED")
    if env_seed is not None and "seed" in known:
        try:
            resolved["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"MD_SEED must be an integer, got {env_seed!r}")

    if args.config:
        for key, text in parse_config_file(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} for {command!r}")
            typ = known[key][0]
            try:
                resolved[key] = typ(text)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {text!r}")

    for key in known:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value

    missing = [k for k, v in resolved.items() if v is REQUIRED]
    if missing:
        raise ConfigError(f"missing required setting(s): {', '.join(sorted(missing))}")
    for key in sorted({"seed", "split_seed"} & resolved.keys()):
        check_count(resolved[key], 0, key, ConfigError)
    return resolved


def parse_action_mix(text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition(":")
        try:
            mix[name.strip()] = float(weight) if weight else 1.0
        except ValueError:
            raise ConfigError(f"bad action weight in {part!r}")
    return mix


def _parse_horizons(text: str) -> list[int]:
    try:
        horizons = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"horizons must be comma-separated integers, got {text!r}")
    return [check_count(ms, 1, f"horizon in {text!r}", ConfigError) for ms in horizons]


# ---------------------------------------------------------------------------
# run directories and manifests
# ---------------------------------------------------------------------------


def open_run(command: str, cfg: dict) -> str:
    """Make a fresh run directory under out, write run_manifest.json, print its path."""
    base = os.path.join(cfg["out"], f"{command}-{time.strftime('%Y%m%d-%H%M%S')}")
    for run_dir in [base, *(f"{base}-{suffix}" for suffix in range(1, 100))]:
        try:
            os.makedirs(run_dir)
            break
        except FileExistsError:
            pass
    else:
        raise ConfigError(f"could not allocate a fresh run directory under {cfg['out']!r}")
    write_file(os.path.join(run_dir, "run_manifest.json"), json_parts(
        {"command": command, "config": dict(cfg), "seed": cfg.get("seed"),
         "build": BUILD_ID}, indent=2, sort_keys=True))
    print(f"run directory: {run_dir}")
    return run_dir


def _dataset_tasks(cfg: dict, dim: int | None = None):
    """Window and split the dataset by sequence; its dimension must be `dim` if given."""
    seqs = load_dataset(cfg["data"])
    if not seqs:
        raise ConfigError(f"dataset manifest {cfg['data']!r} lists no sequences")
    meta = {"fps": seqs[0].fps, "representation": seqs[0].representation,
            "dim": seqs[0].dim}
    for i, seq in enumerate(seqs):
        for key, value in meta.items():
            if getattr(seq, key) != value:
                raise ConfigError(
                    f"dataset manifest {cfg['data']!r}: sequence {i} has {key} "
                    f"{getattr(seq, key)!r}, sequence 0 has {value!r}")
    if dim is not None and meta["dim"] != dim:
        raise ConfigError(f"dataset dimension {meta['dim']} != checkpoint dimension {dim}")
    train_seqs, val_seqs = split_sequences(
        seqs, train_fraction=cfg["train_fraction"], seed=cfg["split_seed"])
    def windows(group):
        tasks = []
        for seq in group:
            tasks.extend(window_split(seq, cfg["t_obs"], cfg["l_pred"], cfg["stride"]))
        return tasks
    return windows(train_seqs), windows(val_seqs), meta


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: dict) -> int:
    mix = parse_action_mix(cfg["actions"])
    seqs = synth_dataset(
        n_joints=cfg["n_joints"], n_sequences=cfg["n_sequences"],
        frames_per_sequence=cfg["frames"], fps=cfg["fps"], action_mix=mix,
        seed=cfg["seed"], representation=cfg["representation"])
    run_dir = open_run("synth", cfg)
    names = []
    for i, seq in enumerate(seqs):
        name = f"seq_{i:03d}.mseq"
        save_motion_file(os.path.join(run_dir, name), seq)
        names.append(name)
    save_manifest(os.path.join(run_dir, "manifest.json"), names)
    print(f"wrote {len(names)} sequences and manifest.json")
    return 0


def cmd_train(cfg: dict) -> int:
    start = load_checkpoint(cfg["resume"]) if cfg["resume"] else None
    train_tasks, _, meta = _dataset_tasks(cfg, start and start.denoiser_config.dim)
    if not train_tasks:
        raise ConfigError(
            "no training windows: sequences shorter than t_obs + l_pred")
    den_cfg = DenoiserConfig(
        variant=cfg["variant"], model_dim=cfg["model_dim"], n_heads=cfg["n_heads"],
        t_obs=cfg["t_obs"], l_pred=cfg["l_pred"], dim=meta["dim"],
        k_steps=cfg["k_steps"])
    tr_cfg = TrainConfig(
        batch_size=cfg["batch_size"], iterations=cfg["iterations"], lr=cfg["lr"],
        checkpoint_every=cfg["checkpoint_every"], grad_clip=cfg["grad_clip"])
    sched = build_schedule(cfg["k_steps"], cfg["beta_min"], cfg["beta_max"])

    if start is not None:
        cfg = {**cfg, "seed": None}  # the stream continues from the checkpoint
    else:
        start = initial_checkpoint(den_cfg, sched, fit_normalizer(train_tasks),
                                   cfg["seed"])
    norm_tasks = [start.normalizer.apply_task(t) for t in train_tasks]
    check_start(start, den_cfg, tr_cfg, sched)

    run_dir = open_run("train", cfg)
    ckpt_path = os.path.join(run_dir, "checkpoint.ckpt")
    try:
        result = train(norm_tasks, den_cfg, tr_cfg, sched, start=start)
    except TrainingDivergedError as exc:
        save_checkpoint(exc.checkpoint, ckpt_path)
        print(f"saved last good checkpoint at iteration {exc.checkpoint.iteration}",
              file=sys.stderr)
        raise
    save_checkpoint(result.checkpoint, ckpt_path)
    logged = enumerate(result.losses, start=start.iteration + 1)
    write_file(os.path.join(run_dir, "loss_log.csv"), [b"iteration,loss\n", *(
        f"{it},{val!r}\n".encode("ascii") for it, val in logged
        if it == 1 or it % LOG_EVERY == 0 or it == tr_cfg.iterations)])
    print(f"final loss: {result.losses[-1]:.6f}" if result.losses
          else "no iterations run")
    print("wrote checkpoint.ckpt and loss_log.csv")
    return 0


def _task_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, index)).generate_state(1)[0])


def cmd_sample(cfg: dict) -> int:
    if cfg["mode"] not in ("stochastic", "deterministic"):
        raise ConfigError(f"mode must be stochastic or deterministic, "
                          f"got {cfg['mode']!r}")
    if cfg["split"] not in ("train", "val", "all"):
        raise ConfigError(f"split must be train, val or all, got {cfg['split']!r}")
    check_count(cfg["n"], 1, "n", ConfigError)
    check_count(cfg["limit"], 0, "limit", ConfigError)
    ckpt = load_checkpoint(cfg["checkpoint"])
    den_cfg = ckpt.denoiser_config
    if (cfg["t_obs"], cfg["l_pred"]) != (den_cfg.t_obs, den_cfg.l_pred):
        raise ConfigError(
            f"window extents ({cfg['t_obs']}, {cfg['l_pred']}) do not match "
            f"the checkpoint ({den_cfg.t_obs}, {den_cfg.l_pred})")
    train_tasks, val_tasks, meta = _dataset_tasks(cfg, den_cfg.dim)
    tasks = {"train": train_tasks, "val": val_tasks,
             "all": train_tasks + val_tasks}[cfg["split"]]
    if cfg["limit"] > 0:
        tasks = tasks[:cfg["limit"]]
    if not tasks:
        raise ConfigError("no tasks to sample for the requested split")

    model = ckpt.build_model()
    run_dir = open_run("sample", cfg)

    def write_seq(path, frames):
        save_motion_file(path, MotionSequence(
            frames=frames, fps=meta["fps"], representation=meta["representation"]))

    index = []
    with nm.buffer_pool():  # one pool for every task: its slots outlive each task
        for i, task in enumerate(tasks):
            task_dir = os.path.join(run_dir, f"task_{i:03d}")
            os.makedirs(task_dir)
            obs_n = ckpt.normalizer.apply(task.p_obs)
            entry = {"index": i, "dir": f"task_{i:03d}", "gt": "gt.mseq", "files": []}
            write_seq(os.path.join(task_dir, "gt.mseq"), task.p_gt)
            try:
                if cfg["mode"] == "deterministic":
                    futures = [sample_deterministic(model, obs_n, ckpt.schedule)]
                    names = ["det.mseq"]
                else:
                    futures = sample_stochastic(model, obs_n, cfg["n"],
                                                _task_seed(cfg["seed"], i),
                                                ckpt.schedule).samples
                    names = [f"sample_{j:03d}.mseq" for j in range(len(futures))]
            except SamplingDivergedError as exc:
                raise SamplingDivergedError(exc.message, exc.step, task=i) from exc
            for name, future in zip(names, futures):
                write_seq(os.path.join(task_dir, name), ckpt.normalizer.invert(future))
                entry["files"].append(name)
            index.append(entry)

    write_file(os.path.join(run_dir, "samples_manifest.json"), json_parts(
        {"mode": cfg["mode"], "n": cfg["n"], "seed": cfg["seed"], "fps": meta["fps"],
         "representation": meta["representation"], "l_pred": den_cfg.l_pred,
         "dim": den_cfg.dim, "tasks": index}, indent=2, sort_keys=True))
    print(f"wrote samples for {len(tasks)} task(s)")
    return 0


SAMPLES_MANIFEST_KEYS = {"mode": str, "representation": str, "tasks": list}
SAMPLES_TASK_KEYS = {"dir": str, "gt": str, "files": list}


def _has_fields(obj, fields: dict) -> bool:
    return isinstance(obj, dict) and all(isinstance(obj.get(k), t)
                                         for k, t in fields.items())


def _load_samples_manifest(path: str) -> tuple[dict, str]:
    """Read a sample run's manifest; a malformed one is a ParseError.

    It must list at least one task, and no task index twice.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "samples_manifest.json")
    manifest = read_json(path, "samples manifest")
    if not (_has_fields(manifest, SAMPLES_MANIFEST_KEYS)
            and all(_has_fields(e, SAMPLES_TASK_KEYS) and e["files"]
                    and all(isinstance(name, str) for name in e["files"])
                    for e in manifest["tasks"])):
        raise ParseError(f"{path}: samples manifest needs "
                         f"{sorted(SAMPLES_MANIFEST_KEYS)} and task entries with "
                         f"{sorted(SAMPLES_TASK_KEYS)}", offset=0)
    check_frame_rate(manifest.get("fps"), f"{path}: samples manifest fps", ParseError)
    if not manifest["tasks"]:
        raise ParseError(f"{path}: samples manifest lists no tasks", offset=0)
    seen = set()
    for entry in manifest["tasks"]:
        index = check_count(entry.get("index"), 0, f"{path}: task index", ParseError)
        if index in seen:
            raise ParseError(f"{path}: task index {index} appears twice", offset=0)
        seen.add(index)
    return manifest, os.path.dirname(os.path.abspath(path))


def cmd_eval(cfg: dict) -> int:
    manifest, base = _load_samples_manifest(cfg["samples"])
    if manifest["mode"] != "stochastic":
        raise ConfigError("eval needs a stochastic sample run as `samples`")
    det_by_index = {}
    if cfg["det"]:
        det_manifest, det_base = _load_samples_manifest(cfg["det"])
        if det_manifest["mode"] != "deterministic":
            raise ConfigError("`det` must point at a deterministic sample run")
        # both runs must predict every task from the same motion: same
        # representation and fps here, same ground-truth frames below
        for key in ("representation", "fps"):
            if det_manifest[key] != manifest[key]:
                raise ConfigError(f"`det` run has {key} {det_manifest[key]!r}, the "
                                  f"`samples` run {manifest[key]!r}")
        det_by_index = {e["index"]: [os.path.join(det_base, e["dir"], name)
                                     for name in (e["gt"], e["files"][0])]
                        for e in det_manifest["tasks"]}
        for entry in manifest["tasks"]:
            if entry["index"] not in det_by_index:
                raise ConfigError(f"`det` run has no task {entry['index']} of the "
                                  f"`samples` run")
    horizons = _parse_horizons(cfg["horizons"])

    rows = []
    for entry in manifest["tasks"]:
        idx = entry["index"]
        task_dir = os.path.join(base, entry["dir"])
        gt = load_motion_file(os.path.join(task_dir, entry["gt"])).frames
        sample_frames = [load_motion_file(os.path.join(task_dir, name)).frames
                         for name in entry["files"]]
        try:
            sset = SampleSet(samples=np.stack(sample_frames), ground_truth=gt,
                             fps=manifest["fps"])
        except (DimensionError, ContractError, ValueError) as exc:
            raise ContractError(f"task {idx}: {exc}") from exc
        det_pred = None
        if cfg["det"]:
            det_gt, det_pred = (load_motion_file(p).frames for p in det_by_index[idx])
            if not np.array_equal(det_gt, gt):
                raise ConfigError(f"`det` task {idx} has other ground truth than the "
                                  f"`samples` run")
        if manifest["representation"] != "euler":  # euler MSE reads euler angles
            det_pred = None
        report = compute_report(sset, deterministic_pred=det_pred, horizons_ms=horizons)
        rows.append((f"task_{idx:03d}", report))

    run_dir = open_run("eval", cfg)
    write_report_csv(rows, os.path.join(run_dir, "metrics.csv"))
    print(f"wrote metrics.csv with {len(rows)} task row(s) plus aggregate")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    report = run_suite(seed=cfg["seed"], n_probes=cfg["probes"])
    run_dir = open_run("gradcheck", cfg)
    lines = report.lines()
    write_file(os.path.join(run_dir, "gradcheck.txt"),
               (line.encode("utf-8") + b"\n" for line in lines))
    for line in lines:
        print(line)
    return 0 if report.passed else 1


def cmd_export(cfg: dict) -> int:
    seq = load_motion_file(cfg["input"])
    run_dir = open_run("export", cfg)
    stem = os.path.splitext(os.path.basename(cfg["input"]))[0]
    csv_path = os.path.join(run_dir, f"{stem}.csv")
    write_file(csv_path, [
        ("frame," + ",".join(f"d{j}" for j in range(seq.dim)) + "\n").encode("ascii"),
        *(f"{i},{','.join(map(repr, row.tolist()))}\n".encode("ascii")
          for i, row in enumerate(seq.frames))])
    print(f"wrote {os.path.basename(csv_path)} ({seq.n_frames} frames)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "synth": cmd_synth, "train": cmd_train, "sample": cmd_sample,
    "eval": cmd_eval, "gradcheck": cmd_gradcheck, "export": cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motiondiff",
        description="Conditional diffusion for 3D human motion prediction")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in COMMAND_KEYS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key = value config file")
        for key, typ, default, help_text in keys:
            shown = "required" if default is REQUIRED else repr(default)
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                           default=None, help=f"{help_text} (default: {shown})")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        resolved = resolve_config(args.command, args)
        # every overflow already ends in a typed error, so numpy's warnings only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return _HANDLERS[args.command](resolved)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, DimensionError, IntegrityError, NumericsError,
            SamplingDivergedError, TrainingDivergedError,
            UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
