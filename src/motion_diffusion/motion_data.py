"""Pose-sequence data model: synthetic motion, windowing, normalization, file I/O.

A motion sequence is an F x D matrix of pose vectors (D = 3n for n
joints), tagged with its frame rate and representation.  On disk it is an MSEQ2
file in the container that CKPT2 checkpoints share: one sorted JSON header
line, the payload (here the frames as little-endian float64, row-major), then
the CRC32 of every byte before it as 4 little-endian bytes.
`write_header_file` writes that container and `read_header_file` reads and
checks it; `write_file` writes every file the program writes.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ContractError, ParseError, check_count,
                     check_frame_rate)

REPRESENTATIONS = ("euler", "axis-angle", "xyz")

# Synthetic-generator constants.  Frequencies in Hz, amplitudes/drift in
# the pose unit (radians for the default euler representation).
ACTION_BANDS = {
    "walk": (1.0, 2.0),
    "idle": (0.1, 0.3),
    "wave": (2.0, 4.0),
}
AMPLITUDE_RANGE = (0.1, 0.8)
DRIFT_MAX = 0.05
OFFSET_RANGE = (-0.5, 0.5)


def _check_frames(frames: np.ndarray) -> np.ndarray:
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ContractError(f"frames must be 2-D, got shape {frames.shape}")
    f, d = frames.shape
    if f < 1:
        raise ContractError("sequence must contain at least one frame")
    if d < 3 or d % 3 != 0:
        raise ContractError(f"pose dimension {d} is not a positive multiple of 3")
    if not np.all(np.isfinite(frames)):
        raise ContractError("frames contain non-finite values")
    return frames


@dataclass(frozen=True, eq=False)
class MotionSequence:
    """An F x D pose matrix with frame rate and representation tag."""

    frames: np.ndarray
    fps: float
    representation: str = "euler"
    action_label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", _check_frames(self.frames))
        check_frame_rate(self.fps, "fps", ContractError)
        if self.representation not in REPRESENTATIONS:
            raise ContractError(
                f"unknown representation {self.representation!r}, "
                f"expected one of {REPRESENTATIONS}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True, eq=False)
class PredictionTask:
    """An (observation, future) window of one sequence."""

    p_obs: np.ndarray
    p_gt: np.ndarray

    def __post_init__(self):
        obs = np.ascontiguousarray(self.p_obs, dtype=np.float64)
        gt = np.ascontiguousarray(self.p_gt, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[0] < 1:
            raise ContractError(f"p_obs must be T x D with T >= 1, got {obs.shape}")
        if gt.ndim != 2 or gt.shape[0] < 1:
            raise ContractError(f"p_gt must be L x D with L >= 1, got {gt.shape}")
        if gt.shape[1] != obs.shape[1]:
            raise ContractError(
                f"p_obs and p_gt disagree on pose dimension: "
                f"{obs.shape[1]} vs {gt.shape[1]}")
        object.__setattr__(self, "p_obs", obs)
        object.__setattr__(self, "p_gt", gt)

    @property
    def dim(self) -> int:
        return self.p_obs.shape[1]


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def synth_dataset(n_joints: int, n_sequences: int, frames_per_sequence: int,
                  fps: float, action_mix: dict[str, float], seed: int,
                  representation: str = "euler") -> list[MotionSequence]:
    """Generate seeded synthetic motion: per-dimension sinusoids plus drift.

    Each sequence draws an action from `action_mix`; the action selects
    the sinusoid frequency band (see ACTION_BANDS).  Output is a pure
    function of the arguments.
    """
    if representation not in REPRESENTATIONS:
        raise ConfigError(f"unknown representation {representation!r}, "
                          f"expected one of {REPRESENTATIONS}")
    check_count(n_joints, 2, "n_joints", ConfigError)
    check_count(n_sequences, 0, "n_sequences", ConfigError)
    check_count(frames_per_sequence, 1, "frames_per_sequence", ConfigError)
    check_frame_rate(fps, "fps", ConfigError)
    if not action_mix:
        raise ConfigError("action_mix is empty")
    for name in action_mix:
        if name not in ACTION_BANDS:
            raise ConfigError(
                f"unknown action {name!r}, expected one of {sorted(ACTION_BANDS)}")
    weights = np.array([float(action_mix[a]) for a in sorted(action_mix)])
    if not (np.all(weights >= 0) and 0 < weights.sum() < np.inf):  # rejects NaN too
        raise ConfigError("action_mix weights must be nonnegative with a positive, "
                          "finite sum")
    names = sorted(action_mix)
    probs = weights / weights.sum()

    rng = np.random.default_rng(seed)
    d = 3 * n_joints
    t = np.arange(frames_per_sequence)[:, None] / fps  # seconds, (F, 1)
    out = []
    for _ in range(n_sequences):
        action = names[rng.choice(len(names), p=probs)]
        f_lo, f_hi = ACTION_BANDS[action]
        amp = rng.uniform(*AMPLITUDE_RANGE, size=d)
        freq = rng.uniform(f_lo, f_hi, size=d)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=d)
        drift = rng.uniform(-DRIFT_MAX, DRIFT_MAX, size=d)
        offset = rng.uniform(*OFFSET_RANGE, size=d)
        frames = offset + amp * np.sin(2.0 * np.pi * freq * t + phase) + drift * t
        out.append(MotionSequence(frames, fps, representation, action))
    return out


def window_split(seq: MotionSequence, t_obs: int, l_pred: int,
                 stride: int) -> list[PredictionTask]:
    """Cut a sequence into (observation, future) windows.

    Windows start at 0, stride, 2*stride, ...; a window spans t_obs
    observed frames followed by l_pred future frames.  Too-short
    sequences yield an empty list, not an error; an extent that is not
    a count of at least 1 is a ConfigError.
    """
    for name, value in (("t_obs", t_obs), ("l_pred", l_pred), ("stride", stride)):
        check_count(value, 1, name, ConfigError)
    f = seq.n_frames
    span = t_obs + l_pred
    tasks = []
    for start in range(0, f - span + 1, stride):
        tasks.append(PredictionTask(
            p_obs=seq.frames[start:start + t_obs],
            p_gt=seq.frames[start + t_obs:start + span],
        ))
    return tasks


def split_sequences(seqs: list[MotionSequence], train_fraction: float = 0.8,
                    seed: int = 0) -> tuple[list[MotionSequence], list[MotionSequence]]:
    """Seeded train/test split by whole sequence (never by window)."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = np.random.default_rng(seed).permutation(len(seqs))
    n_train = int(round(train_fraction * len(seqs)))
    n_train = min(max(n_train, 1), max(len(seqs) - 1, 1)) if len(seqs) > 1 else len(seqs)
    train = [seqs[i] for i in order[:n_train]]
    test = [seqs[i] for i in order[n_train:]]
    return train, test


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

STD_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-dimension z-score transform fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> Normalizer:
        return cls(np.zeros(dim), np.ones(dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean

    def apply_task(self, task: PredictionTask) -> PredictionTask:
        return PredictionTask(self.apply(task.p_obs), self.apply(task.p_gt))


def fit_normalizer(train_tasks: list[PredictionTask]) -> Normalizer:
    """Fit per-dimension mean/std over all frames of the training tasks."""
    if not train_tasks:
        raise ConfigError("cannot fit a normalizer on an empty training set")
    stacked = np.concatenate([block for task in train_tasks
                              for block in (task.p_obs, task.p_gt)], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return Normalizer(mean, std)


# ---------------------------------------------------------------------------
# MSEQ2 file format
# ---------------------------------------------------------------------------

MSEQ_VERSION = 2


def save_motion_file(path: str, seq: MotionSequence) -> None:
    """Write one sequence: its header, then its frames as little-endian float64."""
    header = {
        "version": MSEQ_VERSION,
        "F": seq.n_frames,
        "D": seq.dim,
        "fps": float(seq.fps),
        "repr": seq.representation,
        "label": seq.action_label,
    }
    frames = np.ascontiguousarray(seq.frames, dtype="<f8")
    write_header_file(path, header, [frames.tobytes()])


def load_motion_file(path: str) -> MotionSequence:
    """Read an MSEQ2 file; a malformed file raises ParseError naming it, with the offset."""
    header, payload, start = read_header_file(path, "motion file header", MSEQ_VERSION)
    n_frames = check_count(header.get("F"), 1, f"{path}: header F", ParseError)
    dim = check_count(header.get("D"), 3, f"{path}: header D", ParseError)
    if dim % 3 != 0:
        raise ParseError(f"{path}: header D={dim} is not a multiple of 3", offset=0)
    fps = check_frame_rate(header.get("fps"), f"{path}: header fps", ParseError)
    try:
        representation, label = header["repr"], header["label"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing header field {exc}", offset=0) from exc
    if representation not in REPRESENTATIONS:
        raise ParseError(f"{path}: unknown representation {representation!r}", offset=0)
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{path}: label must be a string or null", offset=0)

    expected = n_frames * dim * 8
    if len(payload) != expected:
        raise ParseError(f"{path}: payload has {len(payload)} bytes, expected {expected}",
                         offset=start + len(payload))
    flat = np.frombuffer(payload, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ParseError(f"{path}: non-finite value in payload",
                         offset=start + int(bad[0]) * 8)
    frames = flat.astype(np.float64).reshape(n_frames, dim)
    return MotionSequence(frames, fps, representation, label)


def save_manifest(path: str, file_paths: list[str]) -> None:
    """Write a dataset manifest: a JSON list of motion file paths."""
    write_file(path, json_parts(list(file_paths), indent=0))


def write_file(path, parts) -> None:
    """Write an iterable of byte chunks to `path`: every file the program writes."""
    with open(path, "wb") as fh:
        fh.writelines(parts)


def write_header_file(path, header: dict, payload: list[bytes]) -> None:
    """Write the container of MSEQ2 and CKPT2 files: `header` as one sorted JSON
    line, the `payload` chunks, then the CRC32 of every byte before it as 4
    little-endian bytes."""
    parts = [json.dumps(header, sort_keys=True).encode("ascii") + b"\n", *payload]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    write_file(path, [*parts, crc.to_bytes(4, "little")])


def json_parts(obj, **fmt):
    """`obj` as JSON and a newline, encoded chunk by chunk as `json.dump` writes it."""
    yield from (chunk.encode("utf-8") for chunk in json.JSONEncoder(**fmt).iterencode(obj))
    yield b"\n"


def _parse_json(raw: bytes, what: str):
    """Decode UTF-8 JSON bytes; any failure is a ParseError naming `what`, at
    the failing byte where the decoder reports one and else at offset 0."""
    try:
        text = raw.decode("utf-8")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8", offset=exc.start) from exc
    except json.JSONDecodeError as exc:  # exc.pos counts characters, not bytes
        raise ParseError(f"{what} is not valid JSON: {exc.msg}",
                         offset=len(text[:exc.pos].encode("utf-8"))) from exc
    except ValueError as exc:  # an integer past int's digit limit
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what} nests deeper than the JSON parser's limit") from exc


def read_header_file(path, what: str, version: int) -> tuple[dict, bytes, int]:
    """Read the container of MSEQ2 and CKPT2 files: a JSON object line whose
    `version` is the int `version` (never True or 1.0), the payload, and the
    CRC32 of every byte before it.  Returns (header, payload, payload offset);
    else a ParseError naming `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    named = f"{path}: {what}"
    newline = blob.find(b"\n")
    if newline < 0:
        raise ParseError(f"{named} has no line terminator", offset=len(blob))
    header = _parse_json(blob[:newline], named)
    if not isinstance(header, dict):
        raise ParseError(f"{named} is not a JSON object", offset=0)
    found = header.get("version")
    if type(found) is not int or found != version:
        raise ParseError(f"{path}: unsupported {what} version {found!r}", offset=0)
    end = len(blob) - 4
    if end <= newline:
        raise ParseError(f"{path}: ends before its 4-byte checksum", offset=len(blob))
    if zlib.crc32(memoryview(blob)[:end]) != int.from_bytes(blob[end:], "little"):
        raise ParseError(f"{path}: checksum does not match the file's bytes", offset=end)
    return header, blob[newline + 1:end], newline + 1


def read_json(path, what: str):
    """Parse a JSON file; any malformed content is `_parse_json`'s ParseError."""
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), f"{path}: {what}")


def load_manifest(path: str) -> list[str]:
    entries = read_json(path, "dataset manifest")
    if not isinstance(entries, list) or not all(isinstance(p, str) for p in entries):
        raise ParseError(f"{path}: dataset manifest must be a JSON list of file paths")
    base = os.path.dirname(os.path.abspath(path))
    return [p if os.path.isabs(p) else os.path.join(base, p) for p in entries]


def load_dataset(manifest_path: str) -> list[MotionSequence]:
    return [load_motion_file(p) for p in load_manifest(manifest_path)]
