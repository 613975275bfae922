"""Data model, synthetic generator, windowing, normalization, MSEQ1 I/O."""

import ast
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motion_diffusion.motion_data as mdata
from motion_diffusion.errors import ConfigError, ContractError, ParseError


def small_dataset(seed=0, n=3, frames=40):
    return mdata.synth_dataset(n_joints=2, n_sequences=n, frames_per_sequence=frames,
                               fps=25.0, action_mix={"walk": 0.5, "idle": 0.5},
                               seed=seed)


class TestTypes:
    def test_motion_sequence_validates(self):
        with pytest.raises(ContractError):
            mdata.MotionSequence(np.ones((2, 4)), fps=25.0)  # D not multiple of 3
        with pytest.raises(ContractError):
            mdata.MotionSequence(np.ones((2, 3)), fps=0.0)
        with pytest.raises(ContractError):
            mdata.MotionSequence(np.ones((2, 3)), fps=25.0, representation="quat")
        seq = mdata.MotionSequence(np.ones((2, 6)), fps=25.0)
        assert (seq.n_frames, seq.dim) == (2, 6)

    def test_prediction_task_validates(self):
        with pytest.raises(ContractError):
            mdata.PredictionTask(np.ones((2, 6)), np.ones((3, 9)))
        with pytest.raises(TypeError):
            mdata.PredictionTask(np.ones((2, 6)))  # every task has a future


class TestSynth:
    def test_same_seed_bit_identical(self):
        a, b = small_dataset(seed=9), small_dataset(seed=9)
        assert len(a) == len(b)
        for qa, qb in zip(a, b):
            assert np.array_equal(qa.frames, qb.frames)
            assert qa.action_label == qb.action_label

    def test_zero_sequences(self):
        assert small_dataset(n=0) == []

    def test_idle_delta_analytic_bound(self):
        # generator: offset + amp sin(2 pi f t + phi) + drift t, so
        # |frame delta| <= (2 pi f_hi amp_hi + drift_max) / fps
        fps = 25.0
        seqs = mdata.synth_dataset(n_joints=3, n_sequences=6,
                                   frames_per_sequence=100, fps=fps,
                                   action_mix={"idle": 1.0}, seed=3)
        f_hi = mdata.ACTION_BANDS["idle"][1]
        bound = (2 * np.pi * f_hi * mdata.AMPLITUDE_RANGE[1] + mdata.DRIFT_MAX) / fps
        for seq in seqs:
            assert seq.action_label == "idle"
            deltas = np.abs(np.diff(seq.frames, axis=0))
            assert deltas.max() < bound

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError, match="sprint"):
            mdata.synth_dataset(2, 1, 10, 25.0, {"sprint": 1.0}, 0)

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            mdata.synth_dataset(2, 1, 10, 25.0, {}, 0)

    def test_single_joint_rejected(self):
        with pytest.raises(ConfigError):
            mdata.synth_dataset(1, 1, 10, 25.0, {"walk": 1.0}, 0)


class TestWindowing:
    def test_exact_fit_single_task(self):
        seq = mdata.MotionSequence(np.arange(75 * 3, dtype=float).reshape(75, 3),
                                   fps=25.0)
        tasks = mdata.window_split(seq, 50, 25, stride=75)
        assert len(tasks) == 1
        np.testing.assert_array_equal(tasks[0].p_obs, seq.frames[:50])
        np.testing.assert_array_equal(tasks[0].p_gt, seq.frames[50:])

    def test_counting_formula(self):
        seq = mdata.MotionSequence(np.zeros((100, 3)), fps=25.0)
        tasks = mdata.window_split(seq, 25, 50, stride=5)
        assert len(tasks) == (100 - 75) // 5 + 1 == 6

    def test_too_short_returns_empty(self):
        seq = mdata.MotionSequence(np.zeros((10, 3)), fps=25.0)
        assert mdata.window_split(seq, 8, 5, stride=1) == []

    @pytest.mark.parametrize("t, l, stride", [
        (0, 5, 1), (8, 0, 1), (8, 5, 0), (8, -5, 1), (True, 5, 1), (8.0, 5, 1)])
    def test_extents_are_counts(self, t, l, stride):
        # a configuration error, like every other count the CLI passes on
        seq = mdata.MotionSequence(np.zeros((20, 3)), fps=25.0)
        with pytest.raises(ConfigError):
            mdata.window_split(seq, t, l, stride)

    @given(f=st.integers(2, 60), t=st.integers(1, 20), l=st.integers(1, 20),
           stride=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_windows_stay_in_bounds_and_never_leak(self, f, t, l, stride):
        frames = np.arange(f)[:, None] * np.ones(3)
        seq = mdata.MotionSequence(frames, fps=10.0)
        tasks = mdata.window_split(seq, t, l, stride)
        if f < t + l:
            assert tasks == []
        else:
            assert len(tasks) == (f - t - l) // stride + 1
        for i, task in enumerate(tasks):
            start = i * stride
            # frame ids are encoded in the values: contiguous, in range,
            # and p_obs never overlaps p_gt
            obs_ids = task.p_obs[:, 0]
            gt_ids = task.p_gt[:, 0]
            assert obs_ids[0] == start and gt_ids[-1] == start + t + l - 1
            assert gt_ids[-1] <= f - 1
            assert set(obs_ids).isdisjoint(gt_ids)


class TestSplit:
    def test_split_is_seeded_and_disjoint(self):
        seqs = small_dataset(n=10, frames=20)
        a1, b1 = mdata.split_sequences(seqs, 0.8, seed=4)
        a2, b2 = mdata.split_sequences(seqs, 0.8, seed=4)
        assert [id(s) for s in a1] == [id(s) for s in a2]
        assert len(a1) == 8 and len(b1) == 2
        assert {id(s) for s in a1}.isdisjoint({id(s) for s in b1})

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            mdata.split_sequences(small_dataset(), 1.5)


class TestNormalizer:
    def test_constant_dataset_clamped(self):
        task = mdata.PredictionTask(np.full((4, 3), 7.0), np.full((2, 3), 7.0))
        norm = mdata.fit_normalizer([task])
        assert np.all(norm.std == mdata.STD_FLOOR)
        np.testing.assert_array_equal(norm.apply(task.p_obs), np.zeros((4, 3)))

    def test_round_trip(self, rng):
        x = rng.normal(size=(6, 9)) * 3 + 1
        task = mdata.PredictionTask(x[:4], x[4:])
        norm = mdata.fit_normalizer([task])
        np.testing.assert_allclose(norm.invert(norm.apply(x)), x, atol=1e-12)

    def test_applied_training_mean_is_zero(self, rng):
        tasks = [mdata.PredictionTask(rng.normal(size=(5, 6)), rng.normal(size=(3, 6)))
                 for _ in range(4)]
        norm = mdata.fit_normalizer(tasks)
        stacked = np.concatenate([np.concatenate([norm.apply(t.p_obs),
                                                  norm.apply(t.p_gt)]) for t in tasks])
        assert np.all(np.abs(stacked.mean(axis=0)) <= 1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mdata.fit_normalizer([])

    def test_apply_preserves_shape(self, rng):
        norm = mdata.Normalizer(np.zeros(6), np.ones(6))
        x = rng.normal(size=(7, 6))
        assert norm.apply(x).shape == x.shape


class TestMotionFileIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        seq = mdata.MotionSequence(rng.normal(size=(5, 6)), fps=30.0,
                                   representation="xyz", action_label="walk")
        path = tmp_path / "seq.mseq"
        mdata.save_motion_file(path, seq)
        back = mdata.load_motion_file(path)
        assert np.array_equal(back.frames, seq.frames)
        assert (back.fps, back.representation, back.action_label) == (
            30.0, "xyz", "walk")

    def test_truncated_payload(self, tmp_path, rng):
        seq = mdata.MotionSequence(rng.normal(size=(4, 3)), fps=10.0)
        path = tmp_path / "seq.mseq"
        mdata.save_motion_file(path, seq)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError) as err:
            mdata.load_motion_file(path)
        assert err.value.offset == len(blob[:-8])  # end of the short payload

    def test_bad_dimension_rejected(self, tmp_path):
        header = {"version": 1, "F": 1, "D": 10, "fps": 25.0,
                  "repr": "euler", "label": None}
        path = tmp_path / "bad.mseq"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 80)
        with pytest.raises(ParseError, match="multiple of 3"):
            mdata.load_motion_file(path)

    def test_missing_newline(self, tmp_path):
        path = tmp_path / "bad.mseq"
        path.write_bytes(b'{"version": 1}')
        with pytest.raises(ParseError) as err:
            mdata.load_motion_file(path)
        assert err.value.offset == 14

    def test_non_finite_payload_offset(self, tmp_path):
        header = {"version": 1, "F": 1, "D": 3, "fps": 25.0,
                  "repr": "euler", "label": None}
        head = json.dumps(header).encode() + b"\n"
        payload = np.array([0.0, np.inf, 0.0]).astype("<f8").tobytes()
        path = tmp_path / "bad.mseq"
        path.write_bytes(head + payload)
        with pytest.raises(ParseError) as err:
            mdata.load_motion_file(path)
        assert err.value.offset == len(head) + 8

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), 0.0])
    def test_bad_fps_rejected(self, tmp_path, fps):
        # an infinite frame rate used to reach the euler horizons as inf
        header = {"version": 1, "F": 1, "D": 3, "fps": fps,
                  "repr": "euler", "label": None}
        path = tmp_path / "bad.mseq"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 24)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: header fps"):
            mdata.load_motion_file(path)

    @pytest.mark.parametrize("label", ["walk", "café"], ids=["ascii", "non-ascii"])
    def test_invalid_utf8_in_header_reports_its_offset(self, tmp_path, label):
        head = json.dumps({"label": label, "version": 1, "F": 1, "D": 3, "fps": 25.0,
                           "repr": "euler"}, ensure_ascii=False).encode()
        k = head.index(b'"fps"')
        path = tmp_path / "bad.mseq"
        path.write_bytes(head[:k] + b"\xff" + head[k:] + b"\n" + b"\x00" * 24)
        with pytest.raises(ParseError, match="UTF-8") as err:
            mdata.load_motion_file(path)
        assert err.value.offset == k

    def test_json_error_offset_counts_bytes(self, tmp_path):
        # the decoder reports a character position; a 2-byte character before it
        head = b'{"label": "caf\xc3\xa9", "version": 1, }'
        path = tmp_path / "bad.mseq"
        path.write_bytes(head + b"\n")
        with pytest.raises(ParseError, match="JSON") as err:
            mdata.load_motion_file(path)
        assert err.value.offset == head.index(b"}")

    def test_version_mismatch(self, tmp_path):
        header = {"version": 9, "F": 1, "D": 3, "fps": 25.0,
                  "repr": "euler", "label": None}
        path = tmp_path / "bad.mseq"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 24)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: .* version 9"):
            mdata.load_motion_file(path)


class TestManifest:
    def test_round_trip_resolves_relative_paths(self, tmp_path, rng):
        seqs = [mdata.MotionSequence(rng.normal(size=(3, 3)), fps=25.0)
                for _ in range(2)]
        names = []
        for i, seq in enumerate(seqs):
            name = f"s{i}.mseq"
            mdata.save_motion_file(tmp_path / name, seq)
            names.append(name)
        manifest = tmp_path / "manifest.json"
        mdata.save_manifest(manifest, names)
        loaded = mdata.load_dataset(manifest)
        assert len(loaded) == 2
        for got, want in zip(loaded, seqs):
            assert np.array_equal(got.frames, want.frames)

    @pytest.mark.parametrize("blob", [b'["a.mseq", ', b"", b"\xff\xfe[]"])
    def test_manifest_not_json(self, tmp_path, blob):
        path = tmp_path / "manifest.json"
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            mdata.load_manifest(path)

    def test_bad_manifest_shape(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"files": []}')
        with pytest.raises(ParseError):
            mdata.load_manifest(path)


class TestWriteFile:
    @pytest.mark.parametrize("fmt", [{"indent": 0}, {"indent": 2, "sort_keys": True},
                                     {"sort_keys": True}])
    def test_streamed_json_is_json_dumps_and_a_newline(self, tmp_path, fmt):
        obj = {"b": [1, 2.5, None, True], "a": {"é": "x", "n": 10 ** 30}, "f": 1e-300}
        path = tmp_path / "out.json"
        mdata.write_file(path, mdata.json_parts(obj, **fmt))
        assert path.read_bytes() == (json.dumps(obj, **fmt) + "\n").encode("ascii")

    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        mdata.write_file(path, (bytes([i]) * i for i in range(4)))
        assert path.read_bytes() == b"\x01\x02\x02\x03\x03\x03"


def _file_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, kind) of each call that opens or writes a file:
    kind is "read" or "write" for open(), "json.dump" for json.dump."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                text = "r" if mode is None else getattr(mode, "value", "?")
                writes = not isinstance(text, str) or bool(set(text) & set("wax+?"))
                found.append((scope, "write" if writes else "read"))
            elif name in ("dump", "write_text", "write_bytes"):
                found.append((scope, "json.dump" if name == "dump" else "write"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_every_file_the_program_writes_goes_through_write_file():
    # one writer: an open() for writing anywhere else, or a json.dump, is a second
    src = os.path.dirname(mdata.__file__)
    calls = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                calls.update((name, scope, kind) for scope, kind in _file_calls(fh.read()))
    assert calls == {("cli.py", "parse_config_file", "read"),
                     ("motion_data.py", "read_header_file", "read"),
                     ("motion_data.py", "read_json", "read"),
                     ("motion_data.py", "write_file", "write")}


@pytest.mark.parametrize("source, found", [
    ('def f(p):\n    with open(p, "w") as fh:\n        fh.write("x")\n', [("f", "write")]),
    ('def f(p, m):\n    open(p, mode=m)\n', [("f", "write")]),
    ('def f(p):\n    open(p, "rb")\n    open(p)\n', [("f", "read"), ("f", "read")]),
    ("def f(o, fh):\n    def g():\n        json.dump(o, fh)\n", [("g", "json.dump")]),
    ("def f(p):\n    p.write_text('x')\n", [("f", "write")]),
])
def test_the_writer_scan_sees_each_kind_of_write(source, found):
    assert _file_calls(source) == found
