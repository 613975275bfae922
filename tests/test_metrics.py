"""Sample-set metrics against brute-force oracles written out longhand."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motion_diffusion as md
from motion_diffusion.errors import (ContractError, DimensionError,
                                     UndefinedMetricError)
from motion_diffusion.metrics import METRIC_COLUMNS, wrap_angle, write_report_csv


# --- oracles: double loops, no vectorization, no shared helpers ------------


def oracle_apd(samples):
    n = len(samples)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            sq = 0.0
            for l in range(samples.shape[1]):
                for d in range(samples.shape[2]):
                    sq += (samples[i, l, d] - samples[j, l, d]) ** 2
            total += math.sqrt(sq)
    return total / (n * (n - 1))


def oracle_des(samples, gt):
    dists = []
    for i in range(len(samples)):
        sq = 0.0
        for l in range(samples.shape[1]):
            for d in range(samples.shape[2]):
                sq += (samples[i, l, d] - gt[l, d]) ** 2
        dists.append(math.sqrt(sq) / samples.shape[1])
    mean = sum(dists) / len(dists)
    var = sum((x - mean) ** 2 for x in dists) / len(dists)
    return min(dists), mean, math.sqrt(var)


def oracle_fdes(samples, gt):
    dists = []
    for i in range(len(samples)):
        sq = 0.0
        for d in range(samples.shape[2]):
            sq += (samples[i, -1, d] - gt[-1, d]) ** 2
        dists.append(math.sqrt(sq))
    mean = sum(dists) / len(dists)
    var = sum((x - mean) ** 2 for x in dists) / len(dists)
    return min(dists), mean, math.sqrt(var)


def random_set(rng, n=None, l=None, d=None):
    n = n or int(rng.integers(2, 8))
    l = l or int(rng.integers(1, 6))
    d = d or int(rng.integers(1, 7))
    return md.SampleSet(samples=rng.normal(size=(n, l, d)),
                        ground_truth=rng.normal(size=(l, d)))


class TestAgainstOracles:
    def test_hundred_random_sets_agree(self, rng):
        worst = 0.0
        for _ in range(100):
            s = random_set(rng)
            got = (md.apd(s), *md.displacement_errors(s),
                   *md.final_displacement_errors(s))
            want = (oracle_apd(s.samples), *oracle_des(s.samples, s.ground_truth),
                    *oracle_fdes(s.samples, s.ground_truth))
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
        assert worst < 1e-9


class TestApd:
    def test_identical_samples_have_zero_diversity(self):
        s = md.SampleSet(samples=np.tile(np.arange(6.0).reshape(2, 3), (4, 1, 1)))
        assert md.apd(s) == 0.0

    def test_two_sample_hand_value(self):
        s = md.SampleSet(samples=np.stack([np.zeros((2, 3)), np.ones((2, 3))]))
        assert md.apd(s) == pytest.approx(math.sqrt(6.0), abs=1e-15)

    def test_single_sample_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            md.apd(md.SampleSet(samples=np.zeros((1, 2, 3))))

    def test_distinct_samples_give_positive_diversity(self, rng):
        s = md.SampleSet(samples=rng.normal(size=(5, 3, 2)))
        assert md.apd(s) > 0.0


class TestDisplacement:
    def test_hand_value_with_horizon_factor(self):
        gt = np.zeros((2, 3))
        s = md.SampleSet(samples=np.ones((1, 2, 3)), ground_truth=gt)
        mde, ade, sde = md.displacement_errors(s)
        assert mde == ade == pytest.approx(math.sqrt(6.0) / 2.0, abs=1e-15)
        assert sde == 0.0

    def test_final_frame_hand_value(self):
        gt = np.zeros((2, 3))
        samples = np.zeros((1, 2, 3))
        samples[0, -1] = [3.0, 4.0, 0.0]
        s = md.SampleSet(samples=samples, ground_truth=gt)
        mfde, afde, sfde = md.final_displacement_errors(s)
        assert (mfde, afde, sfde) == (5.0, 5.0, 0.0)

    def test_one_frame_horizon_collapses_de_onto_fde(self, rng):
        s = random_set(rng, l=1)
        np.testing.assert_allclose(md.displacement_errors(s),
                                   md.final_displacement_errors(s), atol=1e-15)

    def test_min_below_mean(self, rng):
        for _ in range(20):
            s = random_set(rng)
            mde, ade, _ = md.displacement_errors(s)
            mfde, afde, _ = md.final_displacement_errors(s)
            assert mde <= ade and mfde <= afde

    def test_requires_ground_truth(self, rng):
        s = md.SampleSet(samples=rng.normal(size=(3, 2, 2)))
        with pytest.raises(ContractError):
            md.displacement_errors(s)
        with pytest.raises(ContractError):
            md.final_displacement_errors(s)


class TestInvariances:
    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sample_order_is_irrelevant(self, seed):
        rng = np.random.default_rng(seed)
        s = random_set(rng)
        perm = rng.permutation(s.n_samples)
        p = md.SampleSet(samples=s.samples[perm], ground_truth=s.ground_truth)
        assert md.apd(p) == pytest.approx(md.apd(s), rel=1e-12)
        assert md.displacement_errors(p) == pytest.approx(
            md.displacement_errors(s), rel=1e-12)
        assert md.final_displacement_errors(p) == pytest.approx(
            md.final_displacement_errors(s), rel=1e-12)

    @given(seed=st.integers(0, 2 ** 31 - 1),
           shift=st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_common_translation_is_irrelevant(self, seed, shift):
        rng = np.random.default_rng(seed)
        s = random_set(rng)
        t = md.SampleSet(samples=s.samples + shift,
                         ground_truth=s.ground_truth + shift)
        assert md.apd(t) == pytest.approx(md.apd(s), abs=1e-9)
        assert md.displacement_errors(t) == pytest.approx(
            md.displacement_errors(s), abs=1e-9)

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_spreads_are_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        s = random_set(rng)
        assert md.displacement_errors(s)[2] >= 0.0
        assert md.final_displacement_errors(s)[2] >= 0.0


class TestAngleWrap:
    def test_fixed_points(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(0.5) == 0.5
        assert wrap_angle(-0.3) == pytest.approx(-0.3, abs=1e-15)
        assert wrap_angle(np.pi) == np.pi

    def test_interval_is_open_below(self):
        # -pi lands on +pi: the interval is (-pi, pi]
        assert wrap_angle(-np.pi) == np.pi

    def test_overflow_wraps_negative(self):
        assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1, abs=1e-12)

    def test_full_turn_is_identity(self):
        assert wrap_angle(2.0 * np.pi) == 0.0
        d = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(wrap_angle(d + 2 * np.pi), d, atol=1e-12)


class TestEulerMse:
    def test_small_offset_squares(self):
        gt = np.zeros((4, 3))
        pred = gt.copy()
        pred[1] = 0.2
        out = md.euler_mse(pred, gt, fps=25.0, horizons_ms=[80])
        assert out == {80: pytest.approx(0.04, abs=1e-15)}

    def test_full_turn_scores_zero(self):
        gt = np.zeros((4, 3))
        out = md.euler_mse(gt + 2 * np.pi, gt, fps=25.0, horizons_ms=[80, 160])
        assert out[80] == 0.0 and out[160] == 0.0

    def test_horizon_frame_rounding(self):
        # frame = round(ms * fps / 1000), half away from zero, 1-based
        gt = np.arange(12.0).reshape(4, 3) * 0.01
        pred = gt.copy()
        pred[1] += 0.1  # frame 2
        out = md.euler_mse(pred, gt, fps=25.0, horizons_ms=[60, 80])
        # 60ms * 25fps = 1.5 frames, rounds up to frame 2, same as 80ms
        assert out[60] == out[80] == pytest.approx(0.01, abs=1e-15)
        assert md.euler_mse(pred, gt, 25.0, [50])[50] == 0.0  # frame 1

    def test_out_of_range_horizons_omitted(self):
        gt = np.zeros((4, 3))
        out = md.euler_mse(gt, gt, fps=25.0,
                           horizons_ms=[10, 80, 1000, 10 ** 308, 10 ** 400, -10 ** 400])
        # 10ms rounds to frame 0; 1000ms needs frame 25 > 4; the huge ones
        # select no frame, and no float holds them
        assert sorted(out) == [80]

    def test_every_horizon_inside_the_frames_kept(self):
        # at 25 fps frames 1..4 are the horizons 20..179 ms (half frames round up)
        gt = np.zeros((4, 3))
        assert sorted(md.euler_mse(gt, gt, 25.0, range(-5, 400))) == list(range(20, 180))

    @given(fps=st.floats(min_value=5e-324, allow_infinity=False),
           horizons=st.lists(st.integers(-10 ** 400, 10 ** 400) | st.integers(-50, 5000),
                             max_size=6),
           frames=st.integers(1, 6))
    @example(fps=1e-310, horizons=[10 ** 400], frames=4)
    @example(fps=5e-324, horizons=[10 ** 326, 3 * 10 ** 326, 10 ** 400], frames=4)
    @settings(max_examples=200, deadline=None)
    def test_any_horizon_at_any_frame_rate(self, fps, horizons, frames):
        # oracle: the frame j in 1..L whose half-open interval
        # [j - 1/2, j + 1/2) holds ms * fps / 1000, in exact rationals
        def selects_a_frame(ms):
            t = Fraction(ms) * Fraction(fps) / 1000
            return any(j - Fraction(1, 2) <= t < j + Fraction(1, 2)
                       for j in range(1, frames + 1))
        gt = np.zeros((frames, 3))
        out = md.euler_mse(gt, gt, fps, horizons)
        assert set(out) == {ms for ms in horizons if selects_a_frame(ms)}

    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            md.euler_mse(np.zeros((4, 3)), np.zeros((3, 4)), 25.0, [80])


class TestSampleSet:
    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ContractError):
            md.SampleSet(samples=bad)

    def test_rejects_mismatched_ground_truth(self):
        with pytest.raises(DimensionError):
            md.SampleSet(samples=np.zeros((2, 3, 2)), ground_truth=np.zeros((2, 2)))

    def test_rejects_flat_samples(self):
        with pytest.raises(DimensionError):
            md.SampleSet(samples=np.zeros((3, 2)))

    def test_rejects_bad_fps(self):
        with pytest.raises(ContractError):
            md.SampleSet(samples=np.zeros((2, 2, 2)), fps=0.0)


class TestReport:
    def make_reports(self, rng, n_tasks=3, horizons=(80, 160)):
        rows = []
        for i in range(n_tasks):
            s = md.SampleSet(samples=rng.normal(size=(4, 5, 3)),
                             ground_truth=rng.normal(size=(5, 3)), fps=25.0)
            rep = md.compute_report(s, deterministic_pred=rng.normal(size=(5, 3)),
                                    horizons_ms=horizons)
            rows.append((f"task{i}", rep))
        return rows

    def test_euler_requires_all_ingredients(self, rng):
        s = md.SampleSet(samples=rng.normal(size=(3, 5, 2)),
                         ground_truth=rng.normal(size=(5, 2)), fps=25.0)
        det = rng.normal(size=(5, 2))
        assert md.compute_report(s, det, (80,)).euler_mse_by_horizon
        assert not md.compute_report(s, None, (80,)).euler_mse_by_horizon
        assert not md.compute_report(s, det, ()).euler_mse_by_horizon
        no_fps = md.SampleSet(samples=s.samples, ground_truth=s.ground_truth)
        assert not md.compute_report(no_fps, det, (80,)).euler_mse_by_horizon

    def test_csv_layout_and_aggregate(self, rng, tmp_path):
        rows = self.make_reports(rng)
        path = tmp_path / "metrics.csv"
        write_report_csv(rows, path)
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["task", *METRIC_COLUMNS,
                            "euler_mse_80ms", "euler_mse_160ms"]
        assert [r[0] for r in table[1:]] == ["task0", "task1", "task2", "mean"]
        body = np.array([[float(x) for x in r[1:]] for r in table[1:-1]])
        agg = np.array([float(x) for x in table[-1][1:]])
        np.testing.assert_allclose(agg, body.mean(axis=0), rtol=1e-9)

    def test_csv_rerun_is_byte_identical(self, rng, tmp_path):
        rows = self.make_reports(rng)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(rows, a)
        write_report_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_mismatched_horizons_rejected(self, rng, tmp_path):
        rows = self.make_reports(rng, horizons=(80,))
        rows += self.make_reports(rng, n_tasks=1, horizons=(80, 160))
        with pytest.raises(ContractError):
            write_report_csv(rows, tmp_path / "bad.csv")

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_report_csv([], tmp_path / "bad.csv")
