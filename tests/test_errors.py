"""The count and frame-rate rules: what each accepts and what it rejects."""

import math

import numpy as np
import pytest

from motion_diffusion.errors import ParseError, check_count, check_frame_rate


@pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(1), 10 ** 400])
def test_count_accepts_integers(value):
    assert check_count(value, 1, "n", ParseError) == value
    assert type(check_count(value, 1, "n", ParseError)) is int


@pytest.mark.parametrize("value", [0, -1, True, np.bool_(True), 2.0, np.float64(2),
                                   "2", None, [2]])
def test_count_rejects_everything_else(value):
    with pytest.raises(ParseError, match="n must be a positive integer"):
        check_count(value, 1, "n", ParseError)


@pytest.mark.parametrize("value", [25, 25.0, np.float32(29.97), 5e-324, 1.7e308])
def test_frame_rate_accepts_positive_finite_reals(value):
    assert check_frame_rate(value, "fps", ParseError) == float(value)


@pytest.mark.parametrize("value", [0, -25.0, math.nan, math.inf, np.float32(math.inf),
                                   10 ** 400, True, np.bool_(True), "25", None])
def test_frame_rate_rejects_everything_else(value):
    with pytest.raises(ParseError, match="fps must be a positive, finite number"):
        check_frame_rate(value, "fps", ParseError)
