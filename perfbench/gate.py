"""Correctness gate: counts operations and the ones whose outputs fail a check.

Each check returns a list of problems (empty when the output passes), so a
workload collects every problem of one operation before recording it.
"""

from __future__ import annotations

import numpy as np

# Agreement with the reference outputs recorded for the default seed.  The
# arithmetic is float64 throughout; a change that only reorders sums moves
# results by far less than this.
REF_RTOL = 1e-6
REF_ATOL = 1e-9


class Gate:
    """Attempted and failed operation counts plus the problems behind failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str], count: int = 1) -> None:
        """Count `count` operations; they all fail when `problems` is non-empty."""
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def finite(what: str, values) -> list[str]:
    return [] if np.all(np.isfinite(values)) else [f"{what} is not finite"]


def has_shape(what: str, values, shape: tuple) -> list[str]:
    got = np.shape(values)
    return [] if got == tuple(shape) else [f"{what} has shape {got}, expected {tuple(shape)}"]


def same_bytes(what: str, got, want) -> list[str]:
    """Bitwise equality of two arrays, shape and dtype included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    if got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes():
        return []
    return [f"{what} differs bitwise from the earlier result"]


def equal(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: {got!r} != {want!r}"]


def close(what: str, got, want, rtol: float = REF_RTOL, atol: float = REF_ATOL) -> list[str]:
    """Agreement with a reference value within |got - want| <= atol + rtol * |want|."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what} has shape {got.shape}, reference has {want.shape}"]
    dev = np.abs(got - want)
    if np.all(dev <= atol + rtol * np.abs(want)):
        return []
    return [f"{what} deviates from the reference by up to {float(np.max(dev)):.3g} "
            f"(rtol={rtol}, atol={atol})"]


def perturbed(values) -> np.ndarray:
    """A copy of `values` with its first entry moved by one unit in the last place."""
    out = np.array(values, dtype=np.float64)
    flat = out.reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf)
    return out


def negative_control(output) -> bool:
    """True when a fresh gate counts a one-ulp perturbation of `output` as failed."""
    gate = Gate()
    gate.record("negative control", same_bytes("perturbed output", perturbed(output), output))
    return gate.failed == 1
