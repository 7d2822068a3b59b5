"""The Epanechnikov kernel, its scaled form, and the rule-of-thumb bandwidth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelError",
    "Bandwidth",
    "epanechnikov",
    "scaled_kernel",
    "rule_of_thumb_bandwidth",
]


class KernelError(ValueError):
    """Invalid kernel or bandwidth configuration."""


def epanechnikov(x):
    """Epanechnikov density 0.75 * (1 - x^2) on (-1, 1), zero outside."""
    x = np.asarray(x, dtype=float)
    # 1 - x^2 <= 0 exactly where |x| >= 1, and fmax sends a NaN to zero too
    out = 0.75 * np.fmax(1.0 - x * x, 0.0)
    return float(out) if out.ndim == 0 else out


def _check_bandwidth(h) -> None:
    """Every bandwidth in ``h``, one float or an array of them, must be finite and positive."""
    if isinstance(h, np.ndarray):
        ok = (h > 0.0) & (h < math.inf)
        if ok.all():
            return
        h = h[~ok][0].item()
    if not (math.isfinite(h) and h > 0.0):
        raise KernelError(f"bandwidth must be positive, got {h!r}")


@dataclass(frozen=True)
class Bandwidth:
    """A resolved bandwidth plus, when rule-of-thumb derived, the pieces it came from."""

    h: float
    varpi: float | None = None
    sigma_v: float | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        _check_bandwidth(self.h)


def scaled_kernel(u, v, h):
    """K((u - v) / h) / h: the bandwidth-h kernel weight of u at center v.

    Integrates to one in u for any center and any positive bandwidth. ``h``
    broadcasts like ``u`` and ``v``, so each pair may have its own bandwidth.
    """
    _check_bandwidth(h)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = epanechnikov((u - v) / h) / h
    return float(out) if np.ndim(out) == 0 else out


def rule_of_thumb_bandwidth(observed_marks, varpi: float = 1.0) -> Bandwidth:
    """h = varpi * sd(marks) * m^(-1/4) from the m observed (uncensored) marks.

    The sample standard deviation uses the m - 1 denominator. Fails when
    m < 2 or when all observed marks coincide, since no data-driven scale
    exists; pass an explicit bandwidth in that case.
    """
    marks = np.asarray(observed_marks, dtype=float)
    m = int(marks.size)
    if m < 2:
        raise KernelError(f"need at least 2 observed marks for a bandwidth, got {m}")
    # a non-finite mark makes the sum non-finite, so only then are the marks scanned
    total = np.add.reduce(marks, axis=None)
    if not math.isfinite(total) and not np.isfinite(marks).all():
        raise KernelError("observed marks must be finite")
    if not (math.isfinite(varpi) and varpi > 0.0):
        raise KernelError(f"bandwidth scale must be positive, got {varpi!r}")
    # the ufunc steps np.std(ddof=1) runs, without its dispatch: mean, centred
    # squares, their sum over m - 1, square root; so the result is bitwise np.std's
    deviations = marks - total / m
    np.multiply(deviations, deviations, out=deviations)
    sigma_v = float(np.sqrt(np.add.reduce(deviations, axis=None) / (m - 1)))
    if sigma_v == 0.0:
        raise KernelError("observed marks have zero variance; supply an explicit bandwidth")
    return Bandwidth(h=varpi * sigma_v * m ** (-0.25), varpi=varpi, sigma_v=sigma_v, m=m)
