"""Field post-processing: spectral upsampling, front tracking, pulse counts.

Upsampling inserts zeros into the middle of the transform (the top of
the positive-frequency block, where the new modes carry no energy) and
scales by the size ratio, so any band-limited field is resampled
exactly at the new nodes.  Front tracking locates threshold crossings
by linear interpolation and fits a speed by least squares over a time
window.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, _broken_bound

__all__ = [
    "FrontTrace",
    "fourier_upsample_1d",
    "fourier_upsample_2d",
    "front_position",
    "trace_front",
    "front_speed",
    "pulse_count",
    "max_abs_error",
]


def _split_index(n: int) -> int:
    # positive-frequency block length; for even n the Nyquist mode
    # (index n/2) stays with the low block, it is not split
    return (n - n % 2) // 2 + 1


def fourier_upsample_1d(field: np.ndarray, new_n: int) -> np.ndarray:
    """Resample a periodic field of length n onto new_n >= n nodes."""
    field = np.asarray(field)
    if field.ndim != 1:
        raise ValueError(f"expected a 1D field, got shape {field.shape}")
    n = field.shape[0]
    if new_n < n:
        raise ValueError(f"cannot shrink: new_n={new_n} < n={n}")
    if new_n == n:
        return field.astype(float, copy=True)
    spectral = np.fft.fft(field)
    hi = _split_index(n)
    padded = np.zeros(new_n, dtype=complex)
    padded[:hi] = spectral[:hi]
    if n - hi:
        padded[new_n - (n - hi):] = spectral[hi:]
    return np.fft.ifft(padded).real * (new_n / n)


def fourier_upsample_2d(field: np.ndarray, new_nx: int, new_ny: int) -> np.ndarray:
    """Resample an (ny, nx) periodic field onto (new_ny, new_nx) nodes."""
    field = np.asarray(field)
    if field.ndim != 2:
        raise ValueError(f"expected a 2D field, got shape {field.shape}")
    ny, nx = field.shape
    if new_nx < nx or new_ny < ny:
        raise ValueError(
            f"cannot shrink: new sizes ({new_ny}, {new_nx}) < ({ny}, {nx})")
    if (new_nx, new_ny) == (nx, ny):
        return field.astype(float, copy=True)
    spectral = np.fft.fft2(field)
    hx, hy = _split_index(nx), _split_index(ny)
    padded = np.zeros((new_ny, new_nx), dtype=complex)
    padded[:hy, :hx] = spectral[:hy, :hx]
    if nx - hx:
        padded[:hy, new_nx - (nx - hx):] = spectral[:hy, hx:]
    if ny - hy:
        padded[new_ny - (ny - hy):, :hx] = spectral[hy:, :hx]
    if (nx - hx) and (ny - hy):
        padded[new_ny - (ny - hy):, new_nx - (nx - hx):] = spectral[hy:, hx:]
    return np.fft.ifft2(padded).real * ((new_nx / nx) * (new_ny / ny))


def _check_threshold(threshold: float) -> None:
    # a nan threshold crosses nothing and an infinite one everything or nothing
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def front_position(u: np.ndarray, grid: GridSpec, threshold: float = 1e-4,
                   direction: str = "right") -> float | None:
    """Locate the threshold crossing of a 1D profile, or None if absent.

    Crossings of a finite ``threshold`` between adjacent nodes are placed
    by linear interpolation; ``direction`` picks the rightmost ("right")
    or leftmost ("left") crossing, matching an outward- or inward-moving
    edge.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")
    _check_threshold(threshold)
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"front tracking needs a 1D profile, got shape {u.shape}")
    x = grid.coords[0]
    s = u - threshold
    crossings = []
    exact = np.flatnonzero(s == 0.0)
    crossings.extend(x[exact])
    sign_change = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    for i in sign_change:
        crossings.append(x[i] + (x[i + 1] - x[i]) * s[i] / (s[i] - s[i + 1]))
    if not crossings:
        return None
    return float(max(crossings) if direction == "right" else min(crossings))


@dataclass(frozen=True)
class FrontTrace:
    """Front positions X(t) at a fixed threshold."""

    times: np.ndarray
    positions: np.ndarray
    threshold: float


def trace_front(states, grid: GridSpec, species: int = 0,
                threshold: float = 1e-4, direction: str = "right") -> FrontTrace:
    """Track the front through a sequence of states (snapshots without a
    crossing are dropped)."""
    _check_threshold(threshold)
    times, positions = [], []
    for state in states:
        pos = front_position(state.u[species], grid, threshold, direction)
        if pos is not None:
            times.append(state.t)
            positions.append(pos)
    return FrontTrace(times=np.asarray(times, dtype=float),
                      positions=np.asarray(positions, dtype=float),
                      threshold=threshold)


def front_speed(trace: FrontTrace, window: tuple[float, float] | None = None) -> float:
    """Least-squares slope of X(t) over the window (default: final half).

    The default window skips the start-up transient; the fit's offset is
    discarded, so the speed is unchanged by shifting all positions.
    """
    if trace.times.size == 0:
        raise ValueError("empty front trace")
    if window is None:
        t0, t1 = trace.times[0], trace.times[-1]
        window = (0.5 * (t0 + t1), t1)
    lo, hi = window
    keep = (trace.times >= lo) & (trace.times <= hi)
    if keep.sum() < 10:
        raise ValueError(
            f"front speed fit needs at least 10 samples in [{lo}, {hi}], "
            f"have {int(keep.sum())}")
    return float(np.polyfit(trace.times[keep], trace.positions[keep], 1)[0])


def pulse_count(v: np.ndarray, floor: float) -> int:
    """Count strict local maxima above floor, with periodic neighbors;
    floor must be positive and finite."""
    if bound := _broken_bound(floor):
        raise ValueError(f"floor must be {bound}, got {floor}")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"pulse counting needs a 1D profile, got shape {v.shape}")
    peaks = (v > np.roll(v, 1)) & (v > np.roll(v, -1)) & (v > floor)
    return int(np.count_nonzero(peaks))


def max_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm difference over all species and grid points."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))
