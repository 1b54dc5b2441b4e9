"""Periodic Fourier collocation grids and transform helpers.

Domains are [-L, L) per axis with evenly spaced nodes x_i = -L + 2*L*i/n.
Every field is real, so its spectrum is Hermitian and only half of it is
stored.  Two-dimensional fields are stored with x on the last (fastest)
axis, so x is the halved axis: a field of shape (ny, nx) has a spectrum of
shape (ny, nx//2 + 1), and a 1D field of length n one of length n//2 + 1.

The forward transform is unnormalized: ``rfft`` over x, which keeps the
nonnegative x wavenumbers 0..nx/2, then, in 2D, ``fft`` over y, run in
place on the ``rfft`` result so a 2D transform allocates one spectrum,
not two.  The inverse runs ``ifft`` over y (in 2D), then ``irfft(n=nx)``
over x, each carrying its 1/n factor, and returns a real field.  These
are the one-axis calls ``rfftn``/``irfftn`` make, in the same order, so
results are bit for bit theirs (the in-place ``fft`` included), without
their per-call argument handling: a 1D transform is a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "State",
    "make_grid",
    "forward",
    "inverse_real",
    "dealias_mask",
    "state_from_physical",
]


@dataclass(frozen=True)
class GridSpec:
    """Collocation grid with precomputed wavenumbers.

    Attributes
    ----------
    dims : int
        1 or 2.
    n : tuple of int
        Points per axis, x first.  Each entry is a positive even integer.
    half_length : tuple of float
        Half-width L per axis, x first; the domain is [-L, L).
    coords : tuple of ndarray
        Node coordinates per axis, x first.
    omega : tuple of ndarray
        Full wavenumber ladder per axis in FFT storage order, layout
        (pi/L) * [0, 1, ..., n/2, -n/2 + 1, ..., -1].
    omega_sq : ndarray
        Laplacian symbol sum(omega_axis**2) on the stored half spectrum,
        shaped like a spectrum (``spectral_shape``): (n//2 + 1,) in 1D,
        over omega[0][:n//2 + 1], and (ny, nx//2 + 1) in 2D, over all of
        omega[1] and omega[0][:nx//2 + 1].
    """

    dims: int
    n: tuple[int, ...]
    half_length: tuple[float, ...]
    coords: tuple[np.ndarray, ...]
    omega: tuple[np.ndarray, ...]
    omega_sq: np.ndarray

    # shape and spectral_shape are built once per grid, as every transform
    # checks its input against one of them
    @cached_property
    def shape(self) -> tuple[int, ...]:
        # field storage shape: x fastest, so the axis order is reversed
        return tuple(self.n[::-1])

    @cached_property
    def spectral_shape(self) -> tuple[int, ...]:
        # half spectrum of a real field: x, stored last, keeps modes 0..nx/2
        return self.shape[:-1] + (self.n[0] // 2 + 1,)

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays broadcastable to a field."""
        if self.dims == 1:
            return (self.coords[0],)
        x, y = self.coords
        return x[None, :], y[:, None]


@dataclass(frozen=True)
class State:
    """Solution snapshot: synchronized physical and spectral fields.

    ``u`` is real with shape (species, *grid.shape); ``uhat`` is its
    forward transform, the half spectrum of shape
    (species, *grid.spectral_shape).  Steppers keep the pair synchronized.
    """

    t: float
    u: np.ndarray
    uhat: np.ndarray

    @property
    def species(self) -> int:
        return self.u.shape[0]


def _broken_bound(value: float, nonnegative: bool = False) -> str | None:
    """The bound a run setting breaks: "positive" (or "nonnegative") when
    it is not above (at least) zero, NaN included, "finite" when it is
    infinite; None when it breaks neither."""
    if not (value >= 0 if nonnegative else value > 0):
        return "nonnegative" if nonnegative else "positive"
    return "finite" if value == np.inf else None


def _grid_problems(ns, ls) -> list[str]:
    """Every problem with the per-axis sizes ``ns`` and half-widths ``ls``,
    each once, read from the values as given: a size must be an even
    integer >= 2 and a half-width positive and finite.  None stands for a
    default and is not checked."""
    problems = [f"n must be even and >= 2, got {m}"
                for m in ns if m is not None and not (m >= 2 and m % 2 == 0)]
    problems += [f"L must be {bound}, got {l}"
                 for l in ls if l is not None and (bound := _broken_bound(l))]
    return list(dict.fromkeys(problems))


def _modes(n: int) -> np.ndarray:
    """Integer mode numbers in FFT storage order: 0, 1, ..., n/2, -n/2 + 1, ..., -1."""
    return np.concatenate([np.arange(0, n // 2 + 1), np.arange(-n // 2 + 1, 0)])


def make_grid(n, half_length, dims: int = 1) -> GridSpec:
    """Build a GridSpec.

    ``n`` and ``half_length`` may be scalars (applied to every axis) or
    per-axis sequences ordered x first.  Every size and half-width that
    ``_grid_problems`` refuses is named in one ValueError.
    """
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    ns = tuple(n) if np.iterable(n) else (n,) * dims
    ls = tuple(half_length) if np.iterable(half_length) else (half_length,) * dims
    if len(ns) != dims or len(ls) != dims:
        raise ValueError("per-axis n and half_length must match dims")
    if problems := _grid_problems(ns, ls):
        raise ValueError("; ".join(problems))
    ns, ls = tuple(int(m) for m in ns), tuple(float(l) for l in ls)
    coords = tuple(-l + (2.0 * l / m) * np.arange(m) for m, l in zip(ns, ls))
    omega = tuple((np.pi / l) * _modes(m) for m, l in zip(ns, ls))
    wx = omega[0][: ns[0] // 2 + 1]
    if dims == 1:
        omega_sq = wx ** 2
    else:
        # storage (ny, nx//2 + 1): omega_sq[j, i] = wx[i]**2 + wy[j]**2
        omega_sq = omega[1][:, None] ** 2 + wx[None, :] ** 2
    return GridSpec(dims=dims, n=ns, half_length=ls, coords=coords,
                    omega=omega, omega_sq=omega_sq)


def _check_field(grid: GridSpec, field: np.ndarray) -> None:
    if field.shape[-grid.dims:] != grid.shape:
        raise ValueError(
            f"field shape {field.shape} does not end in grid shape {grid.shape}")


def forward(grid: GridSpec, field: np.ndarray) -> np.ndarray:
    """Unnormalized real-to-complex FFT over the grid axes: the half
    spectrum, shaped (..., *grid.spectral_shape).

    Leading axes (species stacking) pass through untouched.  The result
    is a fresh array, and ``field`` is left as it was.
    """
    field = np.asarray(field)
    _check_field(grid, field)
    spectral = np.fft.rfft(field)
    if grid.dims == 2:
        np.fft.fft(spectral, axis=-2, out=spectral)
    return spectral


def inverse_real(grid: GridSpec, spectral: np.ndarray) -> np.ndarray:
    """Normalized inverse of ``forward``: the real field of a half spectrum."""
    spectral = np.asarray(spectral)
    if spectral.shape[-grid.dims:] != grid.spectral_shape:
        raise ValueError(f"spectrum shape {spectral.shape} does not end in grid "
                         f"spectral shape {grid.spectral_shape}")
    if grid.dims == 2:
        spectral = np.fft.ifft(spectral, axis=-2)
    return np.fft.irfft(spectral, n=grid.n[0])


def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean 2/3-rule mask on the half spectrum (True = keep 3|k| < n).
    It removes all aliasing only from quadratic products: a cubic one
    needs the cut below n/4, and a non-polynomial rate has no such cut."""
    masks = [3 * np.abs(_modes(n)) < n for n in grid.n]
    masks[0] = masks[0][: grid.n[0] // 2 + 1]
    if grid.dims == 1:
        return masks[0]
    return masks[1][:, None] & masks[0][None, :]


def state_from_physical(grid: GridSpec, fields, t: float = 0.0) -> State:
    """Stack per-species physical fields into a synchronized State."""
    u = np.stack([np.asarray(f, dtype=float) for f in fields])
    _check_field(grid, u)
    return State(t=float(t), u=u, uhat=forward(grid, u))
