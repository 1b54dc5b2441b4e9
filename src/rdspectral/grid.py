"""Periodic Fourier collocation grids and transform helpers.

Domains are [-L, L) per axis with evenly spaced nodes x_i = -L + 2*L*i/n.
The forward transform is the plain unnormalized FFT; the inverse carries
the 1/n**dims factor and discards the imaginary part, which keeps
round-off from leaking into the real fields over long integrations.
Two-dimensional fields are stored with x on the last (fastest) axis.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        Wavenumbers per axis in FFT storage order, layout
        (pi/L) * [0, 1, ..., n/2, -n/2 + 1, ..., -1].
    omega_sq : ndarray
        Laplacian symbol sum(omega_axis**2), shaped like a field:
        (n,) in 1D and (ny, nx) in 2D.
    """

    dims: int
    n: tuple[int, ...]
    half_length: tuple[float, ...]
    coords: tuple[np.ndarray, ...]
    omega: tuple[np.ndarray, ...]
    omega_sq: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        # field storage shape: x fastest, so the axis order is reversed
        return tuple(self.n[::-1])

    @property
    def axes(self) -> tuple[int, ...]:
        return tuple(range(-self.dims, 0))

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
    forward transform.  Steppers keep the pair synchronized, taking the
    real part on every inverse transform.
    """

    t: float
    u: np.ndarray
    uhat: np.ndarray

    @property
    def species(self) -> int:
        return self.u.shape[0]


def _even_positive(n: int) -> int:
    n = int(n)
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"grid size must be a positive even integer, got {n}")
    return n


def _axis_arrays(n: int, half_length: float) -> tuple[np.ndarray, np.ndarray]:
    if half_length <= 0:
        raise ValueError(f"half-width must be positive, got {half_length}")
    coords = -half_length + (2.0 * half_length / n) * np.arange(n)
    index = np.concatenate([np.arange(0, n // 2 + 1), np.arange(-n // 2 + 1, 0)])
    omega = (np.pi / half_length) * index
    return coords, omega


def make_grid(n, half_length, dims: int = 1) -> GridSpec:
    """Build a GridSpec.

    ``n`` and ``half_length`` may be scalars (applied to every axis) or
    per-axis sequences ordered x first.
    """
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    ns = tuple(_even_positive(m) for m in (n if np.iterable(n) else [n] * dims))
    ls = tuple(float(l) for l in (half_length if np.iterable(half_length) else [half_length] * dims))
    if len(ns) != dims or len(ls) != dims:
        raise ValueError("per-axis n and half_length must match dims")
    per_axis = [_axis_arrays(m, l) for m, l in zip(ns, ls)]
    coords = tuple(c for c, _ in per_axis)
    omega = tuple(w for _, w in per_axis)
    if dims == 1:
        omega_sq = omega[0] ** 2
    else:
        # storage (ny, nx): omega_sq[j, i] = wx[i]**2 + wy[j]**2
        omega_sq = omega[1][:, None] ** 2 + omega[0][None, :] ** 2
    return GridSpec(dims=dims, n=ns, half_length=ls, coords=coords,
                    omega=omega, omega_sq=omega_sq)


def _check_field(grid: GridSpec, field: np.ndarray) -> None:
    if field.shape[-grid.dims:] != grid.shape:
        raise ValueError(
            f"field shape {field.shape} does not end in grid shape {grid.shape}")


def forward(grid: GridSpec, field: np.ndarray) -> np.ndarray:
    """Unnormalized forward FFT over the grid axes.

    Leading axes (species stacking) pass through untouched.
    """
    field = np.asarray(field)
    _check_field(grid, field)
    return np.fft.fftn(field, axes=grid.axes)


def inverse_real(grid: GridSpec, spectral: np.ndarray) -> np.ndarray:
    """Normalized inverse FFT, imaginary part discarded."""
    spectral = np.asarray(spectral)
    _check_field(grid, spectral)
    return np.fft.ifftn(spectral, axes=grid.axes).real


def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean 2/3-rule mask in FFT storage order (True = keep)."""
    masks = []
    for n in grid.n:
        index = np.concatenate([np.arange(0, n // 2 + 1), np.arange(-n // 2 + 1, 0)])
        masks.append(np.abs(index) <= n // 3)
    if grid.dims == 1:
        return masks[0]
    return masks[1][:, None] & masks[0][None, :]


def state_from_physical(grid: GridSpec, fields, t: float = 0.0) -> State:
    """Stack per-species physical fields into a synchronized State."""
    u = np.stack([np.asarray(f, dtype=float) for f in fields])
    _check_field(grid, u)
    return State(t=float(t), u=u, uhat=forward(grid, u))
