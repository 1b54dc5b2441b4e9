"""Alternating-direction implicit reference scheme.

A dense-matrix route to the same periodic diffusion operator the
spectral steppers apply in Fourier space.  Conjugating the diagonal
symbol -omega_sq with the transform yields an n x n second-derivative
matrix D, and each step splits into two half steps, each treating one
grid direction implicitly through the factor [I - (dt/2) d D].  The
splitting is second order in dt and every step costs dense matrix
multiplies, so the scheme exists purely as an accuracy and cost
baseline for square two-dimensional single-species runs.

The scheme runs through the shared run loop, ``integrate(...,
scheme="adi")``: this module supplies the stepper, which carries the
physical field and transforms it only for a snapshot or the final
state.  ``adi_integrate`` is the same run on a caller's DiffMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import GridSpec, State
from .models import ModelSpec, default_grid as _default_grid
from .steppers import RunSummary, _check_stage, _Counted, _drive, _Stepper

__all__ = ["DiffMatrix", "build_diff_matrix", "adi_step", "adi_integrate"]


@dataclass(frozen=True)
class _AdiFactors:
    """Matrices reused by every step at one (dt, diffusivity)."""

    dt: float
    implicit_inv: np.ndarray    # [I - (dt/2) d D]^-1, applied from the left
    implicit_inv_t: np.ndarray  # [I - (dt/2) d D^T]^-1, applied from the right
    explicit_left: np.ndarray   # [I + (dt/2) d D]
    explicit_right: np.ndarray  # [I + (dt/2) d D^T]


@dataclass(frozen=True)
class DiffMatrix:
    """Dense second-derivative operator for one periodic direction.

    ``matrix`` rows sum to zero (constants are annihilated) and the
    matrix is symmetric; both hold to rounding by construction.  Step
    factors are built once per (dt, diffusivity) pair and memoized.
    """

    n: int
    half_length: float
    matrix: np.ndarray
    _factors: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def factors(self, dt: float, diffusivity: float = 1.0) -> _AdiFactors:
        key = (float(dt), float(diffusivity))
        got = self._factors.get(key)
        if got is None:
            got = _build_factors(self.matrix, key[0], key[1])
            self._factors[key] = got
        return got


def _build_factors(d_matrix: np.ndarray, dt: float, diffusivity: float) -> _AdiFactors:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    half = (0.5 * dt * diffusivity) * d_matrix
    eye = np.eye(d_matrix.shape[0])
    implicit_inv = np.linalg.inv(eye - half)
    return _AdiFactors(
        dt=dt,
        implicit_inv=implicit_inv,
        implicit_inv_t=np.ascontiguousarray(implicit_inv.T),
        explicit_left=eye + half,
        explicit_right=np.ascontiguousarray((eye + half).T),
    )


def build_diff_matrix(n: int, half_length: float) -> DiffMatrix:
    """Differentiation matrix for d^2/dx^2 on n periodic nodes in [-L, L)."""
    if n < 4 or n % 2:
        raise ValueError(f"differentiation matrix needs even n >= 4, got {n}")
    if half_length <= 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    omega = (np.pi / half_length) * np.concatenate(
        (np.arange(0, n // 2 + 1), np.arange(-n // 2 + 1, 0))
    )
    columns = np.fft.ifft(
        -omega[:, None] ** 2 * np.fft.fft(np.eye(n), axis=0), axis=0
    ).real
    matrix = 0.5 * (columns + columns.T)  # operator is symmetric; discard rounding skew
    # all eigenvalues are -omega^2 <= 0, so [I - (dt/2) d D] is never singular
    assert np.linalg.eigvalsh(matrix).max() <= 1e-8 * omega.max() ** 2
    matrix.setflags(write=False)
    return DiffMatrix(n=n, half_length=float(half_length), matrix=matrix)


def adi_step(u: np.ndarray, reaction, factors: _AdiFactors) -> np.ndarray:
    """One Peaceman-Rachford step of u_t = d (u_xx + u_yy) + F(u).

    The first half treats rows (y direction) implicitly and columns
    explicitly, the second half swaps the roles.  The reaction enters
    the first half as (dt/2) F(u) and the second as the midpoint
    combination (dt/2) [2 F(u_half) - F(u)]; injecting F(u_half) alone
    looks natural but drops the reaction coupling to first order, while
    the midpoint form keeps the whole step second order in dt.  Two
    reaction evaluations per step either way.
    """
    half_dt = 0.5 * factors.dt
    f0 = reaction(u)
    u_half = factors.implicit_inv @ (u @ factors.explicit_right + half_dt * f0)
    f_mid = 2.0 * reaction(u_half) - f0
    return (factors.explicit_left @ u_half + half_dt * f_mid) @ factors.implicit_inv_t


def _adi_problem(model: ModelSpec, grid: GridSpec | None = None) -> str | None:
    """Why the ADI scheme cannot run ``model`` on ``grid`` (default: the
    model's registered grid); None when it can."""
    if grid is None:
        grid = _default_grid(model)
    if grid.dims != 2:
        return "the ADI scheme is two-dimensional only"
    if grid.n[0] != grid.n[1] or grid.half_length[0] != grid.half_length[1]:
        return "the ADI scheme needs a square grid"
    if model.species != 1:
        return f"the ADI scheme handles single-species models, {model.name} has {model.species}"
    return None


def _adi_stepper(spec: ModelSpec, grid: GridSpec, p, dt: float,
                 diff: DiffMatrix | None = None) -> _Stepper:
    """adi_step as a stepper of the shared run loop.  It returns no uhat, so
    a step costs no transform; the seconds spent in the dense half-step
    algebra, the dominant per-step cost, become the run's dense_time."""
    problem = _adi_problem(spec, grid)
    if problem:
        raise ValueError(problem)
    d = spec.diffusivities(p)[0]
    if diff is None:
        diff = build_diff_matrix(grid.n[0], grid.half_length[0])
    factors = diff.factors(dt, d)

    reaction = _Counted(lambda field: np.asarray(spec.reaction(field[None], p))[0])
    dense = _Counted(lambda u, fac: adi_step(u, reaction, fac))

    def advance(y, t, h):
        u = dense(y[0][0], factors if h == dt else diff.factors(h, d))  # own factors if shortened
        _check_stage(u, t + h, "adi step")
        return (u[None], None), h
    return _Stepper(advance, reaction, dense=dense)


def adi_integrate(model: ModelSpec | str, grid: GridSpec | None = None, *,
                  dt: float, t_final: float, snap_every: float | None = None,
                  sink=None, params=None, initial_state: State | None = None,
                  diff: DiffMatrix | None = None) -> RunSummary:
    """``integrate(..., scheme="adi")`` on a prebuilt ``diff`` matrix.

    Passing the same DiffMatrix to several runs reuses its memoized step
    factors.  The summary's ``dense_time`` records the seconds spent
    inside the dense half-step algebra.
    """
    return _drive(model, grid, params, "adi",
                  lambda spec, grid, p: _adi_stepper(spec, grid, p, dt, diff),
                  initial_state, t_final, dt, snap_every, sink)
