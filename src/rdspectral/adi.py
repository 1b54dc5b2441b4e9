"""Alternating-direction implicit reference scheme.

A dense-matrix route to the same periodic diffusion operator the
spectral steppers apply in Fourier space.  Conjugating the diagonal
symbol -omega_sq with the transform yields an n x n second-derivative
matrix D, and each step splits into two half steps, each treating one
grid direction implicitly through the factor [I - (dt/2) d D].  The
splitting is second order in dt and every step costs dense matrix
multiplies, so the scheme exists purely as an accuracy and cost
baseline for square two-dimensional single-species runs.

This module holds the dense algebra, which the package does not export:
the matrix, its step factors and one step.  The run itself is
``integrate(..., scheme="adi")`` in the shared run loop, which carries
the physical field and transforms it only for a snapshot or the final
state; ``adi_integrate``, the module's one public name, is that call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# steppers imports this module for the algebra; adi_integrate looks up
# steppers.integrate only when called, so the two modules import cleanly
from . import steppers
from .grid import GridSpec, State, _broken_bound, _modes
from .models import ModelSpec

__all__ = ["adi_integrate"]


@dataclass(frozen=True)
class _AdiFactors:
    """Matrices reused by every step at one (dt, diffusivity)."""

    dt: float
    implicit_inv: np.ndarray    # [I - (dt/2) d D]^-1, applied from the left
    implicit_inv_t: np.ndarray  # [I - (dt/2) d D^T]^-1, applied from the right
    explicit_left: np.ndarray   # [I + (dt/2) d D]; D is symmetric, so also applied from the right


@dataclass(frozen=True)
class DiffMatrix:
    """Dense second-derivative operator for one periodic direction.

    ``matrix`` rows sum to zero (constants are annihilated) and the
    matrix is symmetric; both hold to rounding by construction.
    ``factors`` builds the step factors of one (dt, diffusivity) pair; a
    run builds them once per step size and keeps them itself.
    """

    n: int
    matrix: np.ndarray

    def factors(self, dt: float, diffusivity: float = 1.0) -> _AdiFactors:
        if bound := _broken_bound(dt):
            raise ValueError(f"dt must be {bound}, got {dt}")
        half = (0.5 * dt * diffusivity) * self.matrix
        eye = np.eye(self.n)
        implicit_inv = np.linalg.inv(eye - half)
        return _AdiFactors(
            dt=dt,
            implicit_inv=implicit_inv,
            implicit_inv_t=np.ascontiguousarray(implicit_inv.T),
            explicit_left=eye + half,
        )


def build_diff_matrix(n: int, half_length: float) -> DiffMatrix:
    """Differentiation matrix for d^2/dx^2 on n periodic nodes in [-L, L)."""
    if n < 4 or n % 2:
        raise ValueError(f"differentiation matrix needs even n >= 4, got {n}")
    if bound := _broken_bound(half_length):
        raise ValueError(f"half_length must be {bound}, got {half_length}")
    omega = (np.pi / half_length) * _modes(n)
    columns = np.fft.ifft(
        -omega[:, None] ** 2 * np.fft.fft(np.eye(n), axis=0), axis=0
    ).real
    matrix = 0.5 * (columns + columns.T)  # operator is symmetric; discard rounding skew
    # all eigenvalues are -omega^2 <= 0, so [I - (dt/2) d D] is never singular
    assert np.linalg.eigvalsh(matrix).max() <= 1e-8 * omega.max() ** 2
    matrix.setflags(write=False)
    return DiffMatrix(n=n, matrix=matrix)


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
    u_half = factors.implicit_inv @ (u @ factors.explicit_left + half_dt * f0)
    f_mid = 2.0 * reaction(u_half) - f0
    return (factors.explicit_left @ u_half + half_dt * f_mid) @ factors.implicit_inv_t


def adi_integrate(model: ModelSpec | str, grid: GridSpec | None = None, *,
                  dt: float, t_final: float, snap_every: float | None = None,
                  sink=None, params=None,
                  initial_state: State | None = None) -> steppers.RunSummary:
    """``integrate(..., scheme="adi")``.  The summary's ``dense_time``
    records the seconds spent inside the dense half-step algebra."""
    return steppers.integrate(model, grid, scheme="adi", dt=dt, t_final=t_final,
                              snap_every=snap_every, sink=sink, params=params,
                              initial_state=initial_state)
