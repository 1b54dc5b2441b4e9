"""Independent reference integrators for the benchmark's checks.

Both loops are written from the formulas with numpy alone.  They import
nothing from rdspectral, build their own wavenumbers and exponentials,
and evaluate the phi functions by a different method (Taylor series near
the origin) than the package's contour mean, so agreement with the
package is evidence that the package steps the equations correctly.

Grids follow the package's layout: nodes x_i = -L + 2 L i / n, fields
stacked (species, ...) with x on the last axis.
"""

from __future__ import annotations

import math

import numpy as np


def nodes(n: int, half_length: float) -> np.ndarray:
    return -half_length + (2.0 * half_length / n) * np.arange(n)


def wavenumbers(n: int, half_length: float) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2 - 1, -n/2, ..., -1
    k[n // 2] = n // 2                # the Nyquist mode's sign does not matter for k**2
    return (np.pi / half_length) * k


def gray_rates(u: np.ndarray, A: float, B: float) -> np.ndarray:
    uvv = u[0] * u[1] * u[1]
    return np.stack([-uvv + A * (1.0 - u[0]), uvv - B * u[1]])


def gray_groups(a: float, b: float, eps: float) -> tuple[float, float]:
    """The Gray-Scott rates A = eps a and B = eps**(1/3) b."""
    return eps * a, eps ** (1.0 / 3.0) * b


def labyrinthine_rates(u: np.ndarray, a0: float, a1: float, delta: float) -> np.ndarray:
    return np.stack([u[0] - u[0] ** 3 - u[1], delta * (u[0] - a1 * u[1] - a0)])


def if_rk4_2d(u0: np.ndarray, half_length: float, dt: float, steps: int,
              diffusivities: tuple[float, ...], rates) -> np.ndarray:
    """Integrating-factor RK4 for u_t = D lap(u) + rates(u) in 2D.

    v = exp(-t L) uhat turns u_t = L u + N(u) into v_t = exp(-t L) N;
    classical RK4 on v, written back in terms of uhat, gives the loop
    below with E = exp(L dt / 2).
    """
    n = u0.shape[-1]
    w = wavenumbers(n, half_length)
    ksq = w[None, :] ** 2 + w[:, None] ** 2
    E = np.stack([np.exp(-0.5 * dt * d * ksq) for d in diffusivities])
    E2 = E * E
    u = np.array(u0, dtype=float)
    uhat = np.fft.fft2(u)
    for _ in range(steps):
        k1 = dt * np.fft.fft2(rates(u))
        k2 = dt * np.fft.fft2(rates(np.fft.ifft2(E * (uhat + 0.5 * k1)).real))
        k3 = dt * np.fft.fft2(rates(np.fft.ifft2(E * uhat + 0.5 * k2).real))
        k4 = dt * np.fft.fft2(rates(np.fft.ifft2(E2 * uhat + E * k3).real))
        uhat = E2 * uhat + (E2 * k1 + 2.0 * E * (k2 + k3) + k4) / 6.0
        u = np.fft.ifft2(uhat).real
    return u


def phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_1, phi_2, phi_3 of real z <= 0 (phi_k(z) = sum_j z**j / (j + k)!).

    For |z| < 1 the series, summed to 25 terms, is exact to rounding;
    elsewhere the closed forms (e^z - 1)/z, (e^z - 1 - z)/z**2 and
    (e^z - 1 - z - z**2/2)/z**3 lose at most a few digits.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    series = []
    for k in (1, 2, 3):
        acc = np.zeros_like(z)
        for j in range(24, -1, -1):
            acc = acc * zs + 1.0 / math.factorial(j + k)
        series.append(acc)
    zb = np.where(small, 1.0, z)
    e = np.exp(zb)
    closed = ((e - 1.0) / zb,
              (e - 1.0 - zb) / zb ** 2,
              (e - 1.0 - zb - 0.5 * zb ** 2) / zb ** 3)
    return tuple(np.where(small, s, c) for s, c in zip(series, closed))


def krogstad_etdrk4_1d(u0: np.ndarray, half_length: float, dt: float, steps: int,
                       eps: float, A: float, B: float) -> np.ndarray:
    """Krogstad's fourth-order ETD Runge-Kutta scheme for 1D Gray-Scott.

    In the notation of Hochbruck & Ostermann (Acta Numerica 2010) with
    nodes c = (0, 1/2, 1/2, 1) and phi_{i,j} = phi_i(c_j h L):
      a21 = phi_{1,2}/2
      a31 = phi_{1,3}/2 - phi_{2,3},  a32 = phi_{2,3}
      a41 = phi_{1,4} - 2 phi_{2,4},  a43 = 2 phi_{2,4}
      b1 = phi_1 - 3 phi_2 + 4 phi_3,  b2 = b3 = 2 phi_2 - 4 phi_3,
      b4 = 4 phi_3 - phi_2.
    """
    n = u0.shape[-1]
    ksq = wavenumbers(n, half_length) ** 2
    z = dt * np.stack([-ksq, -eps * ksq])
    p1, p2, p3 = phi_functions(z)
    h1, h2, _ = phi_functions(0.5 * z)
    E, Eh = np.exp(z), np.exp(0.5 * z)
    a21 = 0.5 * h1
    a31, a32 = 0.5 * h1 - h2, h2
    a41, a43 = p1 - 2.0 * p2, 2.0 * p2
    b1, b23, b4 = p1 - 3.0 * p2 + 4.0 * p3, 2.0 * p2 - 4.0 * p3, 4.0 * p3 - p2

    def N(uhat):
        return np.fft.fft(gray_rates(np.fft.ifft(uhat).real, A, B))

    uhat = np.fft.fft(np.array(u0, dtype=float))
    for _ in range(steps):
        N1 = N(uhat)
        N2 = N(Eh * uhat + dt * a21 * N1)
        N3 = N(Eh * uhat + dt * (a31 * N1 + a32 * N2))
        N4 = N(E * uhat + dt * (a41 * N1 + a43 * N3))
        uhat = E * uhat + dt * (b1 * N1 + b23 * (N2 + N3) + b4 * N4)
    return np.fft.ifft(uhat).real


def gray1d_initial(n: int, half_length: float) -> np.ndarray:
    """u = 1 - s/2, v = s/4 with s = sin(pi (x - L) / (2 L))**100."""
    x = nodes(n, half_length)
    s = np.sin(np.pi * (x - half_length) / (2.0 * half_length)) ** 100
    return np.stack([1.0 - 0.5 * s, 0.25 * s])


def gray2d_initial(n: int, half_length: float) -> np.ndarray:
    """u = 1 - s/2, v = s/4 with s = exp(-(x**2 + y**2) / 20)."""
    x = nodes(n, half_length)
    s = np.exp(-(x[None, :] ** 2 + x[:, None] ** 2) / 20.0)
    return np.stack([1.0 - 0.5 * s, 0.25 * s])


def labyrinthe2d_initial(n: int, half_length: float, a0: float, a1: float) -> np.ndarray:
    """A Gaussian seed, stretched along y, on the rest state (u-, v-)."""
    u_minus, v_minus = rest_state(a0, a1)
    x = nodes(n, half_length)
    s = np.exp(-0.1 * (x[None, :] ** 2 + 0.01 * x[:, None] ** 2))
    return np.stack([a1 * v_minus + a0 - 4.0 * a1 * v_minus * s, v_minus - 2.0 * v_minus * s])


def rest_state(a0: float, a1: float) -> tuple[float, float]:
    """Uniform rest state (u-, v-) of the labyrinthine kinetics.

    u- is the smallest real root of a1 u**3 + (1 - a1) u - a0 = 0, found
    by bisection left of the cubic's left turning point (for a1 > 1),
    and v- = (u- - a0) / a1 makes the second rate vanish.
    """
    def f(u):
        return a1 * u ** 3 + (1.0 - a1) * u - a0
    hi = -math.sqrt((a1 - 1.0) / (3.0 * a1)) if a1 > 1.0 else 10.0
    lo = -10.0
    if f(lo) > 0.0 or f(hi) < 0.0:
        raise ValueError(f"no rest state left of u={hi} for a0={a0}, a1={a1}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    u = 0.5 * (lo + hi)
    return u, (u - a0) / a1
