"""Benchmark reaction-diffusion systems.

Every model solves u_t = grad^2 u + f(u, v), v_t = eps grad^2 v + g(u, v)
on a periodic box; the first species always has unit diffusivity.  Only
the reaction is stepped explicitly, so a model is its kinetics: one
pointwise ``rates(u, p)`` per system (see ModelSpec), which broadcasts over
trailing axes, an ensemble's member axis among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .grid import GridSpec, State, make_grid, state_from_physical

__all__ = [
    "ModelSpec",
    "MODELS",
    "get_model",
    "cubic_root_u_minus",
    "initial_condition",
    "default_grid",
    "default_timestep",
]

_DEFAULT_DT = 0.1  # default_timestep of a model that sets no timestep_of


# -- kinetics: one rates(u, p) per system ----------------------------------
# Run once per stage: species are indexed (unpacking iterates the array, at
# three times the cost), and the association order (e.g. u * (v * v)) is
# fixed so vector and scalar evaluations agree.  Field-sized temporaries
# cost more than their arithmetic on 2D grids, so the two-species kinetics
# that run there fill one fresh output in place, through out[s, ...] views
# (a 0-d field included); the 1D-only ones stack in one np.array([...]).

def _fisher(u, p):
    """Logistic growth u(1 - u)."""
    return u * (1.0 - u)


def _epidemic(uv, p):
    """Infectives u, susceptibles v: rate_u = u(v - lam), rate_v = -uv."""
    u, v = uv[0], uv[1]
    return np.array([u * (v - p["lam"]), -(u * v)])


def _gray(uv, p):
    """Cubic autocatalysis with feed A = eps*a and decay B = eps^(1/3)*b."""
    u, v = uv[0], uv[1]
    A, B = p["eps"] * p["a"], p["eps"] ** (1.0 / 3.0) * p["b"]
    out = np.empty_like(uv, dtype=float)
    ru, rv = out[0, ...], out[1, ...]
    uvv = v * v
    uvv *= u
    np.subtract(1.0, u, out=ru)
    ru *= A
    ru -= uvv                   # -uvv + A (1 - u)
    np.multiply(B, v, out=rv)
    np.subtract(uvv, rv, out=rv)  # uvv - B v
    return out


def _auto(uv, p):
    """Order-m autocatalysis, rate v*max(u,0)^m; u clamped branch-free."""
    u, v = uv[0], uv[1]
    rate = v * np.maximum(u, 0.0) ** p["m"]
    return np.array([rate, -rate])


def _labyrinthine(uv, p):
    """FitzHugh-Nagumo type kinetics: u - u^3 - v and delta(u - a1 v - a0)."""
    u, v = uv[0], uv[1]
    out = np.empty_like(uv, dtype=float)
    ru, rv = out[0, ...], out[1, ...]
    np.multiply(u, u, out=ru)
    ru *= u
    np.subtract(u, ru, out=ru)
    ru -= v                     # u - u (u u) - v
    np.multiply(p["a1"], v, out=rv)
    np.subtract(u, rv, out=rv)
    rv -= p["a0"]
    rv *= p["delta"]            # delta (u - a1 v - a0)
    return out


def cubic_root_u_minus(a0: float, a1: float) -> float:
    """Smallest real root of a1*u^3 + u*(1 - a1) - a0 = 0.

    This is the uniform rest state the labyrinthine initial condition
    relaxes to far from the seed.  Fails unless a real root lies in
    [-10, 10]; the returned root satisfies |residual| < 1e-12.
    """
    roots = np.roots([a1, 0.0, 1.0 - a1, -a0])
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r)))
    if not any(-10.0 <= r <= 10.0 for r in real):
        raise ValueError(
            f"no real root of the rest-state cubic in [-10, 10] for a0={a0}, a1={a1}")
    u = min(real)
    for _ in range(60):
        f = a1 * u**3 + (1.0 - a1) * u - a0
        fp = 3.0 * a1 * u**2 + (1.0 - a1)
        if fp == 0.0:
            break
        step = f / fp
        u -= step
        if abs(step) <= 1e-16 * max(1.0, abs(u)):
            break
    if abs(a1 * u**3 + (1.0 - a1) * u - a0) >= 1e-12:
        raise ValueError(
            f"rest-state cubic root did not converge for a0={a0}, a1={a1}")
    return float(u)


# -- model registry -----------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """A reaction-diffusion system as data.

    ``default_grid_args`` is (n, half_length, dims).  The required callables
    take the merged parameter dict p: ``rates(u, p)`` maps a stacked field
    (species, ...) to stacked rates of its shape, ``diffusivities_of(p)``
    gives one diffusivity >= 0 per species and ``ic(grid, p)`` the stacked
    initial field.  ``timestep_of(p)``, if set, replaces the default step 0.1.
    """

    name: str
    species: int
    default_params: Mapping[str, float]
    default_grid_args: tuple
    equations: str
    rates: Callable
    diffusivities_of: Callable
    ic: Callable
    param_doc: Mapping[str, str] = field(default_factory=dict)
    timestep_of: Callable = None

    def params(self, overrides: Mapping[str, float] | None = None) -> dict:
        merged = dict(self.default_params)
        if overrides:
            unknown = sorted(set(overrides) - set(merged))
            if unknown:
                raise ValueError(
                    f"unknown parameter(s) {unknown} for model {self.name}; "
                    f"valid: {sorted(merged)}")
            merged.update({k: float(v) for k, v in overrides.items()})
            if broken := {k: merged[k] for k in overrides if not np.isfinite(merged[k])}:
                raise ValueError(f"parameter(s) {broken} for model {self.name} must be finite")
        return merged


def _ic_fisher1d(grid, p):
    (x,) = grid.mesh()
    return np.array([1.0 / (2.0 * np.cosh(p["delta"] * x))])


def _ic_fisher2d(grid, p):
    x, y = grid.mesh()
    return np.array([0.2 * np.exp(-0.25 * (x * x + y * y))])


def _ic_epidemic(grid, p):
    # not prescribed anywhere authoritative: a localized infective pulse
    # in a uniform susceptible field, for demonstration runs
    (x,) = grid.mesh()
    u = 0.5 / np.cosh(x)
    return np.stack([u, np.full_like(u, 2.0)])


def _ic_gray1d(grid, p):
    (x,) = grid.mesh()
    L = grid.half_length[0]
    s100 = np.sin(np.pi * (x - L) / (2.0 * L)) ** 100
    return np.stack([1.0 - 0.5 * s100, 0.25 * s100])


def _ic_gray2d(grid, p):
    x, y = grid.mesh()
    if p["asym"] != 0.0:
        rsq = x * x / 2.0 + y * y
    else:
        rsq = x * x + y * y
    bump = np.exp(-rsq / 20.0)
    return np.stack([1.0 - 0.5 * bump, 0.25 * bump])


def _ic_auto(grid, p):
    (x,) = grid.mesh()
    step = 1.0 + np.tanh(10.0 * (10.0 - np.abs(x)))
    return np.stack([0.5 * step, 1.0 - 0.25 * step])


def _ic_labyrinthine(grid, p):
    a0, a1 = p["a0"], p["a1"]
    if a1 == 0.0:  # the rest state's v = (u - a0) / a1
        raise ValueError(f"the labyrinthine initial state needs a1 != 0, got a1={a1}")
    u_minus = cubic_root_u_minus(a0, a1)
    v_minus = (u_minus - a0) / a1
    x, y = grid.mesh()
    seed = np.exp(-0.1 * (x * x + 0.01 * (y * y)))
    u = a1 * v_minus + a0 - 4.0 * a1 * v_minus * seed
    v = v_minus - 2.0 * v_minus * seed
    return np.stack([u, v])


def _d_single(p):
    return (1.0,)


def _d_pair(p):
    return (1.0, p["eps"])


MODELS: dict[str, ModelSpec] = {spec.name: spec for spec in (
    ModelSpec(
        name="fisher1d",
        species=1,
        default_params={"delta": 1.0},
        default_grid_args=(1024, 150.0, 1),
        equations="u_t = u_xx + u(1 - u)",
        param_doc={"delta": "decay rate of the initial profile 1/(2 cosh(delta x))"},
        rates=_fisher,
        diffusivities_of=_d_single,
        ic=_ic_fisher1d,
    ),
    ModelSpec(
        name="fisher2d",
        species=1,
        default_params={},
        default_grid_args=(256, 25.0, 2),
        equations="u_t = lap(u) + u(1 - u)",
        param_doc={},
        rates=_fisher,
        diffusivities_of=_d_single,
        ic=_ic_fisher2d,
    ),
    ModelSpec(
        name="epidemic",
        species=2,
        default_params={"lam": 1.0, "eps": 1.0},
        default_grid_args=(512, 50.0, 1),
        equations="u_t = u_xx + u(v - lam);  v_t = eps*v_xx - u*v",
        param_doc={
            "lam": "infection threshold (demonstration default, not calibrated)",
            "eps": "susceptible diffusivity (demonstration default, not calibrated)",
        },
        rates=_epidemic,
        diffusivities_of=_d_pair,
        ic=_ic_epidemic,
    ),
    ModelSpec(
        name="gray1d",
        species=2,
        default_params={"a": 9.0, "b": 0.4, "eps": 0.01},
        default_grid_args=(512, 50.0, 1),
        equations=("u_t = u_xx - u*v^2 + A(1 - u);  v_t = eps*v_xx + u*v^2 - B*v, "
                   "with A = eps*a and B = eps^(1/3)*b"),
        param_doc={
            "a": "feed-rate group, enters through A = eps*a",
            "b": "decay-rate group, enters through B = eps^(1/3)*b",
            "eps": "ratio of diffusivities",
        },
        rates=_gray,
        diffusivities_of=_d_pair,
        ic=_ic_gray1d,
    ),
    ModelSpec(
        name="gray2d",
        species=2,
        default_params={"a": 9.0, "b": 0.4, "eps": 0.01, "asym": 0.0},
        default_grid_args=(256, 25.0, 2),
        equations=("u_t = lap(u) - u*v^2 + A(1 - u);  v_t = eps*lap(v) + u*v^2 - B*v, "
                   "with A = eps*a and B = eps^(1/3)*b"),
        param_doc={
            "a": "feed-rate group, enters through A = eps*a",
            "b": "decay-rate group, enters through B = eps^(1/3)*b",
            "eps": "ratio of diffusivities",
            "asym": "nonzero stretches the seed (r^2 = x^2/2 + y^2 instead of x^2 + y^2)",
        },
        rates=_gray,
        diffusivities_of=_d_pair,
        ic=_ic_gray2d,
    ),
    ModelSpec(
        name="auto",
        species=2,
        default_params={"eps": 0.1, "m": 9.0},
        default_grid_args=(512, 50.0, 1),
        equations="u_t = u_xx + v*max(u,0)^m;  v_t = eps*v_xx - v*max(u,0)^m",
        param_doc={
            "eps": "inverse Lewis number (heat vs mass diffusion)",
            "m": "reaction order; integer >= 1, steep fronts for m >= 10",
        },
        rates=_auto,
        diffusivities_of=_d_pair,
        ic=_ic_auto,
        timestep_of=lambda p: 0.02 if p["m"] >= 10.0 else _DEFAULT_DT,
    ),
    ModelSpec(
        name="labyrinthe2d",
        species=2,
        default_params={"a0": -0.1, "a1": 2.0, "eps": 0.05, "delta": 4.0},
        default_grid_args=(128, 100.0, 2),
        equations="u_t = lap(u) + u - u^3 - v;  v_t = eps*lap(v) + delta*(u - a1*v - a0)",
        param_doc={
            "a0": "kinetics offset; sets the rest state through the cubic root",
            "a1": "v feedback slope",
            "eps": "v diffusivity",
            "delta": "kinetics rate ratio",
        },
        rates=_labyrinthine,
        diffusivities_of=_d_pair,
        ic=_ic_labyrinthine,
    ),
)}


def get_model(name: str) -> ModelSpec:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; valid models: {', '.join(sorted(MODELS))}") from None


def default_grid(model: ModelSpec) -> GridSpec:
    n, half_length, dims = model.default_grid_args
    return make_grid(n, half_length, dims)


def default_timestep(model: ModelSpec, params: Mapping[str, float] | None = None) -> float:
    """0.1 unless the model sets ``timestep_of`` (``auto``: 0.02 for m >= 10)."""
    return model.timestep_of(model.params(params)) if model.timestep_of else _DEFAULT_DT


def initial_condition(model: ModelSpec | str, grid: GridSpec | None = None,
                      params: Mapping[str, float] | None = None) -> State:
    """Default initial State for a model (grid defaults to the model's)."""
    spec = get_model(model) if isinstance(model, str) else model
    if grid is None:
        grid = default_grid(spec)
    return state_from_physical(grid, list(spec.ic(grid, spec.params(params))), t=0.0)
