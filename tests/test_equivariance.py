"""A run commutes with the symmetries of its periodic grid.

Every model's reaction is pointwise and its diffusion isotropic, so
shifting the start by whole cells, reflecting it, or (on a square 2D
grid) swapping x and y must give the shifted, reflected or swapped run.
The half spectrum stores x and y unequally, so the swap checks that the
stored half is read as the whole.  Each run starts from the model's start
plus Gaussian noise of standard deviation 0.05, which breaks the start's
own symmetries, and steps dt=0.05 to t=1 on n=64 (1D) or n=32 (2D).

The fixed-step spectral schemes agree to 1e-11 relative.  ck45 agrees to
6e-10, because its step sequence follows the rounding of its error
estimate.  ADI is checked under shifts and reflections only: its
Peaceman-Rachford half steps take y implicit first, so it is not
symmetric under the swap (it differs by about 5e-5 there), by design.
"""

import numpy as np
import pytest

from rdspectral.grid import make_grid, state_from_physical
from rdspectral.models import MODELS, initial_condition
from rdspectral.steppers import StepControl, integrate

DT, T_FINAL, NOISE = 0.05, 1.0, 0.05
BOUND = {"rk4": 1e-11, "etdrk4": 1e-11, "etdrk4b": 1e-11, "ck45": 6e-10, "adi": 1e-11}


def _reflect(u, axis):
    # x -> -x maps node i to node (n - i) mod n
    return np.roll(np.flip(u, axis=axis), 1, axis=axis)


def _symmetries(dims):
    """Name -> map of a (species, *grid.shape) field; x is the last axis."""
    if dims == 1:
        return {"shift": lambda u: np.roll(u, 5, axis=-1),
                "reflect": lambda u: _reflect(u, -1)}
    return {"shift": lambda u: np.roll(u, (3, -7), axis=(-2, -1)),
            "reflect-x": lambda u: _reflect(u, -1),
            "reflect-y": lambda u: _reflect(u, -2),
            "swap": lambda u: np.swapaxes(u, -2, -1)}


def _cases():
    for model, spec in MODELS.items():
        for scheme in ("rk4", "etdrk4", "etdrk4b", "ck45"):
            for dealias in (False, True):
                yield model, scheme, dealias
        if spec.species == 1 and spec.default_grid_args[2] == 2:
            yield model, "adi", False


@pytest.mark.parametrize("model, scheme, dealias", list(_cases()))
def test_a_run_commutes_with_the_grid_symmetries(model, scheme, dealias):
    spec = MODELS[model]
    _, half_length, dims = spec.default_grid_args
    grid = make_grid(64 if dims == 1 else 32, half_length, dims)
    rng = np.random.default_rng(sorted(MODELS).index(model))
    start = initial_condition(spec, grid).u
    start = start + NOISE * rng.standard_normal(start.shape)
    control = StepControl(rel_tol=1e-6) if scheme == "ck45" else None

    def run(u0):
        return integrate(spec, grid, scheme=scheme, dt=DT, t_final=T_FINAL,
                         control=control, dealias=dealias,
                         initial_state=state_from_physical(grid, u0)).final_state.u

    final = run(start)
    for name, act in _symmetries(dims).items():
        if name == "swap" and scheme == "adi":
            continue
        error = np.max(np.abs(run(act(start)) - act(final))) / np.max(np.abs(final))
        assert error <= BOUND[scheme], f"{name}: relative difference {error:.3g}"
