"""Convergence studies: many (scheme, dt) runs against one gold run.

The gold standard defaults to etdrk4b at dt = 1e-3, a desk-scale stand-in
for a much smaller reference step; it is accurate enough that the error
floor sits well below every step size the studies here sweep.  All runs
share the model's initial state on one grid, so differences at t_final
measure time discretization only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import GridSpec, State
from .models import ModelSpec, default_grid, get_model, initial_condition
from .postprocess import max_abs_error
from .steppers import BlowUpError, StepControl, StepSizeError, integrate

__all__ = ["ConvergenceStudy", "convergence_study"]


def fit_slope(dts, errors) -> float:
    """Least-squares slope of log(error) vs log(dt); nan when fewer than
    two finite, nonzero error samples survive."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > 0.0)
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(dts[keep]), np.log(errors[keep]), 1)[0])


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error table from one sweep; errors[scheme][i] pairs with dts[i]."""

    model: str
    t_final: float
    schemes: tuple[str, ...]
    dts: tuple[float, ...]
    gold_scheme: str
    gold_dt: float
    errors: dict
    slopes: dict

    def error(self, scheme: str, dt: float) -> float:
        return self.errors[scheme][self.dts.index(dt)]

    def to_csv(self) -> str:
        lines = ["scheme,dt,max_abs_error,fitted_slope"]
        for scheme in self.schemes:
            slope = self.slopes[scheme]
            for dt, err in zip(self.dts, self.errors[scheme]):
                lines.append(f"{scheme},{dt:.17g},{err:.17g},{slope:.17g}")
        return "\n".join(lines) + "\n"


def _final_fields(spec: ModelSpec, grid: GridSpec, scheme: str, dt: float,
                  t_final: float, params, start: State, dealias: bool):
    # the adaptive scheme's accuracy knob is its tolerance, so that is what
    # the sweep varies; the starting step is the controller default
    control = StepControl(rel_tol=dt) if scheme == "ck45" else None
    summary = integrate(spec, grid, scheme=scheme, t_final=t_final, dt=dt,
                        control=control, params=params, dealias=dealias,
                        initial_state=start)
    return summary.final_state.u


def convergence_study(model: ModelSpec | str, *, schemes, dts, t_final: float,
                      gold_scheme: str = "etdrk4b", gold_dt: float = 1e-3,
                      grid: GridSpec | None = None,
                      params: Mapping[str, float] | None = None,
                      dealias: bool = False) -> ConvergenceStudy:
    """Run every scheme at every dt and tabulate max-abs error at t_final
    against the gold run.

    A blow-up in the gold run propagates and aborts the study; a blow-up
    or step failure in a member run records an infinite error and the
    sweep continues.  Any other exception propagates.
    """
    spec = get_model(model) if isinstance(model, str) else model
    if grid is None:
        grid = default_grid(spec)
    schemes = tuple(schemes)
    dts = tuple(float(dt) for dt in dts)
    start = initial_condition(spec, grid, params)

    gold = _final_fields(spec, grid, gold_scheme, gold_dt, t_final,
                         params, start, dealias)

    errors = {}
    for scheme in schemes:
        row = []
        for dt in dts:
            try:
                fields = _final_fields(spec, grid, scheme, dt, t_final,
                                       params, start, dealias)
                row.append(max_abs_error(fields, gold))
            except (BlowUpError, StepSizeError):  # member blow-up or step failure
                row.append(math.inf)
        errors[scheme] = tuple(row)
    slopes = {scheme: fit_slope(dts, errors[scheme]) for scheme in schemes}
    return ConvergenceStudy(model=spec.name, t_final=t_final, schemes=schemes,
                            dts=dts, gold_scheme=gold_scheme, gold_dt=gold_dt,
                            errors=errors, slopes=slopes)
