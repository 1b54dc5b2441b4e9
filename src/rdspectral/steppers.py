"""Integrating-factor and exponential time-differencing steppers.

All schemes treat the diffusion term exactly through the diagonal
spectral symbol L = -d * omega_sq and step only the reaction explicitly.
Spectra are the half spectra of real fields that grid.forward returns, so
symbols, coefficients and stage values all have shape (species, *spectral_shape).
Each scheme is an exponential Runge-Kutta method (Hochbruck & Ostermann, Acta
Numerica 19, 2010): every stage and output is E U + sum_j A_j N(u_j) with
N(u) = mask * FFT(F(u)), E an exponential of L dt and the A_j phi
combinations (ETD) or exponentials (integrating factor).  A scheme is the
builder of that coefficient data, and one stage loop runs them all:

* ``rk4``      classical four-stage Runge-Kutta on the transformed
               variable, with the stage exponentials folded in so only
               decaying factors ever appear;
* ``ck45``     embedded Cash-Karp 4(5) pair in the same integrating-factor
               form; its two output rows drive an adaptive step controller;
* ``etdrk4``   four-stage ETD scheme with a split-step third stage;
* ``etdrk4b``  four-stage ETD scheme with all stages anchored at the
               current time level (better constants on stiff problems).

``integrate`` is the one time loop; it also runs the ADI baseline on the
dense algebra of adi.py.

The phi coefficient functions are evaluated by the direct formulas away
from the origin and by a contour mean near it, where the formulas lose
digits to cancellation; each builder evaluates only the values its rows
read, so the integrating-factor schemes evaluate no phi, and the orders it
reads at one argument share their exponentials.  Every scheme
reproduces pure diffusion exactly (to rounding) when the reaction
vanishes, at any step size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import adi
from . import grid as spectral
from .grid import GridSpec, State, _broken_bound, state_from_physical
from .models import (ModelSpec, default_grid as _default_grid, default_timestep, get_model,
                     initial_condition)

__all__ = [
    "SCHEMES",
    "BlowUpError",
    "StepSizeError",
    "StepControl",
    "RunSummary",
    "phi",
    "linear_symbol",
    "integrate",
]

BLOWUP_LIMIT = 1e10
ERROR_FLOOR = 1e-8          # absolute floor in the ck45 error scale
_SAFETY = 0.9               # ck45 step-size safety factor
_DT_MIN = 1e-10             # smallest ck45 step; a rejection there raises StepSizeError
PHI_CONTOUR_THRESHOLD = 0.5  # |z| at or below this uses the contour mean
_PHI_POINTS = np.exp(2j * np.pi * np.arange(32) / 32)
_EXP_CLAMP = 700.0           # cap on exp arguments; avoids inf * 0 = nan


class BlowUpError(RuntimeError):
    """A stage produced non-finite values or exceeded the amplitude limit."""

    def __init__(self, t: float, max_abs: float, detail: str = ""):
        self.t = t
        self.max_abs = max_abs
        self.detail = detail  # where it failed, e.g. "rk4 stage 3" or "adi step"
        msg = f"solution blew up at t={t:.6g} (max |u| = {max_abs:.3g})"
        if detail:
            msg += f" [{detail}]"
        super().__init__(msg)


class StepSizeError(RuntimeError):
    """The adaptive controller could not find an acceptable step above dt_min."""


def _check_stage(u: np.ndarray, t: float, *where) -> None:
    """Raise BlowUpError if u holds a non-finite value or one beyond
    BLOWUP_LIMIT.  ``where`` names the stage; it is joined into the
    detail text only on failure, as this runs at every stage."""
    m = max(u.max(), -u.min())  # max |u| without a |u| temporary; nan if u holds one
    if not m <= BLOWUP_LIMIT:  # also true for nan
        raise BlowUpError(t, float(m), " ".join(str(w) for w in where))


# -- phi coefficient functions -------------------------------------------------

def _phi_direct(k: int, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    # the direct formula for phi_k, given e = exp(z)
    if k == 0:
        return (e - 1.0) / z
    if k == 1:
        return (e - 1.0 - z) / (z * z)
    return (e - 1.0 - z - 0.5 * (z * z)) / (z * z * z)


def _phis(z, orders) -> list[np.ndarray]:
    """[phi(k, z) for k in orders], bit for bit, from one exp per point
    (one per contour point near the origin) shared by all the orders."""
    z_in = np.asarray(z)
    flat = z_in.ravel().astype(complex)
    outs = [np.empty(flat.shape, dtype=complex) for _ in orders]
    small = np.abs(flat) <= PHI_CONTOUR_THRESHOLD
    big = ~small
    if np.any(big):
        far = flat[big]
        e = np.exp(far)
        for k, out in zip(orders, outs):
            out[big] = _phi_direct(k, far, e)
    if np.any(small):
        ring = flat[small, None] + _PHI_POINTS
        e = np.exp(ring)
        for k, out in zip(orders, outs):
            out[small] = _phi_direct(k, ring, e).mean(axis=-1)
    values = []
    for out in outs:
        out = out.reshape(z_in.shape)
        if not np.iscomplexobj(z_in):
            out = out.real
        values.append(out[()] if out.ndim == 0 else out)
    return values


def phi(k: int, z) -> np.ndarray:
    """phi_0 = (e^z - 1)/z, phi_1 = (e^z - 1 - z)/z^2, phi_2 = (e^z - 1 - z - z^2/2)/z^3.

    For |z| <= 0.5 the direct formulas cancel catastrophically, so the
    value is taken instead as the mean of the direct formula over 32
    equispaced points on the unit circle centered at z (the singularity
    is removable, so the mean converges spectrally in the point count).
    Real input returns the real part.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"phi index must be 0, 1 or 2, got {k}")
    return _phis(z, (k,))[0]


# -- linear symbol ---------------------------------------------------------------

def linear_symbol(grid: GridSpec, diffusivities) -> np.ndarray:
    """Per-species diffusion symbol L_s = -d_s * omega_sq, stacked into a
    real (species, *grid.spectral_shape) array, <= 0."""
    ds = tuple(float(d) for d in diffusivities)
    if not ds or any(d < 0 for d in ds):
        raise ValueError(f"diffusivities must be nonnegative, got {ds}")
    return np.stack([-d * grid.omega_sq for d in ds])


# -- the exponential Runge-Kutta stage loop ---------------------------------------

class _Counted:
    """A function that counts its calls (``calls``) and the seconds spent in them."""

    def __init__(self, fn: Callable):
        self.fn, self.calls, self.seconds = fn, 0, 0.0

    def __call__(self, *args):
        self.calls += 1
        tick = time.perf_counter()
        out = self.fn(*args)
        self.seconds += time.perf_counter() - tick
        return out


def _spectral_reaction(model: ModelSpec, grid: GridSpec, p: Mapping[str, float],
                       mask: np.ndarray | None) -> _Counted:
    """N(u) = mask * FFT(F(u)), counted; each call returns a fresh array."""
    def N(u):
        Nu = spectral.forward(grid, model.rates(u, p))
        if mask is not None:
            Nu *= mask
        return Nu
    return _Counted(N)


def _exp_rk_step(N, grid: GridSpec, u: np.ndarray, U: np.ndarray, t: float, dt: float,
                 tableau, label: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """One exponential Runge-Kutta step from u (U = FFT u) at time t.

    ``tableau`` is (stage rows, output rows); a row (E, terms) stands for
    E U + sum_j A_j N(stage j), stage 0 being u, and a term (j, f1, f2, ...)
    evaluates A_j N_j as f2 * (f1 * N_j).  Every stage and output passes
    the blow-up check.  Returns the (u, U) pair of each output row.

    One term array and one stage accumulator serve every row of the step:
    a stage row's sum is spent once its inverse transform is taken.  Each
    output row sums into a fresh array, as its pair becomes the new state,
    which a sink may keep.  Neither u nor U is written.
    """
    stages, outputs = tableau
    Ns, out = [N(u)], []
    # fresh spectrum-sized temporaries per row cost more than the arithmetic
    term, work = np.empty_like(U, dtype=complex), np.empty_like(U, dtype=complex)
    for i, (E, terms) in enumerate(stages + outputs):
        acc = np.multiply(E, U, out=work) if i < len(stages) else E * U
        for j, f, *more in terms:
            np.multiply(f, Ns[j], out=term)
            for g in more:
                term *= g
            acc += term
        u_i = spectral.inverse_real(grid, acc)
        if i < len(stages):
            _check_stage(u_i, t, label, "stage", i + 2)
            Ns.append(N(u_i))
        else:
            _check_stage(u_i, t + dt, label, "update")
            out.append((u_i, acc))
    return out


# -- schemes as coefficient data ---------------------------------------------------
# Each builder takes z = L dt and dt and evaluates only the exponentials and
# phi values its rows read.

def _rk4_tableau(z: np.ndarray, dt: float):
    # classical RK4 on exp(-L t) U with k_j = dt N_j:
    # u2 = E_h (U + k1/2), u3 = E_h U + k2/2, u4 = E U + E_h k3
    E, Eh = np.exp(z), np.exp(0.5 * z)
    third = (dt / 3.0) * Eh
    stages = ((Eh, ((0, (0.5 * dt) * Eh),)),
              (Eh, ((1, 0.5 * dt),)),
              (E, ((2, dt * Eh),)))
    update = (E, ((0, (dt / 6.0) * E), (1, third), (2, third), (3, dt / 6.0)))
    return stages, (update,)


def _etd_update(E, p0, p1, p2, dt: float):
    # the output row both ETD schemes share, from the phi values at z
    middle = dt * (2.0 * (p1 - 2.0 * p2))
    return (E, ((0, dt * (4.0 * p2 - 3.0 * p1 + p0)), (1, middle), (2, middle),
                (3, dt * (4.0 * p2 - p1))))


def _etdrk4_tableau(z: np.ndarray, dt: float):
    # the third stage steps from the second-stage value A = E_h U + a N1:
    # E_h A + a (2 N3 - N1) = E U + a (E_h - 1) N1 + 2 a N3
    zh = 0.5 * z
    E, Eh = np.exp(z), np.exp(zh)
    a = (0.5 * dt) * phi(0, zh)
    stages = ((Eh, ((0, a),)),
              (Eh, ((1, a),)),
              (E, ((0, a * (Eh - 1.0)), (2, 2.0 * a))))
    return stages, (_etd_update(E, *_phis(z, (0, 1, 2)), dt),)


def _etdrk4b_tableau(z: np.ndarray, dt: float):
    zh = 0.5 * z
    E, Eh = np.exp(z), np.exp(zh)
    p0, p1, p2 = _phis(z, (0, 1, 2))
    h0, h1 = _phis(zh, (0, 1))
    stages = ((Eh, ((0, (0.5 * dt) * h0),)),
              (Eh, ((0, (0.5 * dt) * (h0 - 2.0 * h1)), (1, dt * h1))),
              (E, ((0, dt * (p0 - 2.0 * p1)), (2, (2.0 * dt) * p1))))
    return stages, (_etd_update(E, p0, p1, p2, dt),)


# -- embedded Cash-Karp 4(5) pair -------------------------------------------------

_CK_A = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
_CK_B = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_FIFTH = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_FOURTH = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0,
              277.0 / 14336.0, 1.0 / 4.0)


def _ck45_tableau(z: np.ndarray, dt: float):
    """Integrating-factor Cash-Karp over the rates k_j = dt N_j: stage i
    couples to k_j by b_ij exp((a_i - a_j) L dt), output j by
    w_j exp((1 - a_j) L dt), evaluated as b * (exp * k) because the
    controller's step sequence follows the error estimate's rounding.

    The (5, 4) coupling has a_5 < a_4, so one factor grows with |L| dt;
    exponents are clamped so that a vanishing reaction still yields an
    exact pure-diffusion step instead of inf * 0.
    """
    ex: dict[float, np.ndarray] = {}

    def e(theta):
        if theta not in ex:
            ex[theta] = np.exp(np.minimum(theta * z, _EXP_CLAMP))
        return ex[theta]

    stages = tuple((e(a_i), tuple((j, e(a_i - _CK_A[j]), b) for j, b in enumerate(row)))
                   for a_i, row in zip(_CK_A[1:], _CK_B[1:]))
    outputs = tuple((e(1.0), tuple((j, e(1.0 - a_j), w)
                                   for j, (w, a_j) in enumerate(zip(weights, _CK_A)) if w))
                    for weights in (_CK_FIFTH, _CK_FOURTH))
    return stages, outputs


_TABLEAUS: dict[str, Callable] = {
    "rk4": _rk4_tableau,
    "ck45": _ck45_tableau,
    "etdrk4": _etdrk4_tableau,
    "etdrk4b": _etdrk4b_tableau,
}


def _build_tables(scheme: str, symbol: np.ndarray, dt: float):
    """The tableau of ``scheme`` for one step of dt over the linear symbol."""
    return _TABLEAUS[scheme](symbol * dt, dt)


@dataclass(frozen=True)
class StepControl:
    """ck45's error control: the relative tolerance of the error estimate
    and the largest step.  Each must be positive and finite, which is
    checked when it is made; a run reads it and writes nothing back, so
    one StepControl gives the same run every time."""

    rel_tol: float = 1e-4
    dt_max: float = 5.0

    def __post_init__(self):
        for name in ("rel_tol", "dt_max"):
            value = getattr(self, name)
            if bound := _broken_bound(value):
                raise ValueError(f"StepControl.{name} must be {bound}, got {value}")


def _ck45_attempt(N, grid: GridSpec, symbol: np.ndarray, control: StepControl,
                  y: tuple[np.ndarray, np.ndarray], t: float, dt: float):
    """One Cash-Karp attempt of step dt from y = (u, uhat) at time t.
    Returns (new y, or None on rejection; the scaled error; the next step
    to try, in [_DT_MIN, control.dt_max]).  A rejection at _DT_MIN that
    would shrink the step further raises StepSizeError."""

    def k(v):  # the rate dt N(v), scaled on N's fresh array
        Nv = N(v)
        Nv *= dt
        return Nv

    try:
        (u5, U5), (u4, _) = _exp_rk_step(k, grid, *y, t, dt,
                                         _build_tables("ck45", symbol, dt), "ck45")
        # |u5 - u4| / (rel_tol (|u| + floor)) in u4, which nothing else keeps
        scale = np.abs(y[0])
        scale += ERROR_FLOOR
        scale *= control.rel_tol
        np.subtract(u5, u4, out=u4)
        np.abs(u4, out=u4)
        u4 /= scale
        err = float(u4.max())
    except BlowUpError:  # a runaway stage rejects the attempt
        err = np.inf

    if err <= 1.0:
        y_new, factor = (u5, U5), 5.0 if err == 0.0 else min(5.0, _SAFETY * err ** -0.2)
    else:
        y_new, factor = None, 0.1 if not np.isfinite(err) else max(0.1, _SAFETY * err ** -0.25)
        if dt * factor < _DT_MIN and dt <= _DT_MIN:
            raise StepSizeError(
                f"step rejected at dt_min={_DT_MIN:g} (t={t:.6g}, scaled error {err:.3g})")
    return y_new, err, min(max(dt * factor, _DT_MIN), control.dt_max)


# -- the run loop ---------------------------------------------------------------

SCHEMES = ("rk4", "ck45", "etdrk4", "etdrk4b", "adi")


def _run_problems(scheme: str, model: ModelSpec | str, grid: GridSpec | None, *,
                  dt: float | None, t_final: float | None, snap_every: float | None,
                  control: StepControl | None, dealias: bool,
                  params: Mapping[str, float] | None = None,
                  start: State | None = None) -> list[str]:
    """Every reason ``integrate`` refuses a run; empty when it can run it.
    ``model`` is a name or a ModelSpec; an unknown name is one problem and
    skips the checks that need the model.  A setting left None is not
    checked, and ``grid`` None is the model's registered grid.  ``start``
    must be shaped for the model on the grid (ADI reads no uhat) and no
    later than a valid t_final.  Only ADI has limits of its own."""
    problems = []
    try:
        spec = get_model(model) if isinstance(model, str) else model
    except ValueError as err:
        spec, problems = None, [str(err)]
    if scheme not in SCHEMES:
        problems.append(f"unknown scheme {scheme!r}; valid schemes: {', '.join(SCHEMES)}")
    for name, value, nonnegative in (("dt", dt, False), ("t_final", t_final, True)):
        if value is not None and (bound := _broken_bound(value, nonnegative)):
            problems.append(f"{name} must be {bound}, got {value}")
    if snap_every is not None and not snap_every > 0:
        problems.append(f"snap_every must be positive, got {snap_every}")
    if control is not None and scheme in SCHEMES and scheme != "ck45":
        problems.append(f"a StepControl is read only by scheme ck45, not by {scheme}")
    if spec is None:
        return problems
    try:
        spec.params(params)
    except ValueError as err:
        problems.append(str(err))
    if start is not None or scheme == "adi":
        grid = grid if grid is not None else _default_grid(spec)
    if start is not None:
        expected = (spec.species, *grid.shape)
        if start.u.shape != expected:
            problems.append(f"initial state u has shape {start.u.shape}, expected {expected}")
        expected = (spec.species, *grid.spectral_shape)
        got = None if start.uhat is None else start.uhat.shape
        if scheme != "adi" and got != expected:
            problems.append(f"initial state uhat has shape {got}, expected {expected}")
        # a t_final refused above is not refused again for the start time
        if (t_final is not None and not _broken_bound(t_final, nonnegative=True)
                and t_final < start.t):
            problems.append(f"t_final must be at least the start time {start.t}, got {t_final}")
    if scheme != "adi":
        return problems
    if grid.dims != 2:
        why = "the ADI scheme is two-dimensional only"
    elif grid.n[0] != grid.n[1] or grid.half_length[0] != grid.half_length[1]:
        why = "the ADI scheme needs a square grid"
    elif grid.n[0] < 4:
        why = f"the ADI scheme needs n >= 4, got {grid.n[0]}"
    elif spec.species != 1:
        why = f"the ADI scheme handles single-species models, {spec.name} has {spec.species}"
    else:
        why = None
    if why:
        problems.append(f"scheme adi cannot run model {spec.name}: {why}")
    if dealias:
        problems.append("scheme adi cannot dealias: it steps the reaction in physical "
                        "space, with no spectrum to mask")
    return problems


@dataclass
class RunSummary:
    model: str
    scheme: str
    t_end: float
    steps: int
    accepted: int
    rejected: int
    reaction_evals: int
    wall_time: float
    final_state: State
    dt_history: list[tuple[float, float]] | None = None
    dense_time: float = 0.0


def integrate(model: ModelSpec | str, grid: GridSpec | None = None, *,
              scheme: str, t_final: float, dt: float | None = None,
              control: StepControl | None = None, snap_every: float | None = None,
              sink: Callable[[State], None] | None = None,
              params: Mapping[str, float] | None = None, dealias: bool = False,
              initial_state: State | None = None) -> RunSummary:
    """Drive a scheme from the model's initial state to t_final.

    Every scheme takes ``dt``, by default the model's default_timestep.
    The fixed-step schemes, ``adi`` among them, step by it (the final
    partial step shortened to land exactly on t_final) and refuse a
    StepControl.  ``ck45`` tries it first, within [1e-10, dt_max], then
    steps as its ``control`` (by default StepControl()) allows; it only
    reads the control, keeps its own next step and records each accepted
    step in dt_history as (time after the step, the step taken).
    ``dealias`` masks the spectral schemes' reaction term by the 2/3 rule,
    which removes all aliasing only from a quadratic reaction; ``adi``
    rejects it.  ``sink`` is called with the initial state, at every
    crossing of the snapshot cadence, and with the final state.  Invalid
    settings (an unknown model, an unknown parameter, a step setting, an
    ``initial_state`` not shaped for the model on the grid or later than
    t_final) raise one ValueError naming every problem, before anything is
    built.  A start that is not finite or exceeds the blow-up limit raises
    BlowUpError.

    ADI steps the physical field and returns no uhat, so a step costs no
    transform: the loop transforms only to hand out a State, and hands
    out the final state it has just emitted as a snapshot rather than
    transforming it again.  The seconds spent in its dense half-step
    algebra, the dominant per-step cost, become the run's dense_time.
    """
    problems = _run_problems(scheme, model, grid, dt=dt, t_final=t_final,
                             snap_every=snap_every, control=control, dealias=dealias,
                             params=params, start=initial_state)
    if problems:
        raise ValueError("; ".join(problems))
    spec = get_model(model) if isinstance(model, str) else model
    if grid is None:
        grid = _default_grid(spec)
    dt = dt if dt is not None else default_timestep(spec, params)
    if scheme == "ck45":
        control = control or StepControl()
    p = spec.params(params)

    dense = None
    if scheme == "adi":
        d = spec.diffusivities_of(p)[0]
        diff = adi.build_diff_matrix(grid.n[0], grid.half_length[0])
        reaction = _Counted(lambda field: spec.rates(field[None], p)[0])
        dense = _Counted(lambda u, factors: adi.adi_step(u, reaction, factors))

        def build(h):
            return diff.factors(h, d)

        def step(y, t, h, factors):
            u = dense(y[0][0], factors)
            _check_stage(u, t + h, "adi step")
            return u[None], None
    else:
        reaction = _spectral_reaction(
            spec, grid, p, spectral.dealias_mask(grid) if dealias else None)
        symbol = linear_symbol(grid, spec.diffusivities_of(p))

        def build(h):
            return _build_tables(scheme, symbol, h)

        def step(y, t, h, tableau):
            return _exp_rk_step(reaction, grid, *y, t, h, tableau, scheme)[0]
    # the one coefficient cache: per step size, dt and a shortened final step
    coefficients = {} if control is not None else {dt: build(dt)}
    state = initial_state if initial_state is not None else initial_condition(spec, grid, p)

    def as_state(y, t):
        u, U = y
        return State(t=t, u=u, uhat=U) if U is not None else state_from_physical(grid, u, t)

    emit = sink if sink is not None else (lambda s: None)
    t0 = t = state.t
    eps = 1e-9 * max(1.0, abs(t_final), abs(t0))
    next_snap = None if snap_every is None else t0 + snap_every
    dt_history = None if control is None else []
    proposal = None if control is None else min(max(dt, _DT_MIN), control.dt_max)
    emit(state)
    emitted = state

    started = time.perf_counter()
    y = (state.u, state.uhat)
    steps = accepted = 0
    try:
        _check_stage(state.u, t0, "initial state")
        while t < t_final - eps:
            remaining = t_final - t
            steps += 1
            if control is None:
                h = dt if remaining >= dt - eps else remaining
                if h not in coefficients:
                    coefficients[h] = build(h)
                y = step(y, t, h, coefficients[h])
                accepted += 1
                # pin time arithmetic to multiples of dt to avoid drift
                t = t0 + accepted * dt if h == dt else t_final
            else:
                h = min(proposal, remaining)
                # a step cut short to land on t_final is the last one, so
                # the proposal it cut needs no keeping
                y_new, _, proposal = _ck45_attempt(reaction, grid, symbol, control, y, t, h)
                if y_new is None:  # rejected: proposal is the shrunk step
                    continue
                y = y_new
                accepted += 1
                t += h
                dt_history.append((t, h))
            if next_snap is not None and t + eps >= next_snap:
                emitted = as_state(y, t)
                emit(emitted)
                while next_snap <= t + eps:
                    next_snap += snap_every
    except BlowUpError as exc:
        raise BlowUpError(exc.t, exc.max_abs,
                          f"model={spec.name} scheme={scheme}: {exc.detail}") from exc

    wall = time.perf_counter() - started
    if t > emitted.t:
        emitted = as_state(y, t)
        emit(emitted)
    return RunSummary(
        model=spec.name,
        scheme=scheme,
        t_end=t,
        steps=steps,
        accepted=accepted,
        rejected=steps - accepted,
        reaction_evals=reaction.calls,
        wall_time=wall,
        final_state=emitted,
        dt_history=dt_history,
        dense_time=dense.seconds if dense is not None else 0.0,
    )
