import dataclasses
from collections import Counter

import numpy as np
import pytest

from rdspectral import adi
from rdspectral import grid as spectral
from rdspectral import steppers
from rdspectral.grid import State, make_grid, state_from_physical
from rdspectral.models import MODELS, ModelSpec, get_model, initial_condition
from rdspectral.runio import RunWriter
from rdspectral.steppers import (BLOWUP_LIMIT, ERROR_FLOOR, BlowUpError,
                                 StepControl, StepSizeError, integrate, linear_symbol)

# Cash-Karp tableau, restated independently for the scalar oracle
CK_A = (0.0, 0.2, 0.3, 0.6, 1.0, 0.875)
CK_B = (
    (),
    (0.2,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
CK_5TH = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
CK_4TH = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def pure_diffusion(dims: int = 1) -> ModelSpec:
    return ModelSpec(
        name="puredif", species=1, default_params={},
        default_grid_args=(64, 1.0, dims), equations="u_t = lap(u)",
        rates=lambda u, p: np.zeros_like(u),
        diffusivities_of=lambda p: (1.0,),
        ic=lambda g, p: np.stack([np.sin(np.pi * sum(m for m in g.mesh()))]))


def counting_model(spec):
    """``spec`` with its rates wrapped to count calls, and the Counter
    they are counted in (key "rates")."""
    counts = Counter()

    def rates(u, p):
        counts["rates"] += 1
        return spec.rates(u, p)
    return dataclasses.replace(spec, rates=rates), counts


def constant_state(grid, value):
    return state_from_physical(grid, [np.full(grid.shape, value)])


def one_step(model, grid, scheme, state, dt, **kwargs):
    """The state one fixed step of dt after ``state``."""
    return integrate(model, grid, scheme=scheme, dt=dt, initial_state=state,
                     t_final=state.t + dt, **kwargs).final_state


def ck45_attempt(spec, grid, state, control, dt):
    """One Cash-Karp attempt of step dt: (new (u, uhat) or None, scaled
    error, next step to try)."""
    p = spec.params()
    N = steppers._spectral_reaction(spec, grid, p, None)
    symbol = linear_symbol(grid, spec.diffusivities_of(p))
    return steppers._ck45_attempt(N, grid, symbol, control, (state.u, state.uhat),
                                  state.t, dt)


def rk4_scalar(u, dt, f):
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def ck45_scalar(u, dt, f):
    ks = []
    for i in range(6):
        stage = u + dt * sum(b * k for b, k in zip(CK_B[i], ks))
        ks.append(f(stage))
    u5 = u + dt * sum(w * k for w, k in zip(CK_5TH, ks))
    u4 = u + dt * sum(w * k for w, k in zip(CK_4TH, ks))
    return u5, u4


# -- per-step cost contracts ---------------------------------------------------

@pytest.mark.parametrize("scheme, dims", [
    ("rk4", 1), ("etdrk4", 1), ("etdrk4b", 1), ("rk4", 2), ("etdrk4", 2), ("etdrk4b", 2)],
    ids=["if_rk4_step", "etdrk4_step", "etdrk4b_step",
         "if_rk4_step_2d", "etdrk4_step_2d", "etdrk4b_step_2d"])
def test_fixed_step_costs(scheme, dims, monkeypatch):
    spec = get_model("gray1d" if dims == 1 else "gray2d")
    grid = make_grid(64 if dims == 1 else 16, 50.0, dims)
    state = constant_state(grid, 0.3)
    state = state_from_physical(grid, [state.u[0], np.full(grid.shape, 0.1)])
    counting, nfev = counting_model(spec)

    calls = {"fwd": 0, "inv": 0}
    real_fwd, real_inv = spectral.forward, spectral._inverse
    monkeypatch.setattr(spectral, "forward",
                        lambda g, f: calls.__setitem__("fwd", calls["fwd"] + 1) or real_fwd(g, f))
    # every inverse, inverse_real's included, runs through _inverse
    monkeypatch.setattr(spectral, "_inverse", lambda g, f, **kw: calls.__setitem__(
        "inv", calls["inv"] + 1) or real_inv(g, f, **kw))
    one_step(counting, grid, scheme, state, 0.1)
    assert nfev["rates"] == 4
    assert calls == {"fwd": 4, "inv": 4}


def test_ck45_attempt_costs(monkeypatch):
    calls = {"fwd": 0, "inv": 0}
    real_fwd, real_inv = spectral.forward, spectral._inverse
    monkeypatch.setattr(spectral, "forward",
                        lambda g, f: calls.__setitem__("fwd", calls["fwd"] + 1) or real_fwd(g, f))
    # every inverse, inverse_real's included, runs through _inverse
    monkeypatch.setattr(spectral, "_inverse", lambda g, f, **kw: calls.__setitem__(
        "inv", calls["inv"] + 1) or real_inv(g, f, **kw))
    for model, grid in (("fisher1d", make_grid(32, 1.0, 1)), ("fisher2d", make_grid(16, 1.0, 2))):
        state = constant_state(grid, 0.2)
        control = StepControl(rel_tol=1e-4)
        counting, nfev = counting_model(get_model(model))
        calls.update(fwd=0, inv=0)
        summary = integrate(counting, grid, scheme="ck45", dt=0.05, control=control,
                            initial_state=state, t_final=state.t + 0.05)
        assert summary.steps == summary.accepted == 1
        assert nfev["rates"] == 6          # six tableau stages
        assert calls["fwd"] == 6           # one transform per stage rate
        assert calls["inv"] == 5 + 2       # five stage states plus both solutions


# -- scalar oracles on constant fields ------------------------------------------
# A constant field lives entirely in the zero mode, where every exponential
# factor is 1, so the integrating-factor algebra must reduce to the classical
# tableau on the scalar logistic ODE.

def test_rk4_reduces_to_classical_on_zero_mode():
    grid = make_grid(16, 1.0, 1)
    state = constant_state(grid, 0.2)
    spec = get_model("fisher1d")
    f = lambda u: u * (1.0 - u)

    stepped = one_step(spec, grid, "rk4", state, 0.1)
    want = rk4_scalar(0.2, 0.1, f)
    assert np.allclose(stepped.u, want, rtol=1e-13)
    assert stepped.u.std() < 1e-15  # stays spatially constant

    for _ in range(9):
        stepped = one_step(spec, grid, "rk4", stepped, 0.1)
    scalar = 0.2
    for _ in range(10):
        scalar = rk4_scalar(scalar, 0.1, f)
    assert np.allclose(stepped.u, scalar, rtol=1e-12)


def test_ck45_reduces_to_classical_on_zero_mode():
    grid = make_grid(16, 1.0, 1)
    state = constant_state(grid, 0.2)
    control = StepControl(rel_tol=1e-4)
    spec = get_model("fisher1d")
    f = lambda u: u * (1.0 - u)

    new, err, _ = ck45_attempt(spec, grid, state, control, 0.1)
    u5, u4 = ck45_scalar(0.2, 0.1, f)
    assert new is not None
    assert np.allclose(new[0], u5, rtol=1e-12)
    want_err = abs(u5 - u4) / (1e-4 * (0.2 + ERROR_FLOOR))
    assert err == pytest.approx(want_err, rel=1e-6)


def test_etd_schemes_agree_on_zero_mode_logistic():
    # on the zero mode both ETD variants are classical RK4 up to the
    # phi-weighted update, which matches through fourth order
    grid = make_grid(16, 1.0, 1)
    state = constant_state(grid, 0.2)
    dt = 1e-2
    spec = get_model("fisher1d")
    want = rk4_scalar(0.2, dt, lambda u: u * (1.0 - u))
    for scheme in ("etdrk4", "etdrk4b"):
        got = one_step(spec, grid, scheme, state, dt)
        assert np.allclose(got.u, want, atol=1e-11)


# -- exactness on pure diffusion -------------------------------------------------

@pytest.mark.parametrize("scheme", ["rk4", "etdrk4", "etdrk4b", "ck45"])
def test_pure_diffusion_is_exact(scheme):
    spec = pure_diffusion()
    grid = make_grid(64, 1.0, 1)
    summary = integrate(spec, grid, scheme=scheme, dt=0.1, t_final=2.0)
    start = np.sin(np.pi * grid.coords[0])
    decay = spectral.inverse_real(
        grid, np.exp(-grid.omega_sq * 2.0) * spectral.forward(grid, start))
    assert summary.t_end == 2.0
    assert np.allclose(summary.final_state.u[0], decay, atol=1e-12)


def test_ck45_growth_is_clamped():
    # with zero reaction the embedded error is 0, so every step multiplies
    # dt by the max growth factor until dt_max pins it
    spec = pure_diffusion()
    grid = make_grid(32, 1.0, 1)
    state = constant_state(grid, 1.0)
    control = StepControl(rel_tol=1e-4, dt_max=5.0)
    dt, proposals = 0.01, []
    for _ in range(6):
        new, _, proposal = ck45_attempt(spec, grid, state, control, dt)
        assert new is not None
        state = State(t=state.t + dt, u=new[0], uhat=new[1])
        dt = proposal
        proposals.append(proposal)
    assert proposals == [0.05, 0.25, 1.25, 5.0, 5.0, 5.0]


def test_ck45_rejection_shrinks():
    spec = get_model("fisher1d")
    grid = make_grid(32, 1.0, 1)
    state = constant_state(grid, 0.5)
    control = StepControl(rel_tol=1e-12, dt_max=5.0)  # hopeless tolerance
    new, err, proposal = ck45_attempt(spec, grid, state, control, 4.0)
    assert new is None and err > 1.0
    assert proposal < 4.0
    assert proposal >= 0.4  # shrink is floored at one tenth


# -- driver behavior --------------------------------------------------------------

def test_ck45_raises_step_size_error_when_no_step_is_finite():
    never_finite = dataclasses.replace(get_model("fisher1d"),
                                       rates=lambda u, p: np.full_like(u, np.inf))
    with pytest.raises(StepSizeError, match="step rejected at dt_min=1e-10"), \
            np.errstate(invalid="ignore"):
        integrate(never_finite, make_grid(32, 10.0, 1), scheme="ck45", t_final=1.0,
                  control=StepControl(rel_tol=1e-4))


def test_snapshot_cadence_times():
    times = []
    integrate("gray1d", make_grid(64, 50.0, 1), scheme="rk4", dt=0.1,
              t_final=1.0, snap_every=0.2, sink=lambda s: times.append(s.t))
    assert np.allclose(times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-9)
    assert all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("snap_every", [1e-17, 1e-300, 5e-324])
def test_a_cadence_finer_than_a_step_emits_every_step(snap_every):
    # the next snapshot time is t0 + k snap_every in closed form, not a
    # running sum: adding 1e-17 to 0.1 no longer moves it, and a subnormal
    # cadence makes the count infinite
    times = []
    integrate("fisher1d", make_grid(16, 5.0, 1), scheme="rk4", dt=0.1, t_final=0.3,
              snap_every=snap_every, sink=lambda s: times.append(s.t))
    assert times == [k * 0.1 for k in range(4)]


def test_sink_without_cadence_gets_first_and_last():
    states = []
    integrate("gray1d", make_grid(64, 50.0, 1), scheme="rk4", dt=0.1,
              t_final=1.0, sink=states.append)
    assert len(states) == 2
    assert states[0].t == 0.0 and states[-1].t == pytest.approx(1.0)


def test_partial_final_step():
    summary = integrate("gray1d", make_grid(64, 50.0, 1), scheme="rk4",
                        dt=0.1, t_final=1.05)
    assert summary.steps == 11
    assert summary.t_end == 1.05  # pinned exactly, not accumulated


def test_t_final_zero_returns_initial_state():
    summary = integrate("gray1d", make_grid(64, 50.0, 1), scheme="rk4",
                        dt=0.1, t_final=0.0)
    assert summary.steps == 0 and summary.t_end == 0.0


def test_one_step_scheme_consistency():
    # all three fourth-order schemes agree to O(dt^5) on a single step
    grid = make_grid(64, 50.0, 1)
    dt = 1e-3
    finals = {}
    for scheme in ("rk4", "etdrk4", "etdrk4b"):
        finals[scheme] = integrate("gray1d", grid, scheme=scheme, dt=dt,
                                   t_final=dt).final_state.u
    assert np.max(np.abs(finals["rk4"] - finals["etdrk4b"])) < 1e-12
    assert np.max(np.abs(finals["etdrk4"] - finals["etdrk4b"])) < 1e-12


def test_blowup_error_carries_context():
    grid = make_grid(16, 1.0, 1)
    start = constant_state(grid, -0.5)  # logistic pole in finite time
    with pytest.raises(BlowUpError) as excinfo:
        integrate("fisher1d", grid, scheme="rk4", dt=0.05, t_final=5.0,
                  initial_state=start)
    err = excinfo.value
    assert 0.0 < err.t <= 5.0
    assert err.max_abs > BLOWUP_LIMIT
    assert "fisher1d" in str(err) and "rk4" in str(err)
    # the stage that failed survives integrate's re-raise
    assert "stage" in err.detail or "update" in err.detail
    assert err.detail in str(err)
    assert "rk4 stage" in str(err) or "rk4 update" in str(err)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(BLOWUP_LIMIT, np.inf)])
def test_check_stage_rejects_non_finite_and_over_limit(bad):
    u = np.zeros((2, 8))
    u[1, 3] = bad
    with pytest.raises(BlowUpError) as excinfo:
        steppers._check_stage(u, 1.5, "rk4", "stage", 3)
    assert excinfo.value.t == 1.5 and excinfo.value.detail == "rk4 stage 3"
    # the reported size is max |u|, nan when u holds one
    np.testing.assert_equal(excinfo.value.max_abs, np.abs(u).max())
    assert "rk4 stage 3" in str(excinfo.value)


def test_blow_up_names_the_species_and_grid_index_of_the_first_bad_value():
    u = np.zeros((2, 8))
    u[1, 3] = np.nan
    with pytest.raises(BlowUpError) as excinfo:
        steppers._check_stage(u, 1.5, "rk4", "stage", 3)
    assert (excinfo.value.species, excinfo.value.index) == (1, (3,))
    assert "species 1 at grid index (3,)" in str(excinfo.value)
    # and integrate's re-raise keeps them, on a 2D grid in storage order
    grid = make_grid(16, 25.0, 2)
    start = initial_condition("gray2d", grid)
    bad = start.u.copy()
    bad[1, 2, 5] = 2.0 * BLOWUP_LIMIT
    with pytest.raises(BlowUpError) as excinfo:
        integrate("gray2d", grid, scheme="rk4", dt=0.1, t_final=0.1,
                  initial_state=State(t=0.0, u=bad, uhat=start.uhat))
    assert (excinfo.value.species, excinfo.value.index) == (1, (2, 5))
    assert "initial state" in excinfo.value.detail
    assert "species 1 at grid index (2, 5)" in str(excinfo.value)


def test_check_stage_passes_the_limit_itself():
    u = np.zeros((2, 8))
    u[0, 0], u[1, 7] = BLOWUP_LIMIT, -BLOWUP_LIMIT
    steppers._check_stage(u, 0.0, "rk4", "update")


@pytest.mark.parametrize("scheme", ["rk4", "ck45", "etdrk4", "etdrk4b", "adi"])
def test_non_finite_start_is_a_blowup_at_t0(scheme):
    dims, model = (2, "fisher2d") if scheme == "adi" else (1, "fisher1d")
    grid = make_grid(16, 25.0, dims)
    u = np.full(grid.shape, 0.5)
    u.flat[3] = np.nan
    with pytest.raises(BlowUpError) as excinfo:
        integrate(model, grid, scheme=scheme, dt=0.1, t_final=1.0,
                  initial_state=state_from_physical(grid, [u]))
    assert excinfo.value.t == 0.0
    assert scheme in str(excinfo.value)


def test_integrate_validation():
    g = make_grid(16, 1.0, 1)
    with pytest.raises(ValueError, match="valid schemes"):
        integrate("gray1d", g, scheme="euler", dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        integrate("gray1d", g, scheme="rk4", dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError, match="positive"):
        integrate("gray1d", g, scheme="rk4", dt=-0.1, t_final=1.0)
    with pytest.raises(ValueError, match="snap_every"):
        integrate("gray1d", g, scheme="rk4", dt=0.1, t_final=1.0, snap_every=0.0)


def test_integrate_names_every_problem():
    with pytest.raises(ValueError) as excinfo:
        integrate("fisher1d", make_grid(16, 5.0, 1), scheme="rk4", dt=-1,
                  t_final=np.nan, snap_every=0)
    assert str(excinfo.value) == ("dt must be positive, got -1; "
                                  "t_final must be nonnegative, got nan; "
                                  "snap_every must be positive, got 0")


def test_integrate_names_an_unknown_model_with_the_other_problems():
    with pytest.raises(ValueError) as excinfo:
        integrate("nope", scheme="euler", dt=-1, t_final=1)
    assert str(excinfo.value) == (
        "unknown model 'nope'; valid models: auto, epidemic, fisher1d, fisher2d, gray1d, "
        "gray2d, labyrinthe2d; "
        "unknown scheme 'euler'; valid schemes: rk4, ck45, etdrk4, etdrk4b, adi; "
        "dt must be positive, got -1")


def test_integrate_names_an_unknown_parameter_with_the_other_problems():
    with pytest.raises(ValueError) as excinfo:
        integrate("fisher1d", scheme="rk4", dt=-1, t_final=1, params={"bogus": 1.0})
    assert str(excinfo.value) == ("dt must be positive, got -1; unknown parameter(s) "
                                  "['bogus'] for model fisher1d; valid: ['delta']")


@pytest.mark.parametrize("params, problem", [
    ({"eps": -1.0}, "diffusivities must be nonnegative and finite, got (1.0, -1.0)"),
    # a non-finite reaction parameter used to start the run and blow up at t=0
    ({"a": np.nan}, "parameter(s) {'a': nan} for model gray1d must be finite"),
    ({"a": np.inf}, "parameter(s) {'a': inf} for model gray1d must be finite"),
    ({"a": -np.inf}, "parameter(s) {'a': -inf} for model gray1d must be finite"),
])
def test_integrate_names_a_bad_parameter_with_the_other_problems(params, problem):
    with pytest.raises(ValueError) as excinfo:
        integrate("gray1d", scheme="rk4", dt=-1, t_final=1, params=params)
    assert str(excinfo.value) == f"dt must be positive, got -1; {problem}"


@pytest.mark.parametrize("d", [np.nan, np.inf])
def test_a_diffusivity_that_is_not_finite_is_refused(d):
    spec = dataclasses.replace(get_model("gray1d"), diffusivities_of=lambda p: (1.0, d))
    with pytest.raises(ValueError, match="diffusivities must be nonnegative and finite"):
        linear_symbol(make_grid(16, 5.0, 1), (1.0, d))
    with pytest.raises(ValueError) as excinfo:
        integrate(spec, make_grid(64, 50.0, 1), scheme="rk4", dt=0.1, t_final=1)
    assert str(excinfo.value) == f"diffusivities must be nonnegative and finite, got (1.0, {d})"


def test_integrate_names_a_misshapen_start_with_the_other_problems():
    start = initial_condition("fisher1d", make_grid(32, 50.0, 1))
    with pytest.raises(ValueError) as excinfo:
        integrate("fisher1d", make_grid(64, 50.0, 1), scheme="rk4", dt=-1, t_final=1,
                  initial_state=start)
    assert str(excinfo.value) == ("dt must be positive, got -1; "
                                  "initial state u has shape (1, 32), expected (1, 64); "
                                  "initial state uhat has shape (1, 17), expected (1, 33)")


@pytest.mark.parametrize("t_final", [-1.0, np.nan])
def test_a_refused_t_final_is_not_refused_again_for_the_start_time(t_final):
    grid = make_grid(64, 50.0, 1)
    start = dataclasses.replace(initial_condition("fisher1d", grid), t=2.0)
    with pytest.raises(ValueError) as excinfo:
        integrate("fisher1d", grid, scheme="rk4", dt=0.1, t_final=t_final,
                  initial_state=start)
    assert str(excinfo.value) == f"t_final must be nonnegative, got {t_final}"


@pytest.mark.parametrize("scheme", ["rk4", "etdrk4", "etdrk4b", "adi"])
def test_a_fixed_step_scheme_refuses_a_step_control(scheme):
    model, dims = ("fisher2d", 2) if scheme == "adi" else ("fisher1d", 1)
    with pytest.raises(ValueError) as excinfo:
        integrate(model, make_grid(16, 5.0, dims), scheme=scheme, dt=0.1, t_final=1.0,
                  control=StepControl())
    assert str(excinfo.value) == f"a StepControl is read only by scheme ck45, not by {scheme}"


def test_a_start_with_the_wrong_species_is_refused():
    grid = make_grid(64, 50.0, 1)
    start = initial_condition("fisher1d", grid)  # one species; gray1d has two
    with pytest.raises(ValueError, match=r"u has shape \(1, 64\), expected \(2, 64\)"):
        integrate("gray1d", grid, scheme="rk4", dt=0.1, t_final=1.0, initial_state=start)


def test_an_adi_start_on_another_grid_is_refused():
    start = initial_condition("fisher2d", make_grid(32, 25.0, 2))
    with pytest.raises(ValueError, match=r"u has shape \(1, 32, 32\), expected \(1, 16, 16\)"):
        integrate("fisher2d", make_grid(16, 25.0, 2), scheme="adi", dt=0.1, t_final=1.0,
                  initial_state=start)


def test_only_spectral_schemes_need_the_start_spectrum():
    grid = make_grid(16, 25.0, 2)
    start = dataclasses.replace(initial_condition("fisher2d", grid), uhat=None)
    with pytest.raises(ValueError, match=r"uhat has shape None, expected \(1, 16, 9\)"):
        integrate("fisher2d", grid, scheme="rk4", dt=0.1, t_final=0.2, initial_state=start)
    summary = integrate("fisher2d", grid, scheme="adi", dt=0.1, t_final=0.2,
                        initial_state=start)
    assert summary.steps == 2 and summary.t_end == 0.2


def test_a_start_after_t_final_is_refused():
    grid = make_grid(64, 50.0, 1)
    start = dataclasses.replace(initial_condition("gray1d", grid), t=1.0)
    with pytest.raises(ValueError, match="t_final must be at least the start time 1.0, got 0.5"):
        integrate("gray1d", grid, scheme="rk4", dt=0.1, t_final=0.5, initial_state=start)
    summary = integrate("gray1d", grid, scheme="rk4", dt=0.1, t_final=1.0, initial_state=start)
    assert summary.steps == 0 and summary.t_end == 1.0


@pytest.mark.parametrize("t", [np.nan, -np.inf, np.inf])
def test_a_start_at_a_time_that_is_not_finite_is_refused(t):
    grid = make_grid(64, 50.0, 1)
    start = state_from_physical(grid, initial_condition("gray1d", grid).u, t=t)
    with pytest.raises(ValueError, match=f"initial state t must be finite, got {t}") as err:
        integrate("gray1d", grid, scheme="rk4", dt=0.1, t_final=1.0, initial_state=start)
    assert "start time" not in str(err.value)
    # named with the other problems, in one error
    with pytest.raises(ValueError, match=f"dt must be positive, got -1.0; .*finite, got {t}"):
        integrate("gray1d", grid, scheme="rk4", dt=-1.0, t_final=1.0, initial_state=start)


@pytest.mark.parametrize("given, problem", [
    ({"dt": np.nan}, "dt must be positive, got nan"),
    ({"dt": np.inf}, "dt must be finite, got inf"),
    ({"t_final": np.nan}, "t_final must be nonnegative, got nan"),
    ({"t_final": np.inf}, "t_final must be finite, got inf"),
    ({"snap_every": np.nan}, "snap_every must be positive, got nan"),
])
def test_integrate_rejects_non_finite_inputs(given, problem):
    kwargs = {"dt": 0.1, "t_final": 1.0, **given}
    with pytest.raises(ValueError) as excinfo:
        integrate("fisher1d", make_grid(16, 5.0, 1), scheme="rk4", **kwargs)
    assert str(excinfo.value) == problem


@pytest.mark.parametrize("given, problem", [
    ({"dt_max": np.inf}, "StepControl.dt_max must be finite, got inf"),
    ({"rel_tol": -1e-4}, "StepControl.rel_tol must be positive, got -0.0001"),
    ({"rel_tol": np.inf}, "StepControl.rel_tol must be finite, got inf"),
    ({"dt_max": np.nan}, "StepControl.dt_max must be positive, got nan"),
])
def test_ck45_rejects_a_step_control_out_of_bounds(given, problem):
    # a NaN largest step is rejected without ever reaching dt_min, so the
    # run would never end; a negative tolerance makes the error scale negative
    with pytest.raises(ValueError) as excinfo:
        integrate("fisher1d", make_grid(16, 5.0, 1), scheme="ck45", t_final=1.0,
                  control=StepControl(**given))
    assert str(excinfo.value) == problem


def test_tracer_patch_points_see_every_call(monkeypatch, tmp_path):
    # bench/tracing.py times each layer by rebinding these attributes, so the
    # package must call each one through them, or its traced metric reads 0
    calls = Counter()
    # the inverse layer's patch point is grid._inverse, which every inverse
    # reaches; bench/tracing.py still patches inverse_real, and must patch
    # _inverse at its next change
    for owner, name in ((spectral, "forward"), (spectral, "_inverse"),
                        (steppers, "linear_symbol"), (steppers, "_build_tables"),
                        (adi, "build_diff_matrix"), (adi.DiffMatrix, "factors"),
                        (adi, "adi_step"), (RunWriter, "__call__"), (RunWriter, "finish")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    grid = make_grid(32, 25.0, 2)
    for run in (lambda: steppers.adi_integrate("fisher2d", grid, dt=0.1, t_final=1.05),
                lambda: integrate("fisher2d", grid, scheme="adi", dt=0.1, t_final=1.05)):
        calls.clear()
        run()
        # forward: the initial and the final state
        assert calls == {"build_diff_matrix": 1, "factors": 2, "adi_step": 11, "forward": 2}

    calls.clear()
    grid = make_grid(64, 50.0, 1)
    writer = RunWriter(tmp_path, grid, "gray1d", 2)
    summary = integrate("gray1d", grid, scheme="rk4", dt=0.1, t_final=1.05,
                        snap_every=0.5, sink=writer)
    writer.finish(summary)
    # four reaction transforms and four inverse transforms a step, one more
    # forward transform for the initial state; snapshots at 0, 0.5, 1 and 1.05
    assert calls == {"_build_tables": 2, "linear_symbol": 1, "forward": 45,
                     "_inverse": 44, "__call__": 4, "finish": 1}


# -- arrays the run hands out, and the arrays it is given ---------------------------

@pytest.mark.parametrize("model, grid, scheme, dealias", [
    ("gray1d", make_grid(64, 50.0, 1), "rk4", False),
    ("gray1d", make_grid(64, 50.0, 1), "etdrk4b", False),
    ("gray2d", make_grid(16, 25.0, 2), "rk4", False),
    ("gray2d", make_grid(16, 25.0, 2), "etdrk4b", False),
    ("fisher1d", make_grid(64, 20.0, 1), "ck45", False),
    ("labyrinthe2d", make_grid(16, 100.0, 2), "ck45", False),
    ("gray2d", make_grid(16, 25.0, 2), "etdrk4", True),
    ("fisher1d", make_grid(64, 20.0, 1), "ck45", True),
], ids=lambda v: str(v) if not isinstance(v, spectral.GridSpec) else f"{v.dims}d")
def test_emitted_states_keep_their_values(model, grid, scheme, dealias):
    # the step reuses its stage buffers: a State handed to the sink must
    # hold arrays that no later step writes
    handed = []
    summary = integrate(model, grid, scheme=scheme, dt=1.0 if scheme == "ck45" else 0.5,
                        t_final=5.0, snap_every=0.01, dealias=dealias,
                        sink=lambda s: handed.append((s, s.u.copy(), s.uhat.copy())))
    if scheme == "ck45":
        assert summary.rejected > 0
    assert len(handed) == summary.accepted + 1  # the start, then every step
    assert summary.final_state is handed[-1][0]
    for state, u, uhat in handed:
        assert np.array_equal(state.u, u) and np.array_equal(state.uhat, uhat)
        # and the pair is one field: ck45's uhat is the fifth-order spectrum
        assert np.max(np.abs(spectral.inverse_real(grid, uhat) - u)) <= 1e-12


@pytest.mark.parametrize("scheme, dealias", [
    (scheme, dealias) for scheme in ("rk4", "ck45", "etdrk4", "etdrk4b")
    for dealias in (False, True)] + [("adi", False)])
def test_integrate_leaves_the_initial_state_untouched(scheme, dealias):
    grid = make_grid(16, 25.0, 2)
    start = initial_condition(get_model("fisher2d"), grid)
    u, uhat = start.u.copy(), start.uhat.copy()
    integrate("fisher2d", grid, scheme=scheme, dt=1.0 if scheme == "ck45" else 0.5,
              t_final=2.0, dealias=dealias, initial_state=start)
    assert np.array_equal(start.u, u) and np.array_equal(start.uhat, uhat)


def test_dealias_masks_reaction_contributions():
    # a band-limited field stays band-limited through a dealiased step:
    # the masked increments add nothing outside the kept band, and the
    # linear factor only scales what is already there
    # wide domain so diffusion does not flatten the high modes in one step
    grid = make_grid(48, 24.0, 1)
    x = grid.coords[0]
    w = grid.omega[0]
    # mode 10 is inside the kept band (|k| <= 16) but its square reaches 20
    u = 0.2 + 0.1 * np.sin(w[1] * x) + 0.05 * np.cos(w[10] * x)
    state = state_from_physical(grid, [u])
    mask = spectral.dealias_mask(grid)

    stepped = one_step("fisher1d", grid, "rk4", state, 0.05, dealias=True)
    out_of_band = np.abs(stepped.uhat[0][~mask])
    assert np.max(out_of_band) < 1e-11
    plain = one_step("fisher1d", grid, "rk4", state, 0.05)
    assert np.max(np.abs(plain.uhat[0][~mask])) > 1e-11  # the mask did something


def test_a_step_control_gives_the_same_run_twice():
    # the run keeps its own step proposal and counts; the control is only read
    control = StepControl(rel_tol=1e-5)
    g = make_grid(64, 50.0, 1)
    first = integrate("gray1d", g, scheme="ck45", dt=4.0, t_final=5.0, control=control)
    second = integrate("gray1d", g, scheme="ck45", dt=4.0, t_final=5.0, control=control)
    assert first.accepted > 0 and first.rejected > 0
    assert second.dt_history == first.dt_history
    assert ((second.steps, second.accepted, second.rejected, second.reaction_evals)
            == (first.steps, first.accepted, first.rejected, first.reaction_evals))
    assert np.array_equal(second.final_state.u, first.final_state.u)
    assert np.array_equal(second.final_state.uhat, first.final_state.uhat)
    assert control == StepControl(rel_tol=1e-5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        control.rel_tol = 0.5


def test_ck45_records_the_steps_it_takes():
    # at the rest state u = 1 the error estimate is 0, so every step is the
    # largest allowed, the first step dt among them, and the last is cut to
    # land on t_final
    grid = make_grid(64, get_model("fisher1d").default_grid_args[1], 1)
    start = constant_state(grid, 1.0)
    summary = integrate("fisher1d", grid, scheme="ck45", dt=10.0, t_final=12.0,
                        control=StepControl(dt_max=5.0), initial_state=start)
    assert summary.dt_history == [(5.0, 5.0), (10.0, 5.0), (12.0, 2.0)]
    assert sum(h for _, h in summary.dt_history) == summary.t_end - start.t


def test_ck45_tries_dt_first():
    # at u = 1 the first attempt is accepted, so it is the first step taken
    grid = make_grid(64, 150.0, 1)
    summary = integrate("fisher1d", grid, scheme="ck45", dt=0.05, t_final=1.0,
                        initial_state=constant_state(grid, 1.0))
    assert summary.dt_history[0] == (0.05, 0.05)


def test_a_run_without_dt_steps_by_the_default_timestep():
    g = make_grid(64, 50.0, 1)
    assert integrate("gray1d", g, scheme="rk4", t_final=0.5).steps == 5  # dt 0.1
    # a model's own default step (auto's is 0.02 for m >= 10) is ck45's first;
    # pure diffusion accepts every step
    spec = dataclasses.replace(pure_diffusion(), timestep_of=lambda p: 0.02)
    summary = integrate(spec, g, scheme="ck45", t_final=1.0)
    assert summary.dt_history[0] == (0.02, 0.02)


def test_reaction_eval_totals():
    g = make_grid(64, 50.0, 1)
    fixed = integrate("gray1d", g, scheme="rk4", dt=0.1, t_final=1.0)
    assert fixed.reaction_evals == 4 * fixed.steps
    adaptive = integrate("gray1d", g, scheme="ck45", dt=0.1, t_final=1.0,
                         control=StepControl(rel_tol=1e-4))
    assert adaptive.reaction_evals == 6 * adaptive.steps


# -- the stage loop against a plain loop of fresh arrays ---------------------------

def reference_step(N, grid, u, U, tableau):
    """The (u, U) pair of each output row of one step, summed into fresh
    arrays in the stage loop's order and transformed by the public calls."""
    stages, outputs = tableau
    Ns, out = [N(u)], []
    for i, (E, terms) in enumerate(stages + outputs):
        acc = E * U
        for j, f, *more in terms:
            term = f * Ns[j]
            for g in more:
                term = term * g
            acc = acc + term
        u_i = spectral.inverse_real(grid, acc)
        if i < len(stages):
            Ns.append(N(u_i))
        else:
            out.append((u_i, acc))
    return out


def reference_setting(name, dims, dealias):
    """(spec, grid, symbol, N, start): the model on a small grid from a
    seeded start, with N(v) = mask * FFT(rates(v)) as a fresh array,
    counting its calls in N.calls."""
    spec = get_model(name)
    grid = make_grid(64, 20.0, 1) if dims == 1 else make_grid(16, 20.0, 2)
    p = spec.params()
    mask = spectral.dealias_mask(grid) if dealias else None

    def N(v):
        N.calls += 1
        Nv = spectral.forward(grid, spec.rates(v, p))
        return Nv * mask if mask is not None else Nv
    N.calls = 0
    rng = np.random.default_rng(3)
    start = state_from_physical(grid, rng.uniform(0.1, 0.9, (spec.species, *grid.shape)))
    return spec, grid, linear_symbol(grid, spec.diffusivities_of(p)), N, start


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("scheme", ["rk4", "etdrk4", "etdrk4b"])
@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("name", MODELS)
def test_integrate_equals_a_loop_of_fresh_arrays_bit_for_bit(name, dims, scheme, dealias):
    # the stage loop inverts in place into step buffers; none of that may
    # move a bit against fresh arrays and the public transforms
    spec, grid, symbol, N, start = reference_setting(name, dims, dealias)
    dt, steps = 0.1, 8
    tableau = steppers._build_tables(scheme, symbol, dt)
    u, U = start.u, start.uhat
    for _ in range(steps):
        ((u, U),) = reference_step(N, grid, u, U, tableau)
    summary = integrate(spec, grid, scheme=scheme, dt=dt, t_final=steps * dt,
                        dealias=dealias, initial_state=start)
    assert summary.accepted == steps
    assert same_bits(summary.final_state.u, u) and same_bits(summary.final_state.uhat, U)
    assert summary.reaction_evals == N.calls == 4 * steps


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("name", MODELS)
def test_a_ck45_attempt_equals_a_loop_of_fresh_arrays_bit_for_bit(name, dims, dealias):
    spec, grid, symbol, N, start = reference_setting(name, dims, dealias)
    dt = 0.1
    tableau = steppers._build_tables("ck45", symbol, dt)

    def k(v):  # the rate dt N(v), as the attempt scales it
        return N(v) * dt
    want = reference_step(k, grid, start.u, start.uhat, tableau)
    assert N.calls == 6
    got = steppers._exp_rk_step(k, grid, start.u, start.uhat, start.t, dt, tableau, "ck45")
    assert N.calls == 12 and len(got) == len(want) == 2
    for (u, U), (u_want, U_want) in zip(got, want):
        assert same_bits(u, u_want) and same_bits(U, U_want)


# -- the half-spectrum layout and the tables each scheme builds -------------------

def full_spectrum_if_rk4_2d(spec, grid, u, p, dt, steps):
    """IF-RK4 written out with numpy's full complex FFT and its own wavenumbers."""
    (nx, ny), (lx, ly) = grid.n, grid.half_length
    wx = (np.pi / lx) * np.fft.fftfreq(nx, 1.0 / nx)
    wy = (np.pi / ly) * np.fft.fftfreq(ny, 1.0 / ny)
    lap = -(wy[:, None] ** 2 + wx[None, :] ** 2)
    L = np.stack([d * lap for d in spec.diffusivities_of(p)])
    E, E2 = np.exp(0.5 * dt * L), np.exp(dt * L)
    rates = lambda v: np.fft.fft2(spec.rates(v, p))
    uhat = np.fft.fft2(u)
    for _ in range(steps):
        k1 = dt * rates(u)
        k2 = dt * rates(np.fft.ifft2(E * (uhat + 0.5 * k1)).real)
        k3 = dt * rates(np.fft.ifft2(E * uhat + 0.5 * k2).real)
        k4 = dt * rates(np.fft.ifft2(E2 * uhat + E * k3).real)
        uhat = E2 * uhat + (E2 * k1 + 2.0 * E * (k2 + k3) + k4) / 6.0
        u = np.fft.ifft2(uhat).real
    return u


def test_half_spectrum_rk4_matches_a_full_spectrum_loop():
    spec = get_model("gray2d")
    grid = make_grid(64, 25.0, 2)
    p = spec.params()
    start = initial_condition(spec, grid, p)
    summary = integrate(spec, grid, scheme="rk4", dt=0.1, t_final=2.0, initial_state=start)
    assert summary.final_state.uhat.shape == (2, 64, 33)
    want = full_spectrum_if_rk4_2d(spec, grid, start.u, p, 0.1, 20)
    assert np.max(np.abs(summary.final_state.u - want)) <= 1e-12


def test_rk4_never_evaluates_phi(monkeypatch):
    def refuse(*args):
        raise AssertionError("rk4 evaluated a phi table")
    monkeypatch.setattr(steppers, "phi", refuse)
    summary = integrate("gray1d", make_grid(64, 50.0, 1), scheme="rk4", dt=0.1, t_final=0.25)
    assert summary.steps == 3


@pytest.mark.parametrize("scheme", ["rk4", "etdrk4", "etdrk4b"])
def test_tables_built_once_per_distinct_dt(scheme, monkeypatch):
    built = []
    real = steppers._build_tables
    monkeypatch.setattr(steppers, "_build_tables",
                        lambda name, symbol, dt:
                        built.append((name, dt)) or real(name, symbol, dt))
    # two full steps at 0.1, then a shortened one: two distinct step sizes
    integrate("gray1d", make_grid(64, 50.0, 1), scheme=scheme, dt=0.1, t_final=0.25)
    assert len(built) == len({dt for _, dt in built}) == 2
    assert all(name == scheme for name, _ in built)
