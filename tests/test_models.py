import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdspectral.grid import make_grid
from rdspectral.postprocess import front_speed, trace_front
from rdspectral.steppers import integrate
from rdspectral.models import (MODELS, ModelSpec, cubic_root_u_minus, default_grid,
                               default_timestep, get_model, initial_condition)

ALL_NAMES = ("fisher1d", "fisher2d", "epidemic", "gray1d", "gray2d",
             "auto", "labyrinthe2d")


def test_registry_contents():
    assert tuple(MODELS) == ALL_NAMES
    assert {s.species for s in MODELS.values()} == {1, 2}
    for spec in MODELS.values():
        n, L, dims = spec.default_grid_args
        assert n % 2 == 0 and L > 0 and dims in (1, 2)


def test_get_model_unknown():
    with pytest.raises(ValueError, match="valid models"):
        get_model("brusselator")


def test_param_merging_and_validation():
    spec = get_model("gray1d")
    merged = spec.params({"eps": 0.02})
    assert merged == {"a": 9.0, "b": 0.4, "eps": 0.02}
    assert spec.params() == spec.default_params
    with pytest.raises(ValueError, match="unknown parameter"):
        spec.params({"gamma": 1.0})


def test_default_timestep():
    assert default_timestep(get_model("gray1d")) == 0.1
    assert default_timestep(get_model("auto")) == 0.1  # default m = 9
    assert default_timestep(get_model("auto"), {"m": 10.0}) == 0.02
    assert default_timestep(get_model("auto"), {"m": 2.0}) == 0.1


def test_default_timestep_reads_the_model_not_its_name():
    copy = dataclasses.replace(get_model("auto"), name="auto-copy")
    assert default_timestep(copy, {"m": 10.0}) == 0.02
    assert default_timestep(copy) == 0.1


def test_vectorized_reactions_match_scalar_loops_exactly():
    # the fixed association order makes vector and scalar paths bitwise equal
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.2, 64)
    v = rng.uniform(0.0, 0.5, 64)

    spec = get_model("gray1d")
    p = spec.params()
    A, B = p["eps"] * p["a"], p["eps"] ** (1.0 / 3.0) * p["b"]
    ru, rv = spec.rates(np.array([u, v]), p)
    for i in range(64):
        uvv = u[i] * (v[i] * v[i])
        assert ru[i] == -uvv + A * (1.0 - u[i])
        assert rv[i] == uvv - B * v[i]

    (rf,) = get_model("fisher1d").rates(u[None], get_model("fisher1d").params())
    for i in range(64):
        assert rf[i] == u[i] * (1.0 - u[i])

    spec = get_model("labyrinthe2d")
    p = spec.params()
    ru, rv = spec.rates(np.array([u, v]), p)
    for i in range(64):
        assert ru[i] == u[i] - u[i] * (u[i] * u[i]) - v[i]
        assert rv[i] == p["delta"] * (u[i] - p["a1"] * v[i] - p["a0"])


# each model's kinetics as the one np.array([...]) expression it was first
# written as, association order included
STACKED_RATES = {
    "fisher": lambda u, p: np.array([u[0] * (1.0 - u[0])]),
    "epidemic": lambda u, p: np.array([u[0] * (u[1] - p["lam"]), -(u[0] * u[1])]),
    "gray": lambda u, p: np.array([
        -(u[0] * (u[1] * u[1])) + p["eps"] * p["a"] * (1.0 - u[0]),
        u[0] * (u[1] * u[1]) - p["eps"] ** (1.0 / 3.0) * p["b"] * u[1]]),
    "auto": lambda u, p: np.array([u[1] * np.maximum(u[0], 0.0) ** p["m"],
                                   -(u[1] * np.maximum(u[0], 0.0) ** p["m"])]),
    "labyrinthe": lambda u, p: np.array([
        u[0] - u[0] * (u[0] * u[0]) - u[1],
        p["delta"] * (u[0] - p["a1"] * u[1] - p["a0"])]),
}


@pytest.mark.parametrize("spec", MODELS.values(), ids=MODELS)
def test_rates_write_a_fresh_output_and_keep_their_bits(spec):
    # a stage hands rates a buffer the next stage overwrites: rates must
    # neither write it nor return memory that shares it
    stacked = next(f for key, f in STACKED_RATES.items() if spec.name.startswith(key))
    p = spec.params()
    u = np.random.default_rng(5).uniform(-0.5, 1.5, (spec.species, 16, 16))
    before = u.copy()
    rates = spec.rates(u, p)
    assert np.array_equal(u, before)
    assert not np.shares_memory(rates, u)
    expected = stacked(u, p)
    assert rates.dtype == expected.dtype and rates.shape == expected.shape
    assert rates.tobytes() == expected.tobytes()


def test_auto_reaction_clamps_negative_u():
    spec = get_model("auto")
    ru, rv = spec.rates(np.array([[-0.3, 0.0, 0.5], [1.0, 1.0, 1.0]]), spec.params({"m": 2.0}))
    assert np.array_equal(ru, [0.0, 0.0, 0.25])
    assert np.array_equal(rv, -ru)


def test_auto_high_order_pow_matches_squaring():
    # max(u,0)**m via np.power agrees with binary exponentiation closely
    u = np.sin(np.linspace(0.1, 1.5, 33))
    direct = u ** 64
    by_squaring = u.copy()
    for _ in range(6):
        by_squaring = by_squaring * by_squaring
    assert np.allclose(direct, by_squaring, rtol=1e-12)


def test_gray_parameter_groups():
    # the registry folds (a, b, eps) into A = eps*a, B = eps^(1/3)*b
    spec = get_model("gray1d")
    p = spec.params()
    u = np.array([[0.9, 0.4], [0.1, 0.3]])
    rates = spec.rates(u, p)
    A = 0.01 * 9.0
    B = 0.01 ** (1.0 / 3.0) * 0.4
    expect_u = -(u[0] * (u[1] * u[1])) + A * (1.0 - u[0])
    expect_v = u[0] * (u[1] * u[1]) - B * u[1]
    assert np.array_equal(rates[0], expect_u)
    assert np.array_equal(rates[1], expect_v)


def test_reaction_fixed_points():
    fisher = get_model("fisher1d")
    assert np.array_equal(fisher.rates(np.array([[0.0, 1.0]]), fisher.params()), [[0.0, 0.0]])
    # gray rest state (u, v) = (1, 0)
    gray = get_model("gray1d")
    ru, rv = gray.rates(np.array([1.0, 0.0]), gray.params())
    assert ru == 0.0 and rv == 0.0


def test_cubic_root_frozen_value():
    # bisection oracle, 200 halvings of [-2, -0.5] on 2u^3 - u + 0.1
    assert cubic_root_u_minus(-0.1, 2.0) == pytest.approx(
        -0.7526185717716967, abs=1e-15)


@given(st.floats(-0.5, 0.5), st.floats(1.5, 4.0))
def test_cubic_root_is_a_root(a0, a1):
    u = cubic_root_u_minus(a0, a1)
    assert abs(a1 * u ** 3 + (1.0 - a1) * u - a0) < 1e-12


def test_labyrinthine_rest_state_is_stationary():
    spec = get_model("labyrinthe2d")
    p = spec.params()
    u_minus = cubic_root_u_minus(p["a0"], p["a1"])
    v_minus = (u_minus - p["a0"]) / p["a1"]
    rates = spec.rates(np.array([[[u_minus]], [[v_minus]]]), p)
    assert np.all(np.abs(rates) < 1e-12)


def test_labyrinthine_start_refuses_a_zero_feedback_slope():
    # the rest state's v is (u - a0) / a1
    with pytest.raises(ValueError) as excinfo:
        initial_condition("labyrinthe2d", make_grid(16, 10.0, 2), {"a1": 0.0})
    assert str(excinfo.value) == "the labyrinthine initial state needs a1 != 0, got a1=0.0"


def test_fisher1d_ic_formula():
    grid = make_grid(64, 10.0, 1)
    state = initial_condition("fisher1d", grid, {"delta": 2.0})
    x = grid.coords[0]
    assert np.array_equal(state.u[0], 1.0 / (2.0 * np.cosh(2.0 * x)))
    assert state.t == 0.0


def test_fisher1d_default_grid_resolves_the_steep_start():
    # delta=2 is the steepest start of criterion 1; on a grid too coarse
    # for it the front leaves a negative undershoot and runs slow
    spec = get_model("fisher1d")
    grid = default_grid(spec)
    states = []
    integrate(spec, grid, scheme="rk4", dt=0.1, t_final=25.0, snap_every=1.0,
              sink=states.append, params={"delta": 2.0})
    assert min(float(s.u[0].min()) for s in states) >= -1e-5
    speed = front_speed(trace_front(states, grid, threshold=1e-4))
    assert abs(speed - 2.0) <= 0.02 * 2.0


def test_gray1d_ic_profile():
    grid = make_grid(128, 50.0, 1)
    state = initial_condition("gray1d", grid)
    u, v = state.u
    # perturbation is a sin^100 hump: u dips to 1/2 where v peaks at 1/4
    assert v.max() == pytest.approx(0.25, abs=1e-6)
    assert u.min() == pytest.approx(0.5, abs=1e-6)
    assert np.array_equal(u, 1.0 - 2.0 * v)


def test_gray2d_asymmetry_flag():
    grid = make_grid(32, 25.0, 2)
    sym = initial_condition("gray2d", grid).u
    asym = initial_condition("gray2d", grid, {"asym": 1.0}).u
    assert np.array_equal(sym[1], sym[1].T)        # radial: symmetric in x/y
    assert not np.array_equal(asym[1], asym[1].T)  # elliptical: not


def test_all_initial_conditions_shape_and_determinism():
    for name, spec in MODELS.items():
        grid = default_grid(spec)
        a = initial_condition(name)
        b = initial_condition(name)
        assert a.u.shape == (spec.species,) + grid.shape
        assert np.array_equal(a.u, b.u)  # no hidden randomness
        assert np.all(np.isfinite(a.u))


@settings(max_examples=20)
@given(st.sampled_from(ALL_NAMES),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_reactions_vectorize_and_stay_finite(name, lo, hi):
    spec = get_model(name)
    rng = np.random.default_rng(0)
    u = rng.uniform(min(lo, hi), max(lo, hi), (spec.species, 3, 5))
    rates = spec.rates(u, spec.params())
    assert rates.shape == u.shape
    assert np.all(np.isfinite(rates))


def test_diffusivities():
    assert get_model("fisher1d").diffusivities_of({"delta": 1.0}) == (1.0,)
    assert get_model("gray1d").diffusivities_of(get_model("gray1d").params()) == (1.0, 0.01)
    p = get_model("labyrinthe2d").params()
    assert get_model("labyrinthe2d").diffusivities_of(p) == (1.0, p["eps"])


@pytest.mark.parametrize("spec", MODELS.values(), ids=MODELS)
def test_every_model_has_one_nonnegative_diffusivity_per_species(spec):
    d = spec.diffusivities_of(spec.params())
    assert len(d) == spec.species
    assert all(value >= 0.0 for value in d)


def test_model_spec_without_its_callables_fails_when_built():
    parts = dict(name="bare", species=1, default_params={},
                 default_grid_args=(16, 1.0, 1), equations="u_t = u_xx")
    with pytest.raises(TypeError, match="rates"):
        ModelSpec(**parts)
    callables = dict(rates=lambda u, p: 0.0 * u, diffusivities_of=lambda p: (1.0,),
                     ic=lambda g, p: np.zeros((1,) + g.shape))
    for missing in callables:
        with pytest.raises(TypeError, match=missing):
            ModelSpec(**parts, **{k: f for k, f in callables.items() if k != missing})


@pytest.mark.parametrize("spec", MODELS.values(), ids=MODELS)
def test_rates_broadcast_over_a_member_axis(spec):
    # an ensemble stacks members on an axis after species, with each
    # parameter a (members, 1) column; every member's rates are then the
    # bits it gets alone
    members, n = 4, 9
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.5, 1.5, (spec.species, members, n))
    base = spec.params()
    columns = {k: np.array([[v * (1.0 + 0.1 * b)] for b in range(members)])
               for k, v in base.items()}
    if "m" in base:  # the reaction order stays an integer
        columns["m"] = np.array([[base["m"] + b] for b in range(members)])
    together = spec.rates(u, columns)
    assert together.shape == u.shape
    for b in range(members):
        alone = spec.rates(u[:, b], {k: float(c[b, 0]) for k, c in columns.items()})
        assert np.array_equal(together[:, b], alone)
