"""Oracles for the phi functions and the ETD coefficients built from them.

Table slot k holds the standard function of order k + 1: slot 0 is
(e^z - 1)/z, slot 1 is (e^z - 1 - z)/z^2, slot 2 adds the z^2/2 term.
Three independent oracles pin the values: a truncated Taylor series where
it converges fast enough to be trusted, 50-digit closed-form evaluation
everywhere else, and the 32-point complex contour mean of Kassam &
Trefethen (SIAM J. Sci. Comput. 26, 2005), against which whole ETD
coefficient tables are compared.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdspectral import steppers
from rdspectral.grid import make_grid
from rdspectral.models import MODELS, default_grid, get_model
from rdspectral.steppers import (PHI_SERIES_THRESHOLD, _build_tables, integrate,
                                 linear_symbol, phi)


def phi_series(slot: int, z, terms: int = 30):
    """Taylor series sum_i z^i / (i + slot + 1)! by Horner.

    The tail after 30 terms is below 1e-13 relative for |z| <= 5, so the
    oracle is only meaningful there.
    """
    order = slot + 1
    z = np.asarray(z, dtype=float)
    total = np.zeros_like(z)
    for i in reversed(range(terms)):
        total = total * z + 1.0 / math.factorial(i + order)
    return total


def phi_mp(slot: int, z: float) -> float:
    """Closed form at 50 digits; exact for any magnitude."""
    with mpmath.workdps(50):
        zz = mpmath.mpf(z)
        e = mpmath.e ** zz
        if slot == 0:
            val = (e - 1) / zz
        elif slot == 1:
            val = (e - 1 - zz) / zz ** 2
        else:
            val = (e - 1 - zz - zz ** 2 / 2) / zz ** 3
        return float(val)


def test_series_oracle_small_arguments():
    z = -np.logspace(-8, np.log10(4.0), 400)
    for slot in (0, 1, 2):
        got = phi(slot, z)
        want = phi_series(slot, z)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_mp_oracle_full_range():
    z = -np.logspace(-8, 2, 300)
    for slot in (0, 1, 2):
        got = phi(slot, z)
        want = np.array([phi_mp(slot, v) for v in z])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


def test_values_at_moderate_argument():
    # frozen spot checks straight from the closed forms at z = -1
    assert phi(0, -1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert phi(1, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)
    assert phi(2, -1.0) == pytest.approx(0.5 - math.exp(-1.0), rel=1e-13)


def test_limits_at_zero():
    # the singularity is removable: phi_k(0) = 1/(k+1)! in table indexing
    assert phi(0, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert phi(1, 0.0) == pytest.approx(0.5, abs=1e-13)
    assert phi(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_series_agrees_with_direct_formula_near_threshold():
    # on both sides of the threshold neither the series nor the direct
    # formula has lost digits yet, so the two methods must agree
    from rdspectral.steppers import _phi_direct, _phi_series
    magnitudes = np.linspace(0.45, 0.55, 101)
    assert magnitudes[0] < PHI_SERIES_THRESHOLD < magnitudes[-1]
    z = np.concatenate([-magnitudes, magnitudes])
    e = np.exp(z)
    for slot, series in enumerate(_phi_series(z)):
        direct = _phi_direct(slot, z, e)
        assert np.max(np.abs(series - direct) / np.abs(direct)) < 1e-13
        got = phi(slot, z)
        inside = np.abs(z) <= PHI_SERIES_THRESHOLD
        assert np.array_equal(got[inside], series[inside])
        assert np.array_equal(got[~inside], direct[~inside])


def test_shared_exponentials_give_the_same_bits():
    # the orders at one argument share exp(z) and the series, and any set
    # of orders still gives each order's bits as phi gives them alone
    spec = get_model("gray2d")
    symbol = linear_symbol(make_grid(32, 25.0, 2), spec.diffusivities_of(spec.params()))
    arguments = (symbol * 0.1, 0.05 * symbol, np.linspace(-3.0, 0.0, 61), -0.25, -2.0,
                 np.array([0.3 + 0.1j, -1.0 + 2.0j, 0.0j]))
    order_sets = [orders for r in (1, 2, 3) for orders in itertools.permutations((0, 1, 2), r)]
    for z in arguments:
        alone = [phi(k, z) for k in (0, 1, 2)]
        for orders in order_sets:
            for k, got in zip(orders, steppers._phis(z, orders)):
                assert np.array_equal(got, alone[k])
                assert np.iscomplexobj(got) == np.iscomplexobj(z)


def _phi_contour(k, z):
    # the mean of the direct formula over 32 points on the unit circle
    # centred at z, near the origin; the direct formula elsewhere
    from rdspectral.steppers import _phi_direct
    flat = np.asarray(z).ravel().astype(complex)
    out = np.empty(flat.shape, dtype=complex)
    small = np.abs(flat) <= 0.5
    far = flat[~small]
    ring = flat[small, None] + np.exp(2j * np.pi * np.arange(32) / 32)
    out[~small] = _phi_direct(k, far, np.exp(far))
    out[small] = _phi_direct(k, ring, np.exp(ring)).mean(axis=-1)
    return out.reshape(np.shape(z)).real


def _coefficient_arrays(tableau):
    # every array in a tableau, in row order: each row's E, then each term's factors
    stages, outputs = tableau
    for E, terms in stages + outputs:
        yield E
        for _, *factors in terms:
            yield from (f for f in factors if isinstance(f, np.ndarray))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_etd_tables_agree_with_the_contour_oracle(model, monkeypatch):
    spec = get_model(model)
    symbol = linear_symbol(default_grid(spec), spec.diffusivities_of(spec.params()))
    for scheme, dt in itertools.product(("etdrk4", "etdrk4b"), (0.01, 0.1, 1.0)):
        with monkeypatch.context() as patch:
            patch.setattr(steppers, "_phis",
                          lambda z, orders: [_phi_contour(k, z) for k in orders])
            want = list(_coefficient_arrays(_build_tables(scheme, symbol, dt)))
        got = list(_coefficient_arrays(_build_tables(scheme, symbol, dt)))
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), (scheme, dt)


def test_complex_input_matches_direct_formula():
    z = np.array([1.0 + 1.0j, -2.0 + 0.5j, 3.0j])
    got = phi(0, z)
    want = (np.exp(z) - 1.0) / z
    assert np.allclose(got, want, rtol=1e-12)
    assert np.iscomplexobj(got)


def test_real_input_returns_real():
    out = phi(1, np.array([-0.1, -0.01]))
    assert not np.iscomplexobj(out)


def test_phi_rejects_unknown_slot():
    with pytest.raises(ValueError, match="phi index"):
        phi(3, -1.0)


@given(st.floats(-50.0, -1e-6))
def test_recurrence_hypothesis(z):
    # standard-index recurrence z phi_{k+1} = phi_k - 1/k! for k = 1, 2
    assert z * phi(1, z) == pytest.approx(phi(0, z) - 1.0, abs=1e-10)
    assert z * phi(2, z) == pytest.approx(phi(1, z) - 0.5, abs=1e-10)


def test_recurrence_on_built_tables():
    # on the arguments the ETD builders use: z = L dt and z / 2
    spec = get_model("gray1d")
    grid = make_grid(512, 50.0, 1)
    symbol = linear_symbol(grid, spec.diffusivities_of(spec.params()))
    for dt in (0.1, 0.01):
        z = symbol * dt
        p0, p1, p2 = phi(0, z), phi(1, z), phi(2, z)
        assert np.max(np.abs(z * p1 - (p0 - 1.0))) < 1e-10
        assert np.max(np.abs(z * p2 - (p1 - 0.5))) < 1e-10
        zh = 0.5 * z
        assert np.max(np.abs(zh * phi(1, zh) - (phi(0, zh) - 1.0))) < 1e-10


def test_tables_cached_per_dt(monkeypatch):
    # every step at one dt reuses one tableau; the shortened last step gets its own
    used = []
    real = steppers._exp_rk_step
    monkeypatch.setattr(steppers, "_exp_rk_step", lambda *args: used.append(args) or real(*args))
    integrate("gray1d", make_grid(64, 50.0, 1), scheme="etdrk4b", dt=0.1, t_final=0.35)
    (*full, last) = [(args[5], args[6]) for args in used]
    assert [dt for dt, _ in full] == [0.1, 0.1, 0.1] and last[0] < 0.1
    assert full[0][1] is full[1][1] is full[2][1]
    assert last[1] is not full[0][1]


def test_stage_weight_combinations():
    # the ETD output row's weights are fixed combinations of the phi values
    spec = get_model("gray1d")
    grid = make_grid(64, 50.0, 1)
    symbol = linear_symbol(grid, spec.diffusivities_of(spec.params()))
    dt = 0.05
    z = symbol * dt
    p0, p1, p2 = phi(0, z), phi(1, z), phi(2, z)
    for scheme in ("etdrk4", "etdrk4b"):
        _, ((E, terms),) = _build_tables(scheme, symbol, dt)
        assert [j for j, _ in terms] == [0, 1, 2, 3]
        w1, w2, w3, w4 = (w / dt for _, w in terms)
        assert np.array_equal(E, np.exp(z))
        assert np.allclose(w1, 4 * p2 - 3 * p1 + p0)
        assert np.allclose(w2, 2 * (p1 - 2 * p2)) and np.array_equal(w2, w3)
        assert np.allclose(w4, 4 * p2 - p1)
        # the three update weights resum to phi0 = phi_1 (consistency: they
        # weight stages whose coefficients add to one application of phi_1)
        assert np.allclose(w1 + 2 * w2 + w4, p0)
