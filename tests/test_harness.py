"""Convergence-study plumbing: slope fits, sweeps, failure handling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rdspectral.grid import make_grid
from rdspectral.harness import ConvergenceStudy, convergence_study, fit_slope
from rdspectral.models import get_model


def test_fit_slope_recovers_exact_power_law():
    dts = np.array([0.4, 0.2, 0.1, 0.05])
    for p in (1.0, 2.0, 4.0):
        assert abs(fit_slope(dts, 3.7 * dts ** p) - p) < 1e-12


def test_fit_slope_drops_bad_samples():
    dts = [0.4, 0.2, 0.1, 0.05]
    # inf and zero entries are excluded from the fit
    errors = [math.inf, 0.9 * 0.2 ** 2, 0.9 * 0.1 ** 2, 0.0]
    assert abs(fit_slope(dts, errors) - 2.0) < 1e-12
    assert math.isnan(fit_slope(dts, [math.inf, math.inf, 1e-3, 0.0]))
    assert math.isnan(fit_slope([0.1], [1e-3]))


def test_study_tabulates_errors_and_slopes():
    grid = make_grid(64, 75.0, 1)
    study = convergence_study("fisher1d", schemes=("rk4", "etdrk4"),
                              dts=(0.4, 0.2), t_final=2.0, grid=grid,
                              gold_dt=0.01)
    assert study.model == "fisher1d"
    assert study.schemes == ("rk4", "etdrk4")
    assert study.dts == (0.4, 0.2)
    assert study.gold_scheme == "etdrk4b"
    for scheme in study.schemes:
        # halving dt must shrink a 4th-order scheme's error markedly
        assert study.error(scheme, 0.2) < 0.2 * study.error(scheme, 0.4)
        assert 3.0 < study.slopes[scheme] < 5.0
    csv = study.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "scheme,dt,max_abs_error,fitted_slope"
    assert len(lines) == 5
    # csv cells round-trip the tabulated doubles exactly
    cells = lines[1].split(",")
    assert cells[0] == "rk4"
    assert float(cells[1]) == 0.4
    assert float(cells[2]) == study.error("rk4", 0.4)


def test_member_blowup_records_inf_and_sweep_continues():
    grid = make_grid(64, 75.0, 1)
    study = convergence_study("fisher1d", schemes=("rk4",), dts=(10.0, 0.5),
                              t_final=15.0, grid=grid,
                              gold_scheme="rk4", gold_dt=0.1)
    assert study.error("rk4", 10.0) == math.inf
    assert math.isfinite(study.error("rk4", 0.5))
    assert math.isnan(study.slopes["rk4"])  # one finite point can't fit


def test_member_programming_error_propagates():
    # only blow-ups and step failures become infinite errors: the gold run
    # (one rk4 step, four reaction calls) succeeds, the member run raises
    spec = get_model("fisher1d")
    calls = []

    def rates(u, p):
        calls.append(1)
        if len(calls) > 4:
            raise TypeError("bad reaction")
        return spec.rates(u, p)
    broken = replace(spec, rates=rates)
    with pytest.raises(TypeError, match="bad reaction"):
        convergence_study(broken, schemes=("rk4",), dts=(0.25,), t_final=0.5,
                          grid=make_grid(64, 75.0, 1), gold_scheme="rk4", gold_dt=0.5)


def test_gold_blowup_aborts_study():
    from rdspectral.steppers import BlowUpError
    grid = make_grid(64, 75.0, 1)
    with pytest.raises(BlowUpError):
        convergence_study("fisher1d", schemes=("rk4",), dts=(0.5,),
                          t_final=100.0, grid=grid,
                          gold_scheme="rk4", gold_dt=50.0)


def test_study_dispatches_adi_and_ck45():
    grid = make_grid(32, 25.0, 2)
    study = convergence_study("fisher2d", schemes=("adi", "rk4"), dts=(0.2,),
                              t_final=0.5, grid=grid,
                              gold_scheme="rk4", gold_dt=0.01)
    adi_err = study.error("adi", 0.2)
    rk4_err = study.error("rk4", 0.2)
    assert math.isfinite(adi_err) and math.isfinite(rk4_err)
    assert adi_err > rk4_err  # 2nd order vs 4th order at the same step

    grid1 = make_grid(64, 75.0, 1)
    adaptive = convergence_study("fisher1d", schemes=("ck45",),
                                 dts=(1e-3, 1e-6), t_final=2.0, grid=grid1,
                                 gold_dt=0.01)
    loose, tight = adaptive.errors["ck45"]
    assert tight < loose  # swept value is the tolerance


def test_all_members_share_the_gold_initial_state():
    # dt exactly t_final: one step per member; errors must be identical
    # across repeated studies (deterministic ICs, no hidden state)
    grid = make_grid(64, 75.0, 1)
    kwargs = dict(schemes=("rk4",), dts=(0.5,), t_final=0.5, grid=grid,
                  gold_dt=0.01)
    a = convergence_study("fisher1d", **kwargs)
    b = convergence_study("fisher1d", **kwargs)
    assert a.error("rk4", 0.5) == b.error("rk4", 0.5)


def test_frozen_study_rows_are_immutable():
    study = ConvergenceStudy(model="m", t_final=1.0, schemes=("rk4",),
                             dts=(0.1,), gold_scheme="etdrk4b", gold_dt=1e-3,
                             errors={"rk4": (1e-3,)}, slopes={"rk4": 4.0})
    with pytest.raises(AttributeError):
        study.model = "other"
