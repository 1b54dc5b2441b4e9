import numpy as np
import pytest

from rdspectral import grid as spectral
from rdspectral.adi import adi_integrate, adi_step, build_diff_matrix
from rdspectral.grid import make_grid, state_from_physical
from rdspectral.models import get_model, initial_condition
from rdspectral.steppers import BlowUpError, integrate


def spectral_conjugation_oracle(n, half_length):
    """D = F^-1 diag(-omega^2) F, column by column, no symmetrization."""
    omega = (np.pi / half_length) * np.concatenate(
        (np.arange(0, n // 2 + 1), np.arange(-n // 2 + 1, 0)))
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        out[:, j] = np.fft.ifft(-omega ** 2 * np.fft.fft(e)).real
    return out


def test_matches_conjugation_oracle():
    for n, L in ((16, 1.0), (32, 25.0)):
        diff = build_diff_matrix(n, L)
        oracle = spectral_conjugation_oracle(n, L)
        scale = (np.pi / L * (n // 2)) ** 2
        assert np.max(np.abs(diff.matrix - oracle)) < 1e-10 * scale


def test_row_sums_vanish():
    diff = build_diff_matrix(64, 25.0)
    # constants are in the nullspace of d^2/dx^2
    assert np.max(np.abs(diff.matrix.sum(axis=1))) < 1e-10


def test_symmetric():
    diff = build_diff_matrix(64, 25.0)
    assert np.max(np.abs(diff.matrix - diff.matrix.T)) < 1e-12


@pytest.mark.parametrize("n", [16, 64, 256])
def test_explicit_factor_is_exactly_symmetric(n):
    # adi_step applies the one explicit factor from both sides
    diff = build_diff_matrix(n, 25.0)
    assert np.array_equal(diff.matrix, diff.matrix.T)
    for dt in (0.1, 0.05, 0.0333):
        explicit = diff.factors(dt, 1.0).explicit_left
        assert np.array_equal(explicit, explicit.T)


def test_cosines_are_eigenvectors():
    n, L = 32, 25.0
    diff = build_diff_matrix(n, L)
    x = -L + (2.0 * L / n) * np.arange(n)
    for k in range(1, n // 2):  # below the Nyquist mode
        w = np.pi * k / L
        vec = np.cos(w * x)
        assert np.max(np.abs(diff.matrix @ vec + w ** 2 * vec)) < 1e-8 * w ** 2


def test_matrix_is_readonly():
    diff = build_diff_matrix(16, 1.0)
    with pytest.raises(ValueError):
        diff.matrix[0, 0] = 1.0


def test_build_validation():
    with pytest.raises(ValueError, match="even n"):
        build_diff_matrix(15, 1.0)
    with pytest.raises(ValueError, match="even n"):
        build_diff_matrix(2, 1.0)
    with pytest.raises(ValueError, match="positive"):
        build_diff_matrix(16, 0.0)


def test_factors_memoized_and_validated():
    diff = build_diff_matrix(16, 1.0)
    with pytest.raises(ValueError, match="positive"):
        diff.factors(-0.1)


def test_non_finite_sizes_are_refused():
    with pytest.raises(ValueError, match="half_length must be positive, got nan"):
        build_diff_matrix(16, float("nan"))
    diff = build_diff_matrix(16, 1.0)
    with pytest.raises(ValueError, match="dt must be positive, got nan"):
        diff.factors(float("nan"))
    with pytest.raises(ValueError, match="dt must be finite, got inf"):
        diff.factors(float("inf"))


def test_one_mode_step_matches_analytic_factor():
    # pure diffusion of cos(w x) under Peaceman-Rachford multiplies each
    # direction by (1 - h w^2) / (1 + h w^2) with h = dt/2
    n, L, dt = 32, np.pi, 0.05
    diff = build_diff_matrix(n, L)
    fac = diff.factors(dt, 1.0)
    x = -L + (2.0 * L / n) * np.arange(n)
    k = 3
    u = np.cos(k * x)[None, :] * np.cos(k * x)[:, None]
    stepped = adi_step(u, lambda f: np.zeros_like(f), fac)
    h = 0.5 * dt
    factor = (1.0 - h * k ** 2) / (1.0 + h * k ** 2)
    assert np.max(np.abs(stepped - factor ** 2 * u)) < 1e-12


def test_heat_equation_norms_monotone():
    # Smooth hump under pure diffusion. The one-mode factor
    # (1 - h w^2)/(1 + h w^2) has magnitude <= 1 for every mode, so the
    # L2 norm contracts at any step size. The discrete maximum is only
    # guaranteed once the field is resolved: at large h the factors of
    # unresolved modes approach -1 and sign-flip, which on a coarse grid
    # can tick the peak up transiently. n=64 on L=25 resolves the hump.
    n = 64
    grid = make_grid(n, 25.0, 2)
    X, Y = grid.mesh()
    u0 = 0.2 * np.exp(-0.25 * (X * X + Y * Y))
    diff = build_diff_matrix(n, 25.0)
    for dt in (0.01, 0.1, 1.0, 10.0):
        fac = diff.factors(dt, 1.0)
        u = u0.copy()
        peaks = [np.max(np.abs(u))]
        l2 = [np.linalg.norm(u)]
        for _ in range(20):
            u = adi_step(u, lambda f: np.zeros_like(f), fac)
            peaks.append(np.max(np.abs(u)))
            l2.append(np.linalg.norm(u))
        assert all(b <= a + 1e-13 for a, b in zip(peaks, peaks[1:])), dt
        assert all(b <= a + 1e-13 for a, b in zip(l2, l2[1:])), dt


def test_fisher_bounds_preserved():
    grid = make_grid(64, 25.0, 2)
    summary = adi_integrate("fisher2d", grid, dt=0.1, t_final=5.0)
    u = summary.final_state.u[0]
    assert u.min() > -1e-12
    assert u.max() < 1.0 + 1e-3


def test_t_final_zero_is_identity():
    grid = make_grid(32, 25.0, 2)
    summary = adi_integrate("fisher2d", grid, dt=0.1, t_final=0.0)
    start = get_model("fisher2d").ic(grid, {})
    assert summary.steps == 0
    assert np.array_equal(summary.final_state.u, np.stack(start))


def test_partial_final_step_lands_exactly():
    grid = make_grid(32, 25.0, 2)
    summary = adi_integrate("fisher2d", grid, dt=0.1, t_final=0.55)
    assert summary.steps == 6
    assert summary.t_end == 0.55


def test_summary_accounting():
    grid = make_grid(32, 25.0, 2)
    summary = adi_integrate("fisher2d", grid, dt=0.1, t_final=1.0)
    assert summary.scheme == "adi"
    assert summary.steps == 10 and summary.accepted == 10 and summary.rejected == 0
    assert summary.reaction_evals == 2 * summary.steps
    assert summary.dense_time > 0.0
    assert summary.wall_time >= summary.dense_time


def test_snapshot_cadence():
    grid = make_grid(32, 25.0, 2)
    times = []
    adi_integrate("fisher2d", grid, dt=0.1, t_final=1.0, snap_every=0.5,
                  sink=lambda s: times.append(s.t))
    assert np.allclose(times, [0.0, 0.5, 1.0], atol=1e-9)


def test_grid_requirements():
    with pytest.raises(ValueError, match="two-dimensional"):
        adi_integrate("fisher2d", make_grid(32, 25.0, 1), dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="square"):
        adi_integrate("fisher2d", make_grid((32, 64), 25.0, 2), dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="single-species"):
        adi_integrate("gray2d", make_grid(32, 25.0, 2), dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="the ADI scheme needs n >= 4, got 2"):
        adi_integrate("fisher2d", make_grid(2, 5.0, 2), dt=0.1, t_final=0.2)
    with pytest.raises(ValueError, match="positive"):
        adi_integrate("fisher2d", make_grid(32, 25.0, 2), dt=0.0, t_final=1.0)


def test_blowup_reported_with_scheme_tag():
    grid = make_grid(16, 25.0, 2)
    start = state_from_physical(grid, [np.full(grid.shape, -0.5)])
    with pytest.raises(BlowUpError) as excinfo:
        adi_integrate("fisher2d", grid, dt=0.5, t_final=50.0,
                      initial_state=start)
    assert "adi" in str(excinfo.value)
    assert excinfo.value.max_abs > 1e10


def test_integrate_dispatches_adi():
    grid = make_grid(32, 25.0, 2)
    times = []
    via_integrate = integrate("fisher2d", grid, scheme="adi", dt=0.1, t_final=1.05,
                           snap_every=0.5, sink=lambda s: times.append(s.t))
    direct = adi_integrate("fisher2d", grid, dt=0.1, t_final=1.05)
    assert np.array_equal(via_integrate.final_state.u, direct.final_state.u)
    assert via_integrate.scheme == "adi" and via_integrate.steps == direct.steps == 11
    assert via_integrate.reaction_evals == direct.reaction_evals
    assert np.allclose(times, [0.0, 0.5, 1.0, 1.05], atol=1e-9)


def test_reusing_diff_matrix_across_dts():
    grid = make_grid(32, 25.0, 2)
    a = adi_integrate("fisher2d", grid, dt=0.1, t_final=0.5)
    b = adi_integrate("fisher2d", grid, dt=0.05, t_final=0.5)
    # finer step should be at least as close to the gold as the coarse one
    gold = adi_integrate("fisher2d", grid, dt=0.01, t_final=0.5)
    ea = np.max(np.abs(a.final_state.u - gold.final_state.u))
    eb = np.max(np.abs(b.final_state.u - gold.final_state.u))
    assert eb < ea


def test_final_snapshot_is_transformed_once(monkeypatch):
    grid = make_grid(32, 25.0, 2)
    start = initial_condition("fisher2d", grid)
    calls = []
    real = spectral.forward
    monkeypatch.setattr(spectral, "forward", lambda g, f: calls.append(1) or real(g, f))
    states = []
    summary = adi_integrate("fisher2d", grid, dt=0.1, t_final=1.0, snap_every=0.5,
                            sink=states.append, initial_state=start)
    assert [s.t for s in states] == pytest.approx([0.0, 0.5, 1.0])
    assert len(calls) == 2          # one each for the states at t=0.5 and t=1.0
    assert summary.final_state is states[-1]


def test_adi_rejects_dealias():
    with pytest.raises(ValueError, match="adi cannot dealias"):
        integrate("fisher2d", make_grid(16, 20.0, 2), scheme="adi", dt=0.1,
                  t_final=0.2, dealias=True)
