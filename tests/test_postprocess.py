"""Upsampling, front tracking, and pulse counting."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdspectral.grid import make_grid
from rdspectral.postprocess import (
    FrontTrace,
    fourier_upsample_1d,
    fourier_upsample_2d,
    front_position,
    front_speed,
    max_abs_error,
    pulse_count,
    trace_front,
)


# ---------------------------------------------------------------- upsampling

@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([8, 12, 16]),
    ratio=st.sampled_from([1, 2, 3]),
    extra=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_upsample_1d_exact_on_band_limited_fields(n, ratio, extra, seed):
    # a field whose modes all lie strictly below Nyquist is resampled
    # exactly: compare against the trig sum evaluated at the new nodes
    new_n = n * ratio + extra
    L = 3.0
    grid = make_grid(n, L, 1)
    x = grid.coords[0]
    w = grid.omega[0]
    rng = np.random.default_rng(seed)
    ks = range(n // 2)  # exclude the Nyquist mode
    coeffs = [(rng.normal(), rng.normal(), w[k]) for k in ks]
    u = sum(a * np.cos(o * x) + b * np.sin(o * x) for a, b, o in coeffs)
    up = fourier_upsample_1d(u, new_n)
    x_new = -L + (2.0 * L / new_n) * np.arange(new_n)
    ref = sum(a * np.cos(o * x_new) + b * np.sin(o * x_new) for a, b, o in coeffs)
    assert np.max(np.abs(up - ref)) < 1e-11


def test_upsample_1d_nyquist_mode_resamples_exactly():
    # even n keeps the full Nyquist coefficient in the low block; for n
    # divisible by 4 the resampled field matches cos(w_N x) at new nodes
    grid = make_grid(16, 4.0, 1)
    k_nyq = grid.omega[0][8]
    u = np.cos(k_nyq * grid.coords[0])
    up = fourier_upsample_1d(u, 48)
    fine = make_grid(48, 4.0, 1)
    assert np.max(np.abs(up - np.cos(k_nyq * fine.coords[0]))) < 1e-13


def test_upsample_preserves_mean():
    rng = np.random.default_rng(7)
    u = rng.normal(size=32)
    up = fourier_upsample_1d(u, 100)
    assert abs(up.mean() - u.mean()) < 1e-13
    f = rng.normal(size=(12, 16))
    f_up = fourier_upsample_2d(f, 40, 36)
    assert abs(f_up.mean() - f.mean()) < 1e-13


def test_upsample_equal_size_copies():
    u = np.arange(8.0)
    out = fourier_upsample_1d(u, 8)
    assert out is not u
    assert out.dtype == float
    np.testing.assert_array_equal(out, u)
    f = np.arange(12.0).reshape(3, 4)
    out2 = fourier_upsample_2d(f, 4, 3)
    assert out2 is not f
    np.testing.assert_array_equal(out2, f)


def test_upsample_rejects_shrinking_and_bad_rank():
    with pytest.raises(ValueError, match="cannot shrink"):
        fourier_upsample_1d(np.zeros(16), 8)
    with pytest.raises(ValueError, match="cannot shrink"):
        fourier_upsample_2d(np.zeros((8, 8)), 16, 4)
    with pytest.raises(ValueError, match="1D"):
        fourier_upsample_1d(np.zeros((4, 4)), 8)
    with pytest.raises(ValueError, match="2D"):
        fourier_upsample_2d(np.zeros(8), 16, 16)


def test_upsample_2d_exact_on_band_limited_field():
    # seeded mix of products covering all four corner blocks of the
    # transform, on an anisotropic grid
    rng = np.random.default_rng(0)
    grid = make_grid((8, 6), (4.0, 3.0), 2)
    X, Y = grid.mesh()
    wx, wy = grid.omega
    field = np.zeros((6, 8))
    terms = []
    for kx in range(3):
        for ky in range(3):
            a, b = rng.normal(size=2)
            terms.append((a, b, wx[kx], wy[ky]))
            field += a * np.cos(wx[kx] * X + wy[ky] * Y)
            field += b * np.sin(wx[kx] * X + wy[ky] * Y)
    up = fourier_upsample_2d(field, 20, 14)
    fine = make_grid((20, 14), (4.0, 3.0), 2)
    Xf, Yf = fine.mesh()
    ref = np.zeros((14, 20))
    for a, b, ox, oy in terms:
        ref += a * np.cos(ox * Xf + oy * Yf) + b * np.sin(ox * Xf + oy * Yf)
    assert np.max(np.abs(up - ref)) < 1e-12


# ------------------------------------------------------------ front tracking

def _tanh_profile(x, center, width=0.5):
    return 0.5 * (1.0 - np.tanh((x - center) / width))


def test_front_position_exact_node_crossing():
    # x = 5 is a node of this grid and u there equals the threshold, so
    # the crossing is reported without interpolation error
    grid = make_grid(256, 20.0, 1)
    u = _tanh_profile(grid.coords[0], 5.0)
    assert front_position(u, grid, threshold=0.5) == 5.0


def test_front_position_interpolated_crossing():
    grid = make_grid(256, 20.0, 1)
    u = _tanh_profile(grid.coords[0], 5.0)
    got = front_position(u, grid, threshold=0.1)
    assert got == 5.5589446748731  # frozen
    analytic = 5.0 + 0.5 * np.arctanh(1.0 - 0.2)
    assert abs(got - analytic) < 0.02  # within one grid spacing


def test_front_position_direction_picks_edge():
    grid = make_grid(128, 10.0, 1)
    x = grid.coords[0]
    u = 0.3 * np.exp(-((x / 3.0) ** 2))
    right = front_position(u, grid, 0.1, "right")
    left = front_position(u, grid, 0.1, "left")
    assert right == 3.144968169501873  # frozen
    assert left == -right  # nodes are symmetric about the origin
    analytic = 3.0 * np.sqrt(np.log(3.0))
    assert abs(right - analytic) < 1e-3


def test_front_position_none_when_below_threshold():
    grid = make_grid(64, 5.0, 1)
    assert front_position(np.full(64, 1e-6), grid, threshold=1e-4) is None


def test_front_position_validation():
    grid = make_grid(64, 5.0, 1)
    with pytest.raises(ValueError, match="direction"):
        front_position(np.zeros(64), grid, 0.1, "up")
    with pytest.raises(ValueError, match="1D profile"):
        front_position(np.zeros((2, 64)), grid, 0.1)


def test_trace_front_drops_missing_crossings():
    grid = make_grid(256, 20.0, 1)
    x = grid.coords[0]
    states = [SimpleNamespace(t=float(t), u=np.array([_tanh_profile(x, -14.0 + 3.0 * t)]))
              for t in np.linspace(0.0, 10.0, 21)]
    states.insert(0, SimpleNamespace(t=-1.0, u=np.array([np.full(256, 1e-9)])))
    trace = trace_front(states, grid, threshold=0.5)
    assert trace.times.size == 21  # the all-quiet state was dropped
    assert trace.times[0] == 0.0
    assert np.all(np.diff(trace.positions) > 0)


def test_front_speed_matches_imposed_speed():
    grid = make_grid(256, 20.0, 1)
    x = grid.coords[0]
    times = np.linspace(2.0, 10.0, 41)
    states = [SimpleNamespace(t=float(t), u=np.array([_tanh_profile(x, -14.0 + 3.0 * t)]))
              for t in times]
    trace = trace_front(states, grid, threshold=0.5)
    speed = front_speed(trace)  # default window: final half
    assert speed == 2.999974776979089  # frozen
    assert abs(speed - 3.0) < 1e-3


def test_front_speed_ignores_position_offset():
    times = np.linspace(0.0, 4.0, 25)
    base = FrontTrace(times=times, positions=1.7 * times, threshold=0.1)
    shifted = FrontTrace(times=times, positions=1.7 * times + 17.25, threshold=0.1)
    assert abs(front_speed(base) - front_speed(shifted)) < 1e-13
    assert abs(front_speed(base) - 1.7) < 1e-13


def test_front_speed_window_and_sample_requirements():
    times = np.linspace(0.0, 4.0, 25)
    trace = FrontTrace(times=times, positions=2.0 * times, threshold=0.1)
    assert abs(front_speed(trace, window=(1.0, 3.0)) - 2.0) < 1e-13
    with pytest.raises(ValueError, match="at least 10 samples"):
        front_speed(trace, window=(3.9, 4.0))
    with pytest.raises(ValueError, match="empty"):
        front_speed(FrontTrace(times=np.array([]), positions=np.array([]),
                               threshold=0.1))


# -------------------------------------------------------------- pulse counts

def test_pulse_count_cosine_train():
    grid = make_grid(256, 10.0, 1)
    x = grid.coords[0]
    for k in (1, 3, 7):
        v = 0.4 * np.cos(grid.omega[0][k] * x)
        assert pulse_count(v, floor=0.05) == k


def test_pulse_count_floor_excludes_small_peaks():
    grid = make_grid(256, 10.0, 1)
    x = grid.coords[0]
    w = grid.omega[0]
    v = 0.4 * np.cos(w[3] * x) + 0.01 * np.cos(w[11] * x)
    assert pulse_count(v, floor=0.3) == 3


def test_pulse_count_strictness_and_wraparound():
    assert pulse_count(np.full(16, 1.0), floor=0.5) == 0  # plateaus don't count
    v = np.zeros(16)
    v[0] = 1.0  # peak at the seam needs periodic neighbors
    assert pulse_count(v, floor=0.5) == 1


def test_pulse_count_validation():
    with pytest.raises(ValueError, match="floor must be positive"):
        pulse_count(np.zeros(8), floor=0.0)
    with pytest.raises(ValueError, match="1D profile"):
        pulse_count(np.zeros((2, 8)), floor=0.1)


@pytest.mark.parametrize("floor, problem", [
    (np.nan, "floor must be positive, got nan"),
    (-np.inf, "floor must be positive, got -inf"),
    (np.inf, "floor must be finite, got inf"),
])
def test_pulse_count_refuses_a_floor_that_is_not_finite(floor, problem):
    with pytest.raises(ValueError, match=problem):
        pulse_count(np.cos(np.linspace(0.0, 8.0 * np.pi, 64, endpoint=False)), floor)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_front_tracking_refuses_a_threshold_that_is_not_finite(threshold):
    grid = make_grid(64, 5.0, 1)
    u = _tanh_profile(grid.coords[0], 0.0)
    with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold}"):
        front_position(u, grid, threshold)
    with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold}"):
        trace_front([SimpleNamespace(t=0.0, u=np.array([u]))], grid, threshold=threshold)


def test_max_abs_error():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = a + np.array([[0.0, -0.5], [0.25, 0.0]])
    assert max_abs_error(a, b) == 0.5
    with pytest.raises(ValueError, match="shape mismatch"):
        max_abs_error(np.zeros(4), np.zeros(5))
