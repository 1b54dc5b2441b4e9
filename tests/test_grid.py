import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdspectral.grid import (GridSpec, dealias_mask, forward, inverse_real,
                             make_grid, state_from_physical)
from rdspectral.models import get_model


def test_coords_layout():
    g = make_grid(8, 2.0, 1)
    # x_i = -L + 2L i / n: first node at -L, last stops one spacing short of L
    assert g.coords[0][0] == -2.0
    assert np.allclose(g.coords[0], -2.0 + 0.5 * np.arange(8))
    assert g.coords[0][-1] == 1.5


def test_omega_storage_order():
    g = make_grid(8, np.pi, 1)
    # pi/L = 1 here, so omega is the bare FFT index ladder
    assert np.array_equal(g.omega[0], [0, 1, 2, 3, 4, -3, -2, -1])
    # the symbol lives on the half spectrum: modes 0..n/2 of omega
    assert g.spectral_shape == (5,)
    assert np.array_equal(g.omega_sq, [0, 1, 4, 9, 16])


def test_omega_scales_with_half_length():
    g = make_grid(4, 0.5 * np.pi, 1)
    assert np.allclose(g.omega[0], [0, 2, 4, -2])
    assert np.allclose(g.omega_sq, [0, 4, 16])


def test_2d_storage_is_y_then_x():
    g = make_grid((8, 4), (1.0, 2.0), 2)
    assert g.n == (8, 4)              # argument order is x first
    assert g.shape == (4, 8)          # storage (ny, nx), x fastest
    # x, stored last, is the halved axis of the spectrum
    assert g.spectral_shape == (4, 5)
    assert g.omega_sq.shape == (4, 5)
    wx, wy = g.omega
    assert np.allclose(g.omega_sq[2, 3], wx[3] ** 2 + wy[2] ** 2)
    assert np.allclose(g.omega_sq, wy[:, None] ** 2 + wx[None, :5] ** 2)
    X, Y = g.mesh()
    assert X.shape == (1, 8) and Y.shape == (4, 1)
    assert (X + Y).shape == g.shape


@pytest.mark.parametrize("k", [2, 3])
def test_cosine_transform_lines_up_with_omega(k):
    n = 16
    g = make_grid(n, np.pi, 1)
    uhat = forward(g, np.cos(k * g.coords[0]))
    # nodes start at -L, not 0, so mode k carries the phase (-1)^k; its
    # conjugate partner -k is not stored in the half spectrum
    expected = np.zeros(n // 2 + 1)
    expected[k] = (-1) ** k * n / 2
    assert np.allclose(uhat, expected, atol=1e-12)
    assert g.omega_sq[k] == k ** 2


@pytest.mark.parametrize("n, dims", [(16, 1), ((12, 8), 2), ((8, 12), 2)])
def test_forward_is_the_half_of_the_complex_fft(n, dims):
    # non-square grids pin which axis is halved: x, stored last
    g = make_grid(n, 2.0, dims)
    rng = np.random.default_rng(3)
    fields = rng.standard_normal((2,) + g.shape)
    full = np.fft.fftn(fields, axes=tuple(range(-g.dims, 0)))
    uhat = forward(g, fields)
    assert uhat.shape == (2,) + g.spectral_shape
    assert np.allclose(uhat, full[..., : g.n[0] // 2 + 1], rtol=0, atol=1e-12)
    assert np.allclose(inverse_real(g, uhat), fields, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, dims", [(512, 1), ((12, 8), 2), ((8, 12), 2),
                                     (6, 2), (96, 2), (256, 2)])
def test_transforms_are_bit_equal_to_the_nd_calls(n, dims):
    # forward and inverse_real make rfftn's and irfftn's one-axis calls
    # themselves, in the same order (forward's second one in place), so the
    # results are the same bits
    g = make_grid(n, 2.0, dims)
    fields = np.random.default_rng(5).standard_normal((2,) + g.shape)
    before = fields.copy()
    axes = tuple(range(-g.dims, 0))
    uhat = forward(g, fields)
    assert np.array_equal(fields, before)
    assert np.array_equal(uhat, np.fft.rfftn(fields, axes=axes))
    assert np.array_equal(inverse_real(g, uhat),
                          np.fft.irfftn(uhat, s=g.shape, axes=axes))


def test_grid_tuples_are_built_once():
    g = make_grid((12, 8), 2.0, 2)
    assert g.shape is g.shape and g.spectral_shape is g.spectral_shape


def test_inverse_checks_the_spectral_shape():
    g = make_grid((8, 4), 1.0, 2)
    with pytest.raises(ValueError, match="spectral shape"):
        inverse_real(g, np.ones((4, 8), dtype=complex))


def test_forward_is_unnormalized_inverse_normalized():
    g = make_grid(8, 1.0, 1)
    ones = np.ones(8)
    uhat = forward(g, ones)
    assert uhat[0] == pytest.approx(8.0)   # sum, not mean
    assert np.allclose(inverse_real(g, uhat), ones)


@given(arrays(np.float64, (2, 16), elements=st.floats(-1e3, 1e3)))
def test_roundtrip_1d_stacked(fields):
    g = make_grid(16, 3.0, 1)
    assert np.allclose(inverse_real(g, forward(g, fields)), fields,
                       rtol=0, atol=1e-9 * (1 + np.abs(fields).max()))


@settings(max_examples=25)
@given(arrays(np.float64, (6, 8), elements=st.floats(-1e3, 1e3)))
def test_roundtrip_2d(field):
    g = make_grid((8, 6), 2.0, 2)
    assert np.allclose(inverse_real(g, forward(g, field)), field,
                       rtol=0, atol=1e-9 * (1 + np.abs(field).max()))


def test_laplacian_symbol_on_plane_wave():
    g = make_grid(32, np.pi, 1)
    k = 5
    u = np.sin(k * g.coords[0])
    lap = inverse_real(g, -1.0 * g.omega_sq * forward(g, u))
    assert np.allclose(lap, -(k ** 2) * u, atol=1e-10)


def test_laplacian_symbol_2d_diffusivity():
    g = make_grid(16, np.pi, 2)
    X, Y = g.mesh()
    u = np.cos(2 * X) * np.sin(3 * Y)
    lap = inverse_real(g, -0.25 * g.omega_sq * forward(g, u))
    assert np.allclose(lap, -0.25 * 13 * u, atol=1e-10)


def test_dealias_mask_two_thirds_rule():
    # 3|k| < n: at n = 12 mode 4 goes, as 4 + 4 aliases onto -4
    g = make_grid(12, 1.0, 1)
    mask = dealias_mask(g)
    index = np.concatenate([np.arange(7), np.arange(-5, 0)])
    full = np.abs(index) <= 3
    assert np.array_equal(mask, full[:7])   # modes 0..6 of the half spectrum
    g2 = make_grid(12, 1.0, 2)
    m2 = dealias_mask(g2)
    assert m2.shape == g2.spectral_shape == (12, 7)
    assert np.array_equal(m2, np.outer(full, full)[:, :7])


@pytest.mark.parametrize("n", [64, 96, 192])
def test_dealias_mask_leaves_a_quadratic_rate_exact_on_the_kept_modes(n):
    # fisher1d's u(1 - u) on fields band-limited to the mask, against the
    # product taken on an 8x finer grid, where nothing aliases
    g = make_grid(n, 10.0, 1)
    mask = dealias_mask(g)
    rates = get_model("fisher1d").rates
    rng = np.random.default_rng(n)
    fine = 8 * n
    for _ in range(5):
        coeffs = np.where(mask, rng.normal(size=mask.size) + 1j * rng.normal(size=mask.size),
                          0.0) * (0.05 * n)
        coeffs[0] = 0.5 * n
        u = inverse_real(g, coeffs)
        exact = np.fft.rfft(rates(np.fft.irfft(coeffs * 8.0, n=fine)[None], {})[0])
        got = forward(g, rates(u[None], {})[0]) * mask / n
        assert np.max(np.abs(got - mask * exact[: mask.size] / fine)) < 1e-13


def test_dealias_mask_removes_aliased_product():
    # squaring the largest kept mode (3k < n) aliases its 2k harmonic to
    # wavenumber 2k - n, which the mask must reject
    g = make_grid(32, np.pi, 1)
    k = 10
    u = np.cos(k * g.coords[0])
    mask = dealias_mask(g)
    # slot 12 holds wavenumber 12, the conjugate of the aliased -12
    assert mask[k] and not mask[g.n[0] - 2 * k]
    filtered = inverse_real(g, np.where(mask, forward(g, u * u), 0.0))
    assert np.allclose(filtered, 0.5, atol=1e-12)  # only the mean survives


@pytest.mark.parametrize("half_length, problem", [
    (float("nan"), "half-width must be positive, got nan"),
    (float("inf"), "half-width must be finite, got inf"),
])
def test_grid_rejects_a_non_finite_half_width(half_length, problem):
    with pytest.raises(ValueError) as excinfo:
        make_grid(8, half_length, 1)
    assert str(excinfo.value) == problem


def test_grid_validation():
    with pytest.raises(ValueError, match="even"):
        make_grid(9, 1.0, 1)
    with pytest.raises(ValueError, match="positive"):
        make_grid(8, -1.0, 1)
    with pytest.raises(ValueError, match="dims"):
        make_grid(8, 1.0, 3)
    with pytest.raises(ValueError, match="match dims"):
        make_grid((8, 8, 8), 1.0, 2)


def test_field_shape_checked():
    g = make_grid(8, 1.0, 2)
    with pytest.raises(ValueError, match="grid shape"):
        forward(g, np.ones(8))


def test_state_from_physical_synchronized():
    g = make_grid(16, 2.0, 1)
    u = np.sin(np.pi * g.coords[0] / 2.0)
    v = np.cos(np.pi * g.coords[0] / 2.0)
    state = state_from_physical(g, [u, v], t=1.5)
    assert state.t == 1.5
    assert state.species == 2
    assert state.u.shape == (2, 16)
    assert np.allclose(inverse_real(g, state.uhat), state.u)


def test_gridspec_is_frozen():
    g = make_grid(8, 1.0, 1)
    assert isinstance(g, GridSpec)
    with pytest.raises(AttributeError):
        g.dims = 2
