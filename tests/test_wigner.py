"""Spin Wigner grids: multipole expansion and qualitative features."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import sph_harm_y, sph_legendre_p

from unimap.cesium import spin_operators
from unimap.core import basis_state, mat_exp
from unimap.gates import dft_H
from unimap.wigner import (
    BLOCK_LIMIT,
    GRID_LIMIT,
    extract_block,
    multipole_components,
    sph_legendre,
    spherical_tensor_operators,
    wigner_grid,
)


def _refused_small(call, message):
    """Run ``call`` under warnings-as-errors; it must raise ValueError(message) having allocated under 1 MB."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        assert tracemalloc.get_traced_memory()[1] < 1e6
    finally:
        tracemalloc.stop()


class TestTensorOperators:
    @pytest.mark.parametrize("dim", [2, 3, 7, 8])
    def test_orthonormal(self, dim):
        tens = spherical_tensor_operators(dim)
        assert tens.shape == (dim * dim, dim, dim)
        flat = [tens[k * k + k + q] for k in range(dim) for q in range(-k, k + 1)]
        assert len(flat) == dim * dim
        gram = np.array([[np.trace(a.conj().T @ b) for b in flat] for a in flat])
        assert np.abs(gram - np.eye(dim * dim)).max() < 1e-12

    @pytest.mark.parametrize("dim", [0, -1])
    def test_refuses_a_dimension_below_1(self, dim):
        with pytest.raises(ValueError, match=rf"^spin block dimension must be an integer in \[1, 32\], got {dim}$"):
            spherical_tensor_operators(dim)

    def test_refuses_a_block_above_the_limit_before_allocating(self):
        # the (dim^2, dim, dim) stack is 16 MiB at the limit and 19 MiB one level above it
        assert BLOCK_LIMIT == 32 and spherical_tensor_operators(BLOCK_LIMIT).shape == (1024, 32, 32)
        _refused_small(lambda: spherical_tensor_operators(BLOCK_LIMIT + 1),
                       "spin block dimension must be an integer in [1, 32], got 33")
        _refused_small(lambda: wigner_grid(basis_state(BLOCK_LIMIT + 1, 0), 3, 3),
                       "spin block dimension must be an integer in [1, 32], got 33")

    def test_hermiticity_relation(self):
        tens = spherical_tensor_operators(7)
        for k in range(7):
            for q in range(-k, k + 1):
                want = (-1) ** q * tens[k * k + k + q].conj().T
                assert np.abs(tens[k * k + k - q] - want).max() < 1e-12

    def test_rank1_proportional_to_spin(self):
        tens = spherical_tensor_operators(7)
        fz = spin_operators(3).fz
        t10 = tens[2]  # k=1, q=0
        ratio = t10[0, 0] / fz[0, 0]
        assert np.abs(t10 - ratio * fz).max() < 1e-12
        assert ratio.real > 0  # positive on the stretched m=+F state


class TestWignerGrid:
    def test_maximally_mixed_constant(self):
        g = wigner_grid(np.eye(7) / 7, 21, 44)
        assert g.values.max() - g.values.min() < 1e-12

    @pytest.mark.parametrize("m_index", range(7))
    def test_z_states_azimuthally_symmetric(self, m_index):
        g = wigner_grid(basis_state(7, m_index), 31, 64)
        assert g.values.var(axis=1).max() < 1e-10

    def test_stretched_state_peaks_at_north_pole(self):
        g = wigner_grid(basis_state(7, 0), 41, 60)  # |3, m=+3>
        i, _ = np.unravel_index(np.argmax(g.values), g.values.shape)
        assert i == 0

    def test_opposite_stretched_state_peaks_south(self):
        g = wigner_grid(basis_state(7, 6), 41, 60)  # |3, m=-3>
        i, _ = np.unravel_index(np.argmax(g.values), g.values.shape)
        assert i == 40

    def test_rotation_shifts_grid(self):
        ops = spin_operators(3)
        st = mat_exp(ops.fy, 0.8) @ basis_state(7, 0)
        rho = np.outer(st, st.conj())
        n_phi = 48
        g0 = wigner_grid(rho, 25, n_phi)
        alpha = 2 * np.pi / n_phi * 3  # three grid steps
        rho_rot = mat_exp(ops.fz, alpha) @ rho @ mat_exp(ops.fz, -alpha)
        g1 = wigner_grid(rho_rot, 25, n_phi)
        assert np.abs(g1.values - np.roll(g0.values, 3, axis=1)).max() < 1e-8

    def test_dft_states_spread_longitudes(self):
        h = dft_H(7)
        lons = []
        for j in range(7):
            g = wigner_grid(h @ basis_state(7, j), 41, 140)
            _, col = np.unravel_index(np.argmax(g.values), g.values.shape)
            lons.append(g.phis[col])
        lons = np.sort(lons)
        gaps = np.diff(np.concatenate([lons, [lons[0] + 2 * np.pi]]))
        assert len(set(np.round(lons, 6))) == 7
        assert gaps.min() >= 2 * np.pi / 14

    def test_grid_shape_and_real(self):
        g = wigner_grid(basis_state(5, 2), 13, 17)
        assert g.values.shape == (13, 17)
        assert g.thetas[0] == 0.0 and g.thetas[-1] == pytest.approx(np.pi)
        assert g.phis[-1] < 2 * np.pi
        assert g.values.dtype == float

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="vector or square"):
            wigner_grid(np.zeros((2, 3)), 5, 6)
        with pytest.raises(ValueError, match="^n_theta must be an integer >= 2, got 1$"):
            wigner_grid(basis_state(3, 0), n_theta=1, n_phi=6)

    @pytest.mark.parametrize("dim, n_theta, n_phi", [(2, 996, 9997), (2, 9997, 996), (3, 10**5, 10**5),
                                                      (32, 10**4, 2), (57, 2, 2)])
    def test_refuses_a_grid_above_the_limit_before_allocating(self, dim, n_theta, n_phi):
        # (n_theta + dim^2)(n_phi + dim^2) is 1000 x 10001 on two levels, just above the limit; a 10^5 x 10^5 grid
        # would take 160 GB; 2 x 10^4 points on 32 levels have a Legendre table of 10^7 values; and at 57 levels
        # dim^4 alone passes the limit
        assert GRID_LIMIT == 10**7 and (n_theta + dim * dim) * (n_phi + dim * dim) > GRID_LIMIT
        _refused_small(lambda: wigner_grid(basis_state(dim, 0), n_theta, n_phi),
                       f"a {n_theta} x {n_phi} grid on a {dim}-level block needs (n_theta + dim^2)(n_phi + dim^2) "
                       "values, above 1e+07")

    def test_rejects_nan_state(self):
        # a NaN entry makes every value non-finite, which says nothing about Hermiticity
        state = basis_state(4, 1)
        state[2] = np.nan
        with pytest.raises(ValueError, match="^Wigner values are not finite: state has non-finite entries$"):
            wigner_grid(state, 5, 6)

    def test_rejects_a_finite_state_whose_outer_product_overflows(self):
        message = r"^Wigner values would overflow: state has an entry above 1e\+150 in modulus$"
        with pytest.raises(ValueError, match=message):
            wigner_grid(np.array([1e200, 0.0, 0.0]), 5, 6)

    def test_rejects_non_hermitian_density_matrix(self):
        residue = r"^Wigner values have imaginary residue \d\.\d{3}e[+-]\d{2}; state not Hermitian\?$"
        with pytest.raises(ValueError, match=residue):
            wigner_grid(np.array([[0.5, 1.0], [0.0, 0.5]]), 5, 6)

    @pytest.mark.parametrize("dim", range(1, 22))
    def test_matches_full_grid_harmonic_sum(self, dim):
        # reference: the double sum of full-grid Y_kq evaluations that the
        # separable theta/phi product replaced
        rng = np.random.default_rng(40 + dim)
        a = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        n_theta, n_phi = 23, 37
        got = wigner_grid(rho, n_theta, n_phi)
        tt, pp = np.meshgrid(got.thetas, got.phis, indexing="ij")
        comps = multipole_components(rho)
        want = np.zeros((n_theta, n_phi), dtype=complex)
        for k in range(dim):
            for q in range(-k, k + 1):
                want += comps[k * k + k + q] * sph_harm_y(k, q, tt, pp)
        assert np.abs(got.values - want.real).max() <= 1e-12


@pytest.mark.parametrize("dim", range(1, 22))
def test_legendre_recurrence_matches_scipy(dim):
    # scipy is the reference only; the package computes the table with its own recurrence
    thetas = np.linspace(0.0, np.pi, 61)
    k = np.repeat(np.arange(dim), 2 * np.arange(dim) + 1)
    q = np.arange(dim * dim) - k * k - k
    want = sph_legendre_p(k, q, thetas[:, None])[0]
    assert np.abs(sph_legendre(k, q, thetas) - want).max() <= 1e-13


class TestMultipoles:
    def test_diagonal_state_has_only_q0(self):
        comps = multipole_components(np.diag([0.5, 0.3, 0.2]).astype(complex))
        for k in range(3):
            for q in range(-k, k + 1):
                if q != 0:
                    assert abs(comps[k * k + k + q]) < 1e-14

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_matches_trace_per_tensor(self, dim):
        # reference: rho_kq = Tr(rho T_kq†) one tensor at a time
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        want = [np.trace(rho @ t.conj().T) for t in spherical_tensor_operators(dim)]
        assert np.abs(multipole_components(rho) - want).max() <= 1e-12 * np.abs(rho).max()

    def test_monopole_is_trace(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        comps = multipole_components(rho)
        assert comps[0] == pytest.approx(1 / np.sqrt(2), abs=1e-14)


class TestExtractBlock:
    def test_slices_supported_block(self):
        v = np.zeros(9, dtype=complex)
        v[2] = 1.0
        got = extract_block(v, 0, 7)
        assert got.shape == (7,)
        assert got[2] == 1.0

    def test_rejects_outside_support(self):
        v = np.zeros(9, dtype=complex)
        v[8] = 1.0
        with pytest.raises(ValueError, match="outside"):
            extract_block(v, 0, 7)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            extract_block(np.zeros(4), 2, 5)
