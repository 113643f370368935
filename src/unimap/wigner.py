"""Spin Wigner function on the sphere via the multipole expansion.

W(theta, phi) = sum_{k=0..2F} sum_{q=-k..k} rho_kq Y_kq(theta, phi) with
rho_kq = Tr(rho T_kq†), where the T_kq are orthonormal spherical tensor
operators on the spin-F block.  Real-valued for Hermitian rho.

Tensors and multipoles share one flat layout: T_kq and rho_kq sit at row
k^2 + k + q of a (dim^2, ...) array, ranks ascending and q ascending
within a rank.  The harmonics separate as Y_kq(theta, phi) =
P_kq(theta) e^{i q phi} with P_kq the normalized associated Legendre
function, so a grid is evaluated as L[theta, q] = sum_k rho_kq P_kq(theta)
on the polar axis followed by one product with the azimuthal phases
e^{i q phi}.

The P_km for m >= 0 come from the standard three-term recurrence in k for
spherical-harmonic-normalized Legendre functions,
P_km = a_km (cos(theta) P_{k-1,m} - b_km P_{k-2,m}) with
a_km = sqrt((4k^2 - 1) / (k^2 - m^2)) and
b_km = sqrt(((k-1)^2 - m^2) / (4(k-1)^2 - 1)), started from
P_00 = 1/sqrt(4 pi) and the diagonal P_mm = -sqrt((2m+1)/(2m)) sin(theta)
P_{m-1,m-1}, which carries the Condon-Shortley sign (-1)^m.  b_km vanishes
at m = k - 1, where the recurrence gives P_{m+1,m} = sqrt(2m+3) cos(theta)
P_mm.  Negative orders follow as P_{k,-m} = (-1)^m P_km.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cesium import spin_operators
from .core import SQUARE_LIMIT, _integer, _number_array, _refuse_deviation, _refuse_non_finite

REALITY_TOL = 1e-10
#: norm a state may have outside the spin block extract_block slices out
SUPPORT_TOL = 1e-10
#: largest spin block: its (dim^2, dim, dim) complex tensor stack grows as dim^4, 16 MiB at 32 levels (23.8 GiB at 200),
#: well above the 16 hyperfine ground levels of cesium
BLOCK_LIMIT = 32
#: most values one grid evaluation may hold, counted as (n_theta + dim^2)(n_phi + dim^2): that covers the grid
#: (n_theta n_phi), the Legendre table (about dim^2 n_theta), the azimuthal phases (below dim^2 n_phi) and the
#: tensor stack (dim^4); 10^7 complex values are 160 MB, and ``io.save_wigner_csv`` builds about 0.6 GB of text
#: for a grid that large
GRID_LIMIT = 10**7


@lru_cache(maxsize=8, typed=True)  # typed, so that 7.0 or True is refused, not served the cached 7 or 1
def spherical_tensor_operators(dim: int) -> np.ndarray:
    """Orthonormal T_kq for spin F = (dim-1)/2 as one (dim^2, dim, dim) stack, T_kq at row k^2 + k + q.

    Built by Frobenius-normalizing the highest-weight operator
    (-1)^k (F+)^k (Condon-Shortley sign, so the q=0 components are
    positive on the stretched m=+F state) and descending in q with
    lowering-operator commutators.
    """
    dim = _integer(dim, "spin block dimension", 1, BLOCK_LIMIT)
    f = (dim - 1) / 2.0
    ops = spin_operators(f)
    f_minus = ops.fx - 1j * ops.fy
    f_plus = ops.fx + 1j * ops.fy
    tensors = np.empty((dim * dim, dim, dim), dtype=complex)
    for k in range(dim):
        row = k * k + k  # the row of T_k0
        high = np.linalg.matrix_power(f_plus, k)
        tensors[row + k] = (-1) ** k * high / np.sqrt(np.trace(high.conj().T @ high).real)
        for q in range(k, -k, -1):
            denom = np.sqrt(k * (k + 1) - q * (q - 1))
            t = tensors[row + q]
            tensors[row + q - 1] = (f_minus @ t - t @ f_minus) / denom
    tensors.setflags(write=False)  # the cache hands this one array to every caller
    return tensors


def sph_legendre(k: np.ndarray, q: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """P_{k_i q_i}(theta) as an (n_theta, len(k)) table, for ranks k and orders |q| <= k."""
    x, y = np.cos(thetas), np.sin(thetas)
    dim = int(k.max()) + 1
    p = np.zeros((dim + 1, dim, thetas.size))  # p[k, m] = P_km for m >= 0; row -1 stays zero
    p[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for n in range(1, dim):
        p[n, n] = -np.sqrt((2 * n + 1) / (2 * n)) * y * p[n - 1, n - 1]
        m = np.arange(n)[:, None]
        a = np.sqrt((4 * n * n - 1) / (n * n - m * m))
        b = np.sqrt(((n - 1) ** 2 - m * m) / (4 * (n - 1) ** 2 - 1))
        p[n, :n] = a * (x * p[n - 1, :n] - b * p[n - 2, :n])
    return p[k, np.abs(q)].T * np.where(q < 0, (-1.0) ** q, 1.0)


class WignerGrid(NamedTuple):
    """Quasi-probability values over the full sphere."""

    thetas: np.ndarray  # polar angles in [0, pi], length n_theta
    phis: np.ndarray  # azimuths in [0, 2pi), length n_phi
    values: np.ndarray  # (n_theta, n_phi), real


def multipole_components(rho: np.ndarray) -> np.ndarray:
    """rho_kq = Tr(rho T_kq†) at row k^2 + k + q, the layout of the tensor operators."""
    _refuse_non_finite(rho, "matrix has non-finite entries")
    return np.einsum("nij,ji->n", spherical_tensor_operators(rho.shape[0]).conj(), rho.T)


def wigner_grid(state, n_theta: int, n_phi: int) -> WignerGrid:
    """Evaluate W on an n_theta x n_phi grid covering the sphere.

    Accepts a pure state vector or a density matrix on a single spin
    block; the block dimension sets F.  Rejects grids too coarse to cover
    the sphere, results with imaginary residue beyond tolerance, a state
    with a NaN or infinite entry, as non-finite rather than non-Hermitian,
    and a state vector with an entry whose outer product could overflow.
    """
    arr = _number_array(state, complex)
    if arr.ndim not in (1, 2) or arr.shape[0] != arr.shape[-1]:
        raise ValueError(f"state must be a vector or square matrix, got shape {arr.shape}")
    n_theta, n_phi = _integer(n_theta, "n_theta", 2), _integer(n_phi, "n_phi", 2)
    non_finite = "Wigner values are not finite: state has non-finite entries"
    oversized = f"Wigner values would overflow: state has an entry above {SQUARE_LIMIT:g} in modulus"
    _refuse_non_finite(arr, non_finite, oversized if arr.ndim == 1 else None)
    dim = arr.shape[0]
    if (n_theta + dim * dim) * (n_phi + dim * dim) > GRID_LIMIT:
        raise ValueError(f"a {n_theta} x {n_phi} grid on a {dim}-level block needs (n_theta + dim^2)(n_phi + dim^2) "
                         f"values, above {GRID_LIMIT:.0e}")
    rho = np.outer(arr, arr.conj()) if arr.ndim == 1 else arr
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    k = np.repeat(np.arange(dim), 2 * np.arange(dim) + 1)  # the rank of each row k^2 + k + q
    q = np.arange(dim * dim) - k * k - k
    terms = multipole_components(rho) * sph_legendre(k, q, thetas)
    qs = np.arange(-(dim - 1), dim)
    # summing the terms of each q over k: L[theta, q]
    legendre = terms @ (q[:, None] == qs)
    w = legendre @ np.exp(1j * np.outer(qs, phis))
    _refuse_deviation(float(np.abs(w.imag).max()), REALITY_TOL, non_finite,
                      "Wigner values have imaginary residue {:.3e}; state not Hermitian?")
    return WignerGrid(thetas=thetas, phis=phis, values=w.real)


def extract_block(state, start: int, size: int) -> np.ndarray:
    """Slice a spin block out of a larger state, rejecting outside support."""
    v = _number_array(state, complex).reshape(-1)
    start, size = _integer(start, "block start", 0), _integer(size, "block size", 1)
    if start + size > v.size:
        raise ValueError(f"block [{start}, {start + size}) exceeds state dimension {v.size}")
    outside = np.delete(v, np.arange(start, start + size))
    _refuse_non_finite(outside, "state has non-finite entries outside the requested block",
                       f"state has an entry above {SQUARE_LIMIT:g} in modulus outside the requested block")
    support = "state has support {:.3e} outside the requested block"
    _refuse_deviation(np.linalg.norm(outside), SUPPORT_TOL, support.format(np.inf), support)
    block = v[start : start + size]
    _refuse_non_finite(block, "state has non-finite entries")
    return block
