"""Spin Wigner function on the sphere via the multipole expansion.

W(theta, phi) = sum_{k=0..2F} sum_{q=-k..k} rho_kq Y_kq(theta, phi) with
rho_kq = Tr(rho T_kq†), where the T_kq are orthonormal spherical tensor
operators on the spin-F block.  Real-valued for Hermitian rho.

The harmonics separate as Y_kq(theta, phi) = P_kq(theta) e^{i q phi} with
P_kq the normalized associated Legendre function, so a grid is evaluated
as L[theta, q] = sum_k rho_kq P_kq(theta) on the polar axis followed by one
product with the azimuthal phases e^{i q phi}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sph_legendre_p

from .cesium import spin_operators

REALITY_TOL = 1e-10


@lru_cache(maxsize=8)
def spherical_tensor_operators(dim: int) -> np.ndarray:
    """Orthonormal T_kq for spin F = (dim-1)/2, indexed [k][k+q].

    Built by Frobenius-normalizing the highest-weight operator
    (-1)^k (F+)^k (Condon-Shortley sign, so the q=0 components are
    positive on the stretched m=+F state) and descending with
    lowering-operator commutators; returned as an object array over ranks
    with one (2k+1, dim, dim) block per rank.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    f = (dim - 1) / 2.0
    ops = spin_operators(f) if dim > 1 else None
    f_minus = (ops.fx - 1j * ops.fy) if ops else np.zeros((1, 1), dtype=complex)
    f_plus = (ops.fx + 1j * ops.fy) if ops else np.zeros((1, 1), dtype=complex)
    tensors = np.empty(dim, dtype=object)
    for k in range(dim):
        t_k = np.empty((2 * k + 1, dim, dim), dtype=complex)
        high = np.linalg.matrix_power(f_plus, k) if k else np.eye(dim, dtype=complex)
        high = (-1) ** k * high / np.sqrt(np.trace(high.conj().T @ high).real)
        t_k[2 * k] = high
        for q in range(k, -k, -1):
            denom = np.sqrt(k * (k + 1) - q * (q - 1))
            t_k[k + q - 1] = (f_minus @ t_k[k + q] - t_k[k + q] @ f_minus) / denom
        tensors[k] = t_k
    return tensors


@dataclass(frozen=True)
class WignerGrid:
    """Quasi-probability values over the full sphere."""

    thetas: np.ndarray  # polar angles in [0, pi], length n_theta
    phis: np.ndarray  # azimuths in [0, 2pi), length n_phi
    values: np.ndarray  # (n_theta, n_phi), real


def multipole_components(rho: np.ndarray) -> np.ndarray:
    """rho_kq = Tr(rho T_kq†), same nesting as the tensor operators."""
    dim = rho.shape[0]
    tensors = spherical_tensor_operators(dim)
    comps = np.empty(dim, dtype=object)
    for k in range(dim):
        comps[k] = np.einsum("qij,ji->q", tensors[k].conj(), rho.T)
    return comps


def wigner_grid(state, n_theta: int = 61, n_phi: int = 120) -> WignerGrid:
    """Evaluate W on an n_theta x n_phi grid covering the sphere.

    Accepts a pure state vector or a density matrix on a single spin
    block; the block dimension sets F.  Rejects grids too coarse to cover
    the sphere and results with imaginary residue beyond tolerance.
    """
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        rho = np.outer(arr, arr.conj())
    elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        rho = arr
    else:
        raise ValueError(f"state must be a vector or square matrix, got shape {arr.shape}")
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid must have at least 2 points per axis")
    dim = rho.shape[0]
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    comps = multipole_components(rho)
    qs = np.arange(-(dim - 1), dim)
    legendre = np.zeros((n_theta, qs.size), dtype=complex)
    for k in range(dim):
        for q in range(-k, k + 1):
            c = comps[k][k + q]
            if abs(c) < 1e-16:
                continue
            legendre[:, q + dim - 1] += c * sph_legendre_p(k, q, thetas)[0]
    w = legendre @ np.exp(1j * np.outer(qs, phis))
    residue = float(np.abs(w.imag).max())
    # written as "not <=" so that a NaN residue fails the check too
    if not residue <= REALITY_TOL:
        raise ValueError(f"Wigner values have imaginary residue {residue:.3e}; state not Hermitian?")
    return WignerGrid(thetas=thetas, phis=phis, values=w.real)


def extract_block(state, start: int, size: int, tol: float = 1e-10) -> np.ndarray:
    """Slice a spin block out of a larger state, rejecting outside support."""
    v = np.asarray(state, dtype=complex).reshape(-1)
    if not (0 <= start and start + size <= v.size):
        raise ValueError(f"block [{start}, {start + size}) exceeds state dimension {v.size}")
    outside = np.linalg.norm(np.delete(v, np.arange(start, start + size)))
    if outside > tol:
        raise ValueError(f"state has support {outside:.3e} outside the requested block")
    return v[start : start + size]
