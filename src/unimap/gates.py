"""Generalized Pauli and Clifford-generator targets on d levels.

omega = exp(2 pi i / d) throughout.  X shifts the basis cyclically,
Z applies omega^j, H is the discrete Fourier transform, S the nonlinear
phase gate (parity-split exponent), and G_a multiplies indices by a
modulo d for gcd(a, d) = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import _check_dim, _integer


def omega(d: int) -> complex:
    """Primitive d-th root of unity."""
    return np.exp(2j * np.pi / _integer(d, "dimension", 1))


def pauli_X(d: int) -> np.ndarray:
    """Cyclic shift X|j> = |j+1 mod d>."""
    d = _check_dim(d)
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return x


def pauli_Z(d: int) -> np.ndarray:
    """Clock matrix Z|j> = omega^j |j>."""
    d = _check_dim(d)
    return np.diag(omega(d) ** np.arange(d))


def dft_H(d: int) -> np.ndarray:
    """Discrete Fourier transform H|j> = d^{-1/2} sum_k omega^{jk} |k>."""
    d = _check_dim(d)
    j = np.arange(d)
    return omega(d) ** np.outer(j, j) / np.sqrt(d)


def phase_S(d: int) -> np.ndarray:
    """Nonlinear phase gate with parity-split integer exponents.

    S|j> = omega^{j(j-1)/2} |j> for odd j and omega^{j^2/2} |j> for even
    j, exponents reduced mod d.  This literal form does not satisfy
    S X S† = X Z for every dimension; verify_clifford_relations reports
    the deviation instead of patching the gate.
    """
    d = _check_dim(d)
    j = np.arange(d)
    return np.diag(omega(d) ** ((j * (j - j % 2) // 2) % d))


def mult_G(a: int, d: int) -> np.ndarray:
    """Modular multiplication G_a|j> = |a j mod d>, defined for gcd(a,d)=1."""
    d = _check_dim(d)
    a = _integer(a, "a")
    if math.gcd(a, d) != 1:
        raise ValueError(f"a={a} is not invertible modulo d={d}")
    g = np.zeros((d, d), dtype=complex)
    g[((a % d) * np.arange(d)) % d, np.arange(d)] = 1.0
    return g


def gate_from_name(name: str, d: int) -> np.ndarray:
    """Resolve a CLI-style gate name: X, Z, H, S, or G:<a>; anything else, a name that is no string too, is refused."""
    key = name.strip().upper() if isinstance(name, str) else ""
    if key == "X":
        return pauli_X(d)
    if key == "Z":
        return pauli_Z(d)
    if key == "H":
        return dft_H(d)
    if key == "S":
        return phase_S(d)
    if key.startswith("G:"):
        try:
            a = int(key[2:])
        except ValueError:  # G:x or G: names no gate
            pass
        else:
            return mult_G(a, d)
    raise ValueError(f"unknown gate name {name!r}; expected X, Z, H, S, or G:<a>")


class CliffordRelationReport(NamedTuple):
    """Max-entry deviation of each conjugation relation at dimension d."""

    d: int
    a: int
    deviations: dict[str, float]
    s_discrepancy: bool


RELATION_TOL = 1e-12


def verify_clifford_relations(d: int, a: int | None = None) -> CliffordRelationReport:
    """Evaluate the Clifford-generator conjugation relations at dimension d.

    Checks H X H† = Z, H Z H† = X^{-1}, S X S† = X Z, S Z S† = Z,
    G_a X G_a† = X^a and G_a Z G_a† = Z^{a^{-1}}.  An S X S† deviation
    beyond tolerance sets ``s_discrepancy``; nothing is silently adjusted.
    """
    d = _check_dim(d)
    if a is None:
        a = 2 if d > 2 and math.gcd(2, d) == 1 else (3 if d > 3 and math.gcd(3, d) == 1 else 1)
    a = _integer(a, "a", 1)
    x, z, h, s, g = pauli_X(d), pauli_Z(d), dft_H(d), phase_S(d), mult_G(a, d)
    a_inv = pow(a, -1, d)

    def dev(left, right):
        return float(np.abs(left - right).max())

    deviations = {
        "HXH* = Z": dev(h @ x @ h.conj().T, z),
        "HZH* = X^-1": dev(h @ z @ h.conj().T, np.linalg.matrix_power(x, d - 1)),
        "SXS* = XZ": dev(s @ x @ s.conj().T, x @ z),
        "SZS* = Z": dev(s @ z @ s.conj().T, z),
        f"G{a} X G{a}* = X^{a}": dev(g @ x @ g.conj().T, np.linalg.matrix_power(x, a)),
        f"G{a} Z G{a}* = Z^{a_inv}": dev(g @ z @ g.conj().T, np.linalg.matrix_power(z, a_inv)),
    }
    return CliffordRelationReport(
        d=d,
        a=a,
        deviations=deviations,
        s_discrepancy=deviations["SXS* = XZ"] > RELATION_TOL,
    )
