"""Generalized Pauli / Clifford gate definitions and their relations."""

import numpy as np
import pytest

from unimap.core import unitarity_defect
from unimap.gates import (
    dft_H,
    gate_from_name,
    mult_G,
    omega,
    pauli_X,
    pauli_Z,
    phase_S,
    verify_clifford_relations,
)


class TestPauli:
    def test_d2_standard(self):
        assert np.allclose(pauli_X(2), [[0, 1], [1, 0]])
        assert np.allclose(pauli_Z(2), [[1, 0], [0, -1]])

    def test_cyclic_shift_wraps(self):
        x = pauli_X(7)
        e6 = np.zeros(7)
        e6[6] = 1
        assert np.allclose(x @ e6, np.eye(7)[:, 0])  # X|6> = |0>

    def test_weyl_commutation(self):
        x, z = pauli_X(7), pauli_Z(7)
        assert np.abs(z @ x - omega(7) * x @ z).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8])
    def test_orders(self, d):
        assert np.abs(np.linalg.matrix_power(pauli_X(d), d) - np.eye(d)).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(pauli_Z(d), d) - np.eye(d)).max() < 1e-12


class TestDFT:
    def test_d2_hadamard(self):
        assert np.abs(dft_H(2) - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-14

    def test_conjugations_d7(self):
        h, x, z = dft_H(7), pauli_X(7), pauli_Z(7)
        assert np.abs(h @ x @ h.conj().T - z).max() < 1e-12
        assert np.abs(h @ z @ h.conj().T - np.linalg.matrix_power(x, 6)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_fourth_power_identity(self, d):
        h4 = np.linalg.matrix_power(dft_H(d), 4)
        assert np.abs(h4 - np.eye(d)).max() < 1e-12


class TestPhaseGate:
    def test_odd_entry_d7(self):
        s = phase_S(7)
        assert abs(s[3, 3] - omega(7) ** 3) < 1e-14  # 3*2/2 = 3

    def test_even_entry_d7(self):
        s = phase_S(7)
        assert abs(s[4, 4] - omega(7)) < 1e-14  # 16/2 = 8 = 1 mod 7

    @pytest.mark.parametrize("d", range(2, 40))
    def test_matches_parity_split_loop(self, d):
        # reference: the exponent written out per level, as the docstring states it
        exps = [(j * j // 2) % d if j % 2 == 0 else (j * (j - 1) // 2) % d for j in range(d)]
        assert np.array_equal(phase_S(d), np.diag(omega(d) ** np.array(exps)))

    def test_z_conjugation_exact(self):
        s, z = phase_S(7), pauli_Z(7)
        assert np.abs(s @ z @ s.conj().T - z).max() < 1e-14

    def test_x_conjugation_discrepancy_reported(self):
        # the parity-split exponent formula does not satisfy SXS* = XZ;
        # the verifier must flag that instead of patching the gate
        for d in (2, 3, 5, 7):
            report = verify_clifford_relations(d)
            assert report.s_discrepancy
            assert report.deviations["SXS* = XZ"] > 1e-12


class TestMultiplication:
    def test_identity_multiplier(self):
        assert np.array_equal(mult_G(1, 5), np.eye(5))

    def test_d7_action(self):
        g3 = mult_G(3, 7)
        e2 = np.zeros(7)
        e2[2] = 1
        assert np.allclose(g3 @ e2, np.eye(7)[:, 6])  # 3*2 mod 7 = 6

    def test_d7_z_conjugation(self):
        g3, z = mult_G(3, 7), pauli_Z(7)
        assert pow(3, -1, 7) == 5
        assert np.abs(g3 @ z @ g3.conj().T - np.linalg.matrix_power(z, 5)).max() < 1e-12

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="invertible"):
            mult_G(2, 4)

    def test_refusal_names_the_multiplier_given(self):
        with pytest.raises(ValueError, match=r"^a=10 is not invertible modulo d=5$"):
            mult_G(10, 5)

    def test_multiplier_acts_modulo_d(self):
        assert np.array_equal(mult_G(8, 5), mult_G(3, 5))

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_d5_relations_all_coprime(self, a):
        report = verify_clifford_relations(5, a=a)
        assert report.deviations[f"G{a} X G{a}* = X^{a}"] <= 1e-12
        a_inv = pow(a, -1, 5)
        assert report.deviations[f"G{a} Z G{a}* = Z^{a_inv}"] <= 1e-12


class TestRelationsReport:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_non_s_relations_tight(self, d):
        report = verify_clifford_relations(d)
        for name, dev in report.deviations.items():
            if name != "SXS* = XZ":
                assert dev <= 1e-12, name

    @pytest.mark.parametrize("a", [-1, 0])
    def test_multiplier_below_one_refused(self, a):
        with pytest.raises(ValueError, match=f"a must be >= 1, got {a}"):
            verify_clifford_relations(5, a=a)

    def test_all_gates_unitary(self):
        for d in (2, 3, 5, 7):
            for gate in (pauli_X(d), pauli_Z(d), dft_H(d), phase_S(d), mult_G(d - 1, d)):
                assert unitarity_defect(gate) < 1e-12


class TestGateNames:
    def test_parsing(self):
        assert np.array_equal(gate_from_name("X", 3), pauli_X(3))
        assert np.array_equal(gate_from_name("h", 4), dft_H(4))
        assert np.array_equal(gate_from_name("G:3", 7), mult_G(3, 7))

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown gate"):
            gate_from_name("Q", 3)

    @pytest.mark.parametrize("name", ["G:x", "G:", "g:1.5"])
    def test_rejects_a_multiplier_that_is_no_integer(self, name):
        with pytest.raises(ValueError) as info:
            gate_from_name(name, 5)
        assert str(info.value) == f"unknown gate name {name!r}; expected X, Z, H, S, or G:<a>"
