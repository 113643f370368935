"""Linear-algebra primitives: matrix exponential, unitary spectra, fidelities, and the non-finite refusals."""

import warnings

import numpy as np
import pytest

from unimap.core import (
    UNITARY_TOL,
    as_state,
    assert_hermitian,
    assert_unitary,
    basis_state,
    eig_unitary,
    haar_random_state,
    haar_random_unitary,
    mat_exp,
    trace_fidelity,
    unitarity_defect,
)
from unimap.ec import ec_maps, run_ec_trials
from unimap.eigensynth import plan_unitary
from unimap.gates import gate_from_name, pauli_Z
from unimap.subspace import SubspaceMapSpec, subspace_fidelity
from unimap.wigner import extract_block, multipole_components, wigner_grid


def reassemble(dec):
    """The unitary sum_j exp(-i phases[j]) |v_j><v_j| that an ``eig_unitary`` result describes."""
    return (dec.vectors * np.exp(-1j * dec.phases)) @ dec.vectors.conj().T


def random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def taylor_expm(h, t):
    """Independent oracle: scaling and squaring with a 1e-16 term cutoff."""
    a = -1j * np.asarray(h, dtype=complex) * t
    squarings = max(0, int(np.ceil(np.log2(max(np.abs(a).max(), 1e-30)))) + 2)
    a = a / 2**squarings
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 200):
        term = term @ a / k
        total += term
        if np.abs(term).max() < 1e-16:
            break
    for _ in range(squarings):
        total = total @ total
    return total


class TestMatExp:
    def test_zero_generator(self):
        assert np.allclose(mat_exp(np.zeros((3, 3)), 1.7), np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        lams = np.array([0.3, -1.1, 2.4, 0.0])
        got = mat_exp(np.diag(lams), 0.8)
        assert np.abs(got - np.diag(np.exp(-1j * lams * 0.8))).max() < 1e-14

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(6, rng)
        assert np.abs(mat_exp(h, 0.37) - taylor_expm(h, 0.37)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            mat_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_inverse_property(self, d):
        rng = np.random.default_rng(d)
        h = random_hermitian(d, rng)
        t = rng.uniform(0.1, 2.0)
        prod = mat_exp(h, t) @ mat_exp(h, -t)
        assert np.abs(prod - np.eye(d)).max() < 1e-10

    def test_result_unitary(self):
        rng = np.random.default_rng(11)
        u = mat_exp(random_hermitian(9, rng), 3.3)
        assert unitarity_defect(u) < 1e-10


class TestEigUnitary:
    def test_identity(self):
        dec = eig_unitary(np.eye(5))
        assert np.abs(dec.phases).max() == 0.0
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(5)).max() < 1e-10

    def test_qudit_clock_d3(self):
        from unimap.gates import pauli_Z

        dec = eig_unitary(pauli_Z(3))
        # Z = diag(w^j) = sum_j e^{-i lam_j}|j><j| with lam_j = -2 pi j / 3 mod 2 pi
        assert np.allclose(sorted(dec.phases), [0.0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-12)
        for col in dec.vectors.T:
            assert np.sum(np.abs(col) > 1e-12) == 1  # standard basis vectors

    def test_haar_reassembly(self):
        rng = np.random.default_rng(3)
        u = haar_random_unitary(7, rng)
        dec = eig_unitary(u)
        assert np.abs(reassemble(dec) - u).max() < 1e-10

    @pytest.mark.parametrize("d", list(range(2, 17)))
    def test_reassembly_all_dims(self, d):
        rng = np.random.default_rng(100 + d)
        u = haar_random_unitary(d, rng)
        dec = eig_unitary(u)
        assert np.abs(reassemble(dec) - u).max() < 1e-10
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(d)).max() < 1e-10

    @pytest.mark.parametrize("case", [4, 9, 16, "H", "S", "G:2", "Z:2", "Z:8", "Z:16", "Z:32", "-I"])
    def test_degenerate_spectra(self, case):
        if isinstance(case, int):
            d = case
            rng = np.random.default_rng(200 + d)
            v = haar_random_unitary(d, rng)
            # half the phases coincide exactly
            phases = np.concatenate([np.full(d // 2, 1.234), rng.uniform(0, 2 * np.pi, d - d // 2)])
            u = (v * np.exp(-1j * phases)) @ v.conj().T
        elif case == "-I":
            d = 5
            u = -np.eye(d, dtype=complex)
        elif case.startswith("Z:"):
            # every gap of the clock spectrum is 2 pi / d, the narrowest a widest gap can be
            d = int(case[2:])
            u = pauli_Z(d)
        else:
            # a d=7 gate padded to the 8-level model as build-unitary pads it;
            # eigenvalue 1 then occurs three or four times
            d = 8
            u = np.eye(d, dtype=complex)
            u[:7, :7] = gate_from_name(case, 7)
        dec = eig_unitary(u)
        assert np.abs(reassemble(dec) - u).max() < 1e-10
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(d)).max() < 1e-10

    def test_clustered_phases(self):
        rng = np.random.default_rng(23)
        d = 6
        v = haar_random_unitary(d, rng)
        phases = np.array([0.7, 0.7 + 1e-9, 0.7 + 2e-9, 2.5, 2.5 + 1e-9, 4.0])
        u = (v * np.exp(-1j * phases)) @ v.conj().T
        dec = eig_unitary(u)
        assert np.abs(reassemble(dec) - u).max() < 1e-10
        assert np.abs(dec.vectors.conj().T @ dec.vectors - np.eye(d)).max() < 1e-12

    def test_slightly_non_unitary_input(self):
        # a defect just inside assert_unitary's tolerance: U is close to, not exactly, normal
        rng = np.random.default_rng(29)
        d = 7
        u = haar_random_unitary(d, rng)
        u = u + 2e-11 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        assert 0.5 * UNITARY_TOL < unitarity_defect(u) <= UNITARY_TOL
        dec = eig_unitary(u)
        assert np.abs(reassemble(dec) - u).max() < 1e-9

    def test_phases_in_range(self):
        rng = np.random.default_rng(17)
        dec = eig_unitary(haar_random_unitary(6, rng))
        assert np.all(dec.phases >= 0) and np.all(dec.phases < 2 * np.pi)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            eig_unitary(np.diag([1.0, 2.0]))


class TestFidelities:
    def test_trace_fidelity_self(self):
        rng = np.random.default_rng(0)
        w = haar_random_unitary(5, rng)
        assert trace_fidelity(w, w) == pytest.approx(1.0, abs=1e-14)

    def test_trace_fidelity_global_phase(self):
        rng = np.random.default_rng(1)
        w = haar_random_unitary(4, rng)
        assert trace_fidelity(w, np.exp(1.3j) * w) == pytest.approx(1.0, abs=1e-14)

    def test_trace_fidelity_pauli_zx(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        # oracle: Tr(Z†X) by direct multiplication has zero diagonal
        assert np.trace(z.conj().T @ x) == 0
        assert trace_fidelity(z, x) == 0.0

    def test_trace_fidelity_symmetric(self):
        rng = np.random.default_rng(2)
        w, u = haar_random_unitary(6, rng), haar_random_unitary(6, rng)
        assert trace_fidelity(w, u) == pytest.approx(trace_fidelity(u, w), abs=1e-14)
        assert trace_fidelity(w, u) < 1.0 - 1e-6

    def test_trace_fidelity_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_fidelity(np.eye(2), np.eye(3))



class TestHaarSampling:
    def test_unit_norm_and_determinism(self):
        a = haar_random_state(5, np.random.default_rng(42))
        b = haar_random_state(5, np.random.default_rng(42))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        assert np.array_equal(a, b)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            haar_random_state(1, np.random.default_rng(0))

    def test_first_moment(self):
        # Haar moment: E|<0|psi>|^2 = 1/d
        rng = np.random.default_rng(2024)
        n, d = 100_000, 4
        z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        mean = np.mean(np.abs(z[:, 0]) ** 2)
        assert abs(mean - 0.25) < 0.01

    def test_rotation_invariance(self):
        # overlap statistics unchanged by a fixed unitary rotation
        rng = np.random.default_rng(9)
        u = haar_random_unitary(4, rng)
        chi = basis_state(4, 1)
        samples = np.array(
            [abs(np.vdot(chi, u @ haar_random_state(4, rng))) ** 2 for _ in range(4000)]
        )
        assert abs(samples.mean() - 0.25) < 0.02

    def test_haar_unitary_is_unitary(self):
        u = haar_random_unitary(7, np.random.default_rng(5))
        assert unitarity_defect(u) < 1e-12


class TestValidation:
    def test_as_state_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            as_state(np.array([1.0, 1.0]))

    def test_as_state_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            as_state(basis_state(3, 0), d=4)

    def test_assert_unitary_tol(self):
        u = np.eye(3) * (1 + 5e-10)
        with pytest.raises(ValueError, match="not unitary"):
            assert_unitary(u)

    def test_assert_hermitian_accepts(self):
        h = assert_hermitian(np.diag([1.0, 2.0]))
        assert h.dtype == complex

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_as_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_state(np.array([bad, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_assert_unitary_rejects_non_finite(self, bad):
        u = np.eye(3, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            assert_unitary(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_assert_hermitian_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            assert_hermitian(np.diag([1.0, bad]))


def _with_entry(a, index, bad):
    a = np.array(a, dtype=complex)
    a[index] = bad
    return a


_U8 = haar_random_unitary(8, np.random.default_rng(3))
_PSI3 = np.array([0.6, 0.8j, 0.0])
#: entry point -> (call with one bad entry put in its input, the message it refuses with)
_NON_FINITE_CASES = {
    "assert_unitary": (lambda bad: assert_unitary(_with_entry(_U8, (2, 5), bad)), "matrix has non-finite entries"),
    "assert_hermitian": (lambda bad: assert_hermitian(_with_entry(np.eye(8), (3, 3), bad)),
                         "matrix has non-finite entries"),
    "mat_exp": (lambda bad: mat_exp(_with_entry(np.eye(8), (3, 3), bad), 1.0), "matrix has non-finite entries"),
    "eig_unitary": (lambda bad: eig_unitary(_with_entry(_U8, (2, 5), bad)), "matrix has non-finite entries"),
    "plan_unitary": (lambda bad: plan_unitary(_with_entry(_U8, (2, 5), bad)), "matrix has non-finite entries"),
    "trace_fidelity": (lambda bad: trace_fidelity(_U8, _with_entry(_U8, (2, 5), bad)), "matrix has non-finite entries"),
    "subspace_fidelity": (lambda bad: subspace_fidelity(
        _with_entry(_U8, (2, 5), bad), SubspaceMapSpec(source=(basis_state(8, 5),), target=(basis_state(8, 2),))),
        "matrix has non-finite entries"),
    "multipole_components": (lambda bad: multipole_components(_with_entry(np.outer(_PSI3, _PSI3.conj()), (1, 0), bad)),
                             "matrix has non-finite entries"),
    "wigner_grid": (lambda bad: wigner_grid(_with_entry(_PSI3, 0, bad), 5, 5),
                    "Wigner values are not finite: state has non-finite entries"),
    "extract_block": (lambda bad: extract_block(_with_entry([*_PSI3, 0.0], 1, bad), 0, 3),
                      "state has non-finite entries"),
    "run_ec_trials": (lambda bad: run_ec_trials(np.array([[bad, 0.0]]), 0.1, ec_maps()),
                      "qubit states must be finite with unit norm"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)], ids=["nan", "inf", "-inf", "inf-j"])
@pytest.mark.parametrize("entry_point", sorted(_NON_FINITE_CASES))
def test_non_finite_entry_is_refused_before_any_arithmetic(entry_point, bad):
    # a numpy warning raised in place of the refusal, or a returned nan, fails here
    call, message = _NON_FINITE_CASES[entry_point]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(bad)
