"""Linear-algebra primitives: matrix exponential, unitary spectra, fidelities, and the non-finite and overflow
refusals."""

import ast
import importlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from unimap.core import (
    DIM_LIMIT,
    PHASE_LIMIT,
    SQUARE_LIMIT,
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
from unimap.control import ControlSystem, Waveform
from unimap.ec import ECConfig, ec_maps, run_ec_trials
from unimap.eigensynth import plan_unitary
from unimap.gates import gate_from_name, mult_G, pauli_X, pauli_Z, verify_clifford_relations
from unimap.io import complex_to_pairs, pairs_to_complex
from unimap.search import SearchConfig, SearchResult
from unimap.subspace import ExactMapper, SubspaceMapSpec, subspace_fidelity
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


#: entry point -> (call with one finite entry of the given size put in its input, the message it refuses with,
#: ``{}`` standing for that size)
_NOT_UNITARY = "matrix is not unitary: U†U deviates from I by inf"
_OVERFLOW_CASES = {
    "as_state": (lambda big: as_state(np.array([big, 0.0])), "state has an entry above 1e+150 in modulus"),
    "assert_unitary": (lambda big: assert_unitary(np.eye(3) * big), _NOT_UNITARY),
    "eig_unitary": (lambda big: eig_unitary(np.eye(3) * big), _NOT_UNITARY),
    "plan_unitary": (lambda big: plan_unitary(np.eye(3) * big), _NOT_UNITARY),
    "wigner_grid": (lambda big: wigner_grid(np.array([big, 0.0, 0.0]), 5, 5),
                    "Wigner values would overflow: state has an entry above 1e+150 in modulus"),
    "extract_block": (lambda big: extract_block(np.array([0.6, 0.8, big]), 0, 2),
                      "state has an entry above 1e+150 in modulus outside the requested block"),
    "run_ec_trials": (lambda big: run_ec_trials(np.array([[big, 0.0]]), 0.1, ec_maps()),
                      "qubit states must be finite with unit norm"),
}


@pytest.mark.parametrize("big", [1e155, 1e200])
@pytest.mark.parametrize("entry_point", sorted(_OVERFLOW_CASES))
def test_finite_entry_whose_square_overflows_is_refused_before_any_warning(entry_point, big):
    # an overflow warning raised in place of the refusal, or a refusal that blames non-finite entries, fails here
    call, message = _OVERFLOW_CASES[entry_point]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(big))}$"):
            call(big)


_EC_MAPS = ec_maps()
#: state entry point -> (call with one entry of the given size put in its input, the message it refuses an entry
#: of exactly ``SQUARE_LIMIT`` with, or None where it takes one, the message of the door above it)
_DOOR_CASES = {
    "as_state": (lambda x: as_state(np.array([x, 0.0])), "state norm deviates from 1 by 1.000e+150",
                 "state has an entry above 1e+150 in modulus"),
    "wigner_grid": (lambda x: wigner_grid(np.array([x, 0.0, 0.0]), 5, 5), None,
                    "Wigner values would overflow: state has an entry above 1e+150 in modulus"),
    "extract_block": (lambda x: extract_block(np.array([0.6, 0.8, x]), 0, 2),
                      "state has support 1.000e+150 outside the requested block",
                      "state has an entry above 1e+150 in modulus outside the requested block"),
    "run_ec_trials": (lambda x: run_ec_trials(np.array([[x, 0.0]]), 0.1, _EC_MAPS),
                      "qubit states must be finite with unit norm", "qubit states must be finite with unit norm"),
}


@pytest.mark.parametrize("entry_point", sorted(_DOOR_CASES))
def test_state_entry_above_the_square_limit_is_refused_at_the_door(entry_point, monkeypatch):
    # an entry of exactly SQUARE_LIMIT squares within float64 and is judged as before; the next float up is
    # refused before any norm is taken
    call, at_limit, above = _DOOR_CASES[entry_point]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if at_limit is None:
            assert np.isfinite(call(SQUARE_LIMIT).values).all()
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(at_limit)}$"):
                call(SQUARE_LIMIT)
        norms = []
        monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: norms.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(above)}$"):
            call(np.nextafter(SQUARE_LIMIT, np.inf))
    assert norms == []


_E3 = SubspaceMapSpec(source=(basis_state(3, 0),), target=(basis_state(3, 0),))
_PHASE = "phase max|lambda| |t| reaches {} rad, above the 450000 rad that keeps it accurate to 1e-10"
_E3_PAIR = SubspaceMapSpec(source=(basis_state(3, 0), basis_state(3, 1)), target=(basis_state(3, 0), basis_state(3, 1)))
_GROWS = "matrix is not a contraction: its largest singular value exceeds 1 by {}"
#: a finite input no rounding explains -> the message it is refused with; a fidelity's maps are refused before
#: they are scored, so a map that would score above 1, overflow the score, or score 1 by an excess and a deficit
#: that cancel, names its largest singular value
_CEILING_AND_PHASE_CASES = {
    "trace_fidelity-cancelling-W": (lambda: trace_fidelity(np.diag([2.0, 0.0, 1.0]), np.eye(3)),
                                    _GROWS.format("1.000e+00")),
    "trace_fidelity-cancelling-U": (lambda: trace_fidelity(np.eye(3), np.diag([2.0, 0.0, 1.0])),
                                    _GROWS.format("1.000e+00")),
    "subspace_fidelity-cancelling": (lambda: subspace_fidelity(np.diag([1.5, 0.5, 1.0]), _E3_PAIR),
                                     _GROWS.format("5.000e-01")),
    "trace_fidelity-2I": (lambda: trace_fidelity(np.eye(3), 2 * np.eye(3)), _GROWS.format("1.000e+00")),
    "trace_fidelity-1e155I": (lambda: trace_fidelity(np.eye(3), 1e155 * np.eye(3)), _GROWS.format("1.000e+155")),
    "trace_fidelity-overflow": (lambda: trace_fidelity(1e200 * np.eye(3), 1e200 * np.eye(3)),
                                _GROWS.format("1.000e+200")),
    "subspace_fidelity-2I": (lambda: subspace_fidelity(2 * np.eye(3), _E3), _GROWS.format("1.000e+00")),
    "subspace_fidelity-overflow": (lambda: subspace_fidelity(np.full((3, 3), 1.5e308), SubspaceMapSpec(
        source=(np.ones(3) / np.sqrt(3),), target=(basis_state(3, 0),))), _GROWS.format("inf")),
    "mat_exp-1e200": (lambda: mat_exp(np.eye(2) * 1e200, 1.0), _PHASE.format("1e+200")),
    "mat_exp-overflow": (lambda: mat_exp(np.eye(2) * 1e200, -1e200), _PHASE.format("inf")),
    "mat_exp-past-limit": (lambda: mat_exp(np.diag([0.0, -2.0]), PHASE_LIMIT), _PHASE.format("9e+05")),
    "assert_hermitian-overflow": (lambda: assert_hermitian(np.array([[0, 1e308], [-1e308, 0]])),
                                  "matrix is not Hermitian: H - H† deviates by inf"),
}


@pytest.mark.parametrize("case", sorted(_CEILING_AND_PHASE_CASES))
def test_a_fidelity_above_1_a_phase_without_digits_and_an_overflowing_defect_are_refused(case):
    call, message = _CEILING_AND_PHASE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_a_block_of_a_unitary_still_scores():
    # a block of a unitary is a contraction, as ``cli``'s block trace fidelity needs
    u = haar_random_unitary(8, np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_fidelity(u[:3, :3], u[:3, :3]) == abs(np.trace(u[:3, :3].conj().T @ u[:3, :3])) / 3
        assert trace_fidelity(np.eye(3), np.diag([1.0, 1.0, 0.0])) == pytest.approx(2 / 3, abs=1e-15)
        assert subspace_fidelity(np.diag([1.0, 1.0, 0.0]), _E3_PAIR) == 1.0


def test_rounding_above_1_is_clipped_and_the_limits_admit_what_they_bound():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_fidelity(np.eye(3), (1 + 1e-12) * np.eye(3)) == 1.0
        assert subspace_fidelity((1 + 1e-12) * np.eye(3), _E3) == 1.0
        h = np.array([[0, 1e308], [1e308, 0]])
        assert np.array_equal(assert_hermitian(h), h)
        # at the limit the phase is kept, and is the eigendecomposition's, bit for bit
        lam, v = np.linalg.eigh(np.diag([0.0, -1.0]))
        assert np.array_equal(mat_exp(np.diag([0.0, -1.0]), PHASE_LIMIT),
                              (v * np.exp(-1j * lam * PHASE_LIMIT)) @ v.conj().T)


def test_control_reads_the_phase_limit_of_core():
    from unimap import control

    assert control.PHASE_LIMIT is PHASE_LIMIT


_QUBIT = np.array([[1.0, 0.0]])
_SPIN_HALF = (np.zeros((2, 2)), (np.diag([0.5, -0.5]),), ((-1.0, 1.0),))
_HUGE_ENTRY = "an entry is an integer that overflows a float"
#: a number that is not one, or an integer too large for a float -> (call, the error it raises, its message)
_NUMBER_CASES = {
    "SearchConfig-huge": (lambda: SearchConfig(3, segment_duration=10**400), ValueError,
                          "segment_duration is an integer that overflows a float"),
    "ECConfig-huge": (lambda: ECConfig(epsilon_grid=(10**400,)), ValueError, _HUGE_ENTRY),
    "Waveform-huge": (lambda: Waveform([10**400], [[0.0]]), ValueError, _HUGE_ENTRY),
    "run_ec_trials-huge": (lambda: run_ec_trials(_QUBIT, 10**400, ec_maps()), ValueError, _HUGE_ENTRY),
    "ControlSystem-huge-bound": (lambda: ControlSystem(*_SPIN_HALF[:2], ((-10**400, 1),), 0), ValueError,
                                 "one (lower, upper) bounds pair per control is required for 1 controls: "
                                 f"{_HUGE_ENTRY}"),
    "ControlSystem-unprintable-bound": (lambda: ControlSystem(*_SPIN_HALF[:2], ((-10**5000, 1),), 0), ValueError,
                                        "one (lower, upper) bounds pair per control is required for 1 controls: "
                                        f"{_HUGE_ENTRY}"),
    "Waveform-bool": (lambda: Waveform([True], [[0.0]]), TypeError, "True is not a real number"),
    "Waveform-string": (lambda: Waveform(["1e-6"], [[0.0]]), TypeError, "'1e-6' is not a real number"),
    "run_ec_trials-bool": (lambda: run_ec_trials(_QUBIT, True, ec_maps()), TypeError, "True is not a real number"),
    "run_ec_trials-string": (lambda: run_ec_trials(_QUBIT, "0.1", ec_maps()), TypeError, "'0.1' is not a real number"),
    "basis_state-bool": (lambda: basis_state(3, True), ValueError,
                         "basis index must be an integer in [0, 2], got True"),
    "basis_state-float": (lambda: basis_state(3, 1.0), ValueError, "basis index must be an integer in [0, 2], got 1.0"),
    "ControlSystem-bool-index": (lambda: ControlSystem(*_SPIN_HALF, True), ValueError,
                                 "fiducial index must be an integer in [0, 1], got True"),
    "ControlSystem-float-index": (lambda: ControlSystem(*_SPIN_HALF, 1.0), ValueError,
                                  "fiducial index must be an integer in [0, 1], got 1.0"),
    # the complex entry points read a caller's array by the same rule, and a typed array by its dtype before a cast
    "as_state-bool": (lambda: as_state([True, False]), TypeError, "True is not a number"),
    "as_state-string": (lambda: as_state(["1", "0"]), TypeError, "'1' is not a number"),
    "as_state-bool-array": (lambda: as_state(np.array([True, False])), TypeError, "True is not a number"),
    "assert_unitary-string": (lambda: assert_unitary([["1", "0"], ["0", "1"]]), TypeError, "'1' is not a number"),
    "trace_fidelity-bool": (lambda: trace_fidelity(np.eye(2), [[True, False], [False, True]]), TypeError,
                            "True is not a number"),
    "wigner_grid-bool-array": (lambda: wigner_grid(np.array([True, False]), 3, 3), TypeError, "True is not a number"),
    "extract_block-string-array": (lambda: extract_block(np.array(["1", "0"]), 0, 2), TypeError,
                                   "'1' is not a number"),
    "run_ec_trials-bool-qubit": (lambda: run_ec_trials([[True, False]], 0.1, ec_maps()), TypeError,
                                 "True is not a number"),
    "ControlSystem-bool-control": (lambda: ControlSystem(_SPIN_HALF[0], (np.eye(2, dtype=bool),), _SPIN_HALF[2], 0),
                                   TypeError, "True is not a number"),
    # a complex array or numpy scalar given for a real one is refused before numpy's ComplexWarning
    "Waveform-complex-amplitude": (lambda: Waveform([1e-6], np.array([[0.5 + 0j]])), TypeError,
                                   "(0.5+0j) is not a real number"),
    "run_ec_trials-complex-scalar": (lambda: run_ec_trials(_QUBIT, np.complex128(0.1), ec_maps()), TypeError,
                                     "(0.1+0j) is not a real number"),
    "run_ec_trials-complex-array": (lambda: run_ec_trials(_QUBIT, np.array([0.1, 0.2j]), ec_maps()), TypeError,
                                    "(0.1+0j) is not a real number"),
    # a dimension, a multiplier and a time are integers, integers and real numbers
    "pauli_X-float-dimension": (lambda: pauli_X(3.9), ValueError, "dimension must be an integer in [2, 1024], got 3.9"),
    "pauli_Z-bool-dimension": (lambda: pauli_Z(True), ValueError,
                               "dimension must be an integer in [2, 1024], got True"),
    "mult_G-string": (lambda: mult_G("2", 5), ValueError, "a must be an integer, got '2'"),
    "mult_G-bool": (lambda: mult_G(True, 5), ValueError, "a must be an integer, got True"),
    "mat_exp-bool-time": (lambda: mat_exp(np.eye(2), True), ValueError, "time must be a number, got True"),
    # a flag is a bool and a gate name a string: "no" would plan the phase-corrected map, and 3 has no strip
    "SubspaceMapSpec-string-flag": (lambda: SubspaceMapSpec(source=(basis_state(3, 0),), target=(basis_state(3, 1),),
                                                            phase_correction="no"), ValueError,
                                    "phase_correction must be true or false, got 'no'"),
    "gate_from_name-int": (lambda: gate_from_name(3, 7), ValueError,
                           "unknown gate name 3; expected X, Z, H, S, or G:<a>"),
}


@pytest.mark.parametrize("case", sorted(_NUMBER_CASES))
def test_a_number_that_is_not_one_or_overflows_a_float_is_refused(case):
    # a bool index read as a mask, a number read from a string, or an OverflowError from the conversion fails here
    call, error, message = _NUMBER_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def test_an_integer_index_of_numpy_s_type_is_an_index():
    assert basis_state(3, np.int64(1)).tolist() == [0, 1, 0]
    assert ControlSystem(*_SPIN_HALF, np.int64(1)).fiducial_state().tolist() == [0, 1]
    # a dimension and a multiplier of numpy's integer type are integers too
    assert np.array_equal(mult_G(np.int64(3), np.int64(7)), mult_G(3, 7)) and pauli_X(np.int64(3)).shape == (3, 3)
    # pow(a, -1, d) takes the int the rule returns: numpy's int64 raised a TypeError there
    assert verify_clifford_relations(7, np.int64(3)) == verify_clifford_relations(7, 3)


_SPIN_HALF_SYSTEM = ControlSystem(np.zeros((2, 2)), (np.array([[0.0, 0.5], [0.5, 0.0]]),), ((-1.0, 1.0),), 0)
#: every public function with an int parameter -> (a valid call's arguments, the lower bound of each int parameter,
#: None where it has none); the census reads the int parameters from the code, so a new one without a row fails
_INTEGER_CALLS = {
    "build_restricted_system": ({"aux": 4}, {"aux": None}),
    "as_state": ({"psi": [1, 0], "d": 2}, {"d": 2}),
    "basis_state": ({"d": 3, "index": 1}, {"d": 1, "index": 0}),
    "haar_random_state": ({"d": 3, "rng": np.random.default_rng(0)}, {"d": 2}),
    "haar_random_unitary": ({"d": 3, "rng": np.random.default_rng(0)}, {"d": 2}),
    "omega": ({"d": 3}, {"d": 1}),
    "pauli_X": ({"d": 3}, {"d": 2}),
    "pauli_Z": ({"d": 3}, {"d": 2}),
    "dft_H": ({"d": 3}, {"d": 2}),
    "phase_S": ({"d": 3}, {"d": 2}),
    "mult_G": ({"a": 2, "d": 3}, {"a": None, "d": 2}),
    "gate_from_name": ({"name": "X", "d": 3}, {"d": 2}),
    "verify_clifford_relations": ({"d": 7, "a": 3}, {"d": 2, "a": 1}),
    "search_state_map": ({"sys": _SPIN_HALF_SYSTEM, "psi_i": [1, 0], "psi_f": [0, 1],
                          "cfg": SearchConfig(1, segment_duration=1e-3, max_iterations=0), "restart_index": 1},
                         {"restart_index": 0}),
    "phase_product": ({"dim": 2, "steps": [], "mapper": ExactMapper(2), "score": lambda u: 1.0}, {"dim": 2}),
    "spherical_tensor_operators": ({"dim": 3}, {"dim": 1}),
    "wigner_grid": ({"state": [1, 0], "n_theta": 3, "n_phi": 3}, {"n_theta": 2, "n_phi": 2}),
    "extract_block": ({"state": [1, 0, 0], "start": 0, "size": 2}, {"start": 0, "size": 1}),
}


def integer_parameters() -> list[tuple[str, str, str]]:
    """(module, function, parameter) of each parameter annotated ``int``, or a union with ``int``, of a public
    function at a package module's top level."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "unimap").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found += [(path.stem, node.name, arg.arg) for arg in [*node.args.args, *node.args.kwonlyargs]
                          if arg.annotation is not None and "int" in ast.unparse(arg.annotation).split(" | ")]
    return found


_INTEGER_PARAMETERS = integer_parameters()


def _census_rows():
    """(function, parameter, a value that is no valid integer there) for each int parameter of the package."""
    for _, function, name in _INTEGER_PARAMETERS:
        low = _INTEGER_CALLS[function][1][name]
        for bad in (2.5, "3", True, np.float64(3.0), *(() if low is None else (low - 1,))):
            yield pytest.param(function, name, bad, id=f"{function}-{name}-{bad!r}")


def _call(function: str, **changed):
    """The function, found in the package by name, called with its valid arguments and ``changed``."""
    module = next(module for module, name, _ in _INTEGER_PARAMETERS if name == function)
    return getattr(importlib.import_module(f"unimap.{module}"), function)(**{**_INTEGER_CALLS[function][0], **changed})


def test_the_census_has_one_valid_call_and_the_bounds_of_every_int_parameter():
    found = {}
    for _, function, name in _INTEGER_PARAMETERS:
        found.setdefault(function, set()).add(name)
    assert found == {function: set(lows) for function, (_, lows) in _INTEGER_CALLS.items()}


@pytest.mark.parametrize("function, name, bad", list(_census_rows()))
def test_library_census_every_int_parameter_refuses_what_is_no_integer_in_range(function, name, bad):
    # 2.5, "3", True, 3.0 as numpy's float and one below the lower bound: each is the integer rule's one ValueError,
    # never numpy's or Python's own error or warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf" must be an integer( >= -?\d+| in \[-?\d+, \d+\])?, got "
                                             rf"{re.escape(repr(bad))}$"):
            _call(function, **{name: bad})


@pytest.mark.parametrize("function, name", sorted({(f, n) for _, f, n in _INTEGER_PARAMETERS}))
def test_library_census_an_integer_of_numpy_s_type_passes(function, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _call(function, **{name: np.int64(_INTEGER_CALLS[function][0][name])})


#: each entry point that converts a caller's array -> (a call of it on arrays built by ``typed(values)``, whether
#: complex entries are valid there)
_ARRAY_ENTRY_POINTS = {
    "as_state": (lambda typed: as_state(typed([1, 0])), True),
    "assert_unitary": (lambda typed: assert_unitary(typed(np.eye(2))), True),
    "assert_hermitian": (lambda typed: assert_hermitian(typed(np.eye(2))), True),
    "unitarity_defect": (lambda typed: unitarity_defect(typed(np.eye(2))), True),
    "trace_fidelity": (lambda typed: trace_fidelity(typed(np.eye(2)), typed(np.eye(2))), True),
    "ControlSystem-controls": (lambda typed: ControlSystem(typed(np.eye(2)), typed(np.eye(2)[None]), ((-1, 1),), 0),
                               True),
    "ControlSystem-bounds": (lambda typed: ControlSystem(*_SPIN_HALF[:2], typed([[-1, 1]]), 0), False),
    "Waveform": (lambda typed: Waveform(typed([1]), typed([[1]])), False),
    "run_ec_trials-qubits": (lambda typed: run_ec_trials(typed([[1, 0]]), 0.1, ec_maps()), True),
    "run_ec_trials-epsilon": (lambda typed: run_ec_trials(_QUBIT, typed([0, 1]), ec_maps()), False),
    "complex_to_pairs": (lambda typed: complex_to_pairs(typed([1, 0])), True),
    "pairs_to_complex": (lambda typed: pairs_to_complex(typed([[1, 0], [0, 0]])), False),
    "SearchResult-history": (lambda typed: SearchResult(Waveform([1.0], [[0.0]]), 1.0, 0, True, typed([1]),
                                                        np.eye(2)), False),
    "SearchResult-propagator": (lambda typed: SearchResult(Waveform([1.0], [[0.0]]), 1.0, 0, True, [1.0],
                                                           typed(np.eye(2))), True),
    "wigner_grid": (lambda typed: wigner_grid(typed([1, 0]), 3, 3), True),
    "extract_block": (lambda typed: extract_block(typed([1, 0, 0]), 0, 2), True),
}


@pytest.mark.parametrize("name, dtype", [(name, dtype) for name, (_, complex_ok) in sorted(_ARRAY_ENTRY_POINTS.items())
                                         for dtype in (np.int64, np.float64, np.complex128)
                                         if complex_ok or dtype is not np.complex128])
def test_an_int_float_or_complex_array_passes_every_entry_point(name, dtype):
    call, _ = _ARRAY_ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(lambda values: np.array(values, dtype=dtype))


def test_the_array_rule_passes_a_numeric_array_unscanned_and_uncopied(monkeypatch):
    from unimap import core

    def scanned(*args):
        raise AssertionError("an entry was scanned")

    monkeypatch.setattr(core, "_is_number", scanned)
    for values, dtype in ((np.arange(3), float), (np.ones(2), complex), (np.float64(2.0), float), (np.int8(2), complex)):
        assert np.array_equal(core._number_array(values, dtype), values)
    # an array already of the dtype is returned as it is, so a shared read-only stack stays shared
    for values, dtype in ((np.ones(2), float), (np.array([1j]), complex)):
        assert core._number_array(values, dtype) is values
    # an empty array of a kind that is not numeric has no first entry, so its dtype is named
    with pytest.raises(TypeError, match=r"^dtype\('complex128'\) is not a real number$"):
        core._number_array(np.zeros(0, dtype=complex))


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("draw", [haar_random_state, haar_random_unitary], ids=["state", "unitary"])
def test_haar_draws_refuse_a_dimension_below_2(draw, d):
    with pytest.raises(ValueError, match=rf"^dimension must be an integer in \[2, 1024\], got {d}$"):
        draw(d, np.random.default_rng(0))


@pytest.mark.parametrize("d", [DIM_LIMIT + 1, 100000])
@pytest.mark.parametrize("build", [lambda d: haar_random_state(d, np.random.default_rng(0)),
                                   lambda d: haar_random_unitary(d, np.random.default_rng(0)),
                                   lambda d: gate_from_name("X", d), lambda d: gate_from_name("G:3", d),
                                   lambda d: SubspaceMapSpec(source=(np.eye(1, d)[0],), target=(np.eye(1, d)[0],))],
                         ids=["haar-state", "haar-unitary", "X", "G3", "subspace-spec"])
def test_a_dimension_above_the_limit_is_refused_before_anything_is_allocated(build, d):
    # at d = 100000 one complex d x d matrix would take 149 GiB: numpy's MemoryError in place of the refusal fails here
    with pytest.raises(ValueError, match=rf"^dimension must be an integer in \[2, 1024\], got {d}$"):
        build(d)


@pytest.mark.parametrize("call, message", [
    (lambda: as_state(np.array([1.0])), "state dimension must be >= 2, got 1"),
    (lambda: basis_state(3, 3), "basis index must be an integer in [0, 2], got 3"),
    (lambda: basis_state(3, -1), "basis index must be an integer in [0, 2], got -1"),
    (lambda: assert_unitary(np.eye(3)[:2]), "expected a square matrix, got shape (2, 3)"),
    (lambda: assert_hermitian(np.zeros(4)), "expected a square matrix, got shape (4,)"),
    (lambda: mat_exp(np.eye(2), np.nan), "time must be finite"),
    (lambda: mat_exp(np.eye(2), np.inf), "time must be finite"),
], ids=["state-size-1", "basis-index-past-end", "basis-index-negative", "unitary-not-square", "hermitian-1d",
        "time-nan", "time-inf"])
def test_shape_and_range_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
