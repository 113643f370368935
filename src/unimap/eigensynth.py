"""Assemble arbitrary unitaries from state maps and fiducial phase imprints.

Any unitary factors into commuting terms exp(-i lambda_j |phi_j><phi_j|),
one per eigenpair.  Each factor is realized as V† (imprint of lambda_j on
the fiducial state) V, where V is any map sending phi_j to the fiducial:
the product runs through the phase-about-a-vector builder of ``subspace``,
which needs only chi = V†|fiducial>.  The exact mapper gives chi = phi_j
with no V at all; the searched mapper takes chi from a searched V.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import TWO_PI, assert_unitary, eig_unitary, trace_fidelity
from .subspace import SynthesisReport, phase_product

SKIP_PHASE_TOL = 1e-12


class EigenPlanStep(NamedTuple):
    """One eigenpair of the target; a skippable one contributes the identity."""

    phase: float
    eigenvector: np.ndarray
    skippable: bool


def plan_unitary(w: np.ndarray) -> list[EigenPlanStep]:
    """Eigen-decomposition of the target as a list of plan steps.

    Steps whose phase vanishes (mod 2pi, within 1e-12) contribute identity
    factors and are marked skippable so no search is wasted on them.
    """
    decomp = eig_unitary(w)
    steps = []
    for j in range(decomp.dim):
        lam = float(decomp.phases[j])
        skippable = lam <= SKIP_PHASE_TOL or TWO_PI - lam <= SKIP_PHASE_TOL
        steps.append(EigenPlanStep(phase=lam, eigenvector=decomp.vectors[:, j], skippable=skippable))
    return steps


def synthesize_unitary(w: np.ndarray, mapper) -> SynthesisReport:
    """Product over active eigenpairs of V_j† e^{-i lambda_j |0><0|} V_j.

    One mapper call per active eigenpair; the factors commute in exact
    arithmetic, and step 1 is applied first (rightmost).  The report keeps
    one record per eigenpair; a step that misses the fidelity goal has
    ``step.result.converged`` False rather than raising.
    """
    w = assert_unitary(w)
    return phase_product(
        w.shape[0],
        [(None if step.skippable else step.eigenvector, step.phase) for step in plan_unitary(w)],
        mapper,
        score=lambda u: trace_fidelity(w, u),
    )
