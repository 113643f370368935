"""Synthesis of unitary and subspace maps on controllable quantum systems.

The library couples a projected L-BFGS search for state-to-state control
waveforms with deterministic constructions that assemble arbitrary
unitaries (one fiducial-phase imprint per eigenvector) and subspace maps
(one pi-rotation per basis vector).  It ships an 8-level cesium hyperfine
control instance, qudit Pauli/Clifford gate targets, and an embedded-qubit
error-correction simulation.
"""

__version__ = "0.1.0"
