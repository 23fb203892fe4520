"""Simulation substrate: Feynman-path and statevector simulators plus noise.

The paper's evaluation (Sec. 6) rests on a *Feynman-path simulator*: because
QRAM circuits are built from classical reversible gates (and the injected
errors are Paulis), every computational basis state of the input superposition
evolves into a single basis state with a +/-1 (or unit-modulus) phase.  Each
such trajectory is a *path*; simulating a query costs ``O(n_gates * n_paths)``
with memory constant in circuit depth.

Contents
--------
* :class:`~repro.sim.paths.PathState` -- a superposition stored as a boolean
  matrix of paths plus complex amplitudes.
* :class:`~repro.sim.engine.FeynmanPathSimulator` -- noiseless and
  Monte-Carlo-noisy path simulation over the compiled gate tape, vectorised
  across both paths and shots (``"feynman-tape"``,
  :data:`~repro.sim.engine.ENGINE_NAME`).
* :class:`~repro.sim.statevector.StatevectorSimulator` -- dense reference
  simulator (supports ``H``/``S``/``T``) used for cross-validation in tests.
* :mod:`~repro.sim.noise` -- Pauli channels, gate-based and qubit-based
  Monte-Carlo error injection (Secs. 5.1 and 6.3).
* :mod:`~repro.sim.fidelity` -- full-state and reduced (address+bus) query
  fidelity estimators.
"""

from repro.sim.engine import (
    ENGINE_NAME,
    FeynmanPathSimulator,
    UnsupportedGateError,
    get_default_engine,
    get_engine,
)
from repro.sim.fidelity import reduced_fidelity, state_fidelity
from repro.sim.noise import (
    DepolarizingNoise,
    GateNoiseModel,
    NoiseModel,
    NoiselessModel,
    PauliChannel,
    QubitOncePauliNoise,
    ScheduledNoiseModel,
    sample_noisy_circuit,
    with_idle_noise,
)
from repro.sim.paths import PathState
from repro.sim.seeding import ShotSeeds
from repro.sim.statevector import StatevectorSimulator

__all__ = [
    "DepolarizingNoise",
    "ENGINE_NAME",
    "FeynmanPathSimulator",
    "GateNoiseModel",
    "NoiseModel",
    "NoiselessModel",
    "PauliChannel",
    "PathState",
    "QubitOncePauliNoise",
    "ScheduledNoiseModel",
    "ShotSeeds",
    "StatevectorSimulator",
    "UnsupportedGateError",
    "get_default_engine",
    "get_engine",
    "reduced_fidelity",
    "sample_noisy_circuit",
    "state_fidelity",
    "with_idle_noise",
]
