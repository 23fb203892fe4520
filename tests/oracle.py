"""Independent dense oracle for the tape engine's seeded noisy trajectories.

For one shot of a :class:`~repro.sim.seeding.ShotSeeds` window the oracle
rebuilds that shot's sampled errors from first principles and simulates the
result densely:

* the error sites come from :func:`repro.sim.noise.iter_error_sites` (trivial
  channels skipped), never from the tape's noise-site table or the engine's
  window draw;
* the shot's stream is ``seeds.generator(s).random(n_measurements + n_sites)``
  -- the measurement uniforms first, then one uniform per site;
* each site uniform becomes a Pauli code through
  ``np.searchsorted(channel.thresholds, u, side="right")``, the reference
  form of the threshold sampler;
* the drawn ``X``/``Y``/``Z`` errors are inserted right after their gate
  (end-of-circuit sites last) and :class:`~repro.sim.statevector.StatevectorSimulator`
  runs the noisy circuit, reading its measurement outcomes from the shot's
  measurement uniforms in program order.

Dense simulation caps the oracle at 22 qubits.  It is exact wherever the
Feynman engines are: it must stay off ``X``-basis measurements of colliding
paths, where the path engines only give an unbiased estimator.
"""

from __future__ import annotations

import numpy as np

from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.sim.engine import get_engine
from repro.sim.noise import NoiseModel, NoiselessModel, iter_error_sites
from repro.sim.paths import PathState
from repro.sim.seeding import ShotSeeds
from repro.sim.statevector import StatevectorSimulator

_PAULI_GATES = {1: "X", 2: "Y", 3: "Z"}


class _Replay:
    """A stand-in ``Generator`` whose ``random()`` returns fixed uniforms in order."""

    def __init__(self, uniforms: np.ndarray) -> None:
        self._uniforms = iter(uniforms.tolist())

    def random(self) -> float:
        return next(self._uniforms)


def oracle_shot(
    circuit: QuantumCircuit,
    state: PathState,
    noise: NoiseModel,
    seeds: ShotSeeds,
    shot: int,
) -> PathState:
    """The dense output of shot ``shot`` of the ``seeds`` window (module docstring)."""
    sites = []
    if not isinstance(noise, NoiselessModel):
        sites = [
            (index, qubit, channel)
            for index, qubit, channel in iter_error_sites(circuit, noise)
            if not channel.is_trivial
        ]
    n_measurements = sum(instr.is_measurement for instr in circuit.instructions)
    uniforms = seeds.generator(shot).random(n_measurements + len(sites))
    errors: dict[int, list[Instruction]] = {}
    for (index, qubit, channel), u in zip(sites, uniforms[n_measurements:]):
        code = int(np.searchsorted(channel.thresholds, u, side="right"))
        if code:
            errors.setdefault(index, []).append(
                Instruction(gate=_PAULI_GATES[code], qubits=(qubit,))
            )
    instructions: list[Instruction] = []
    for index, instr in enumerate(circuit.instructions):
        instructions.append(instr)
        instructions.extend(errors.get(index, ()))
    instructions.extend(errors.get(len(circuit.instructions), ()))
    noisy = QuantumCircuit(circuit.num_qubits, instructions)
    return StatevectorSimulator().run_to_path_state(
        noisy, state, rng=_Replay(uniforms[:n_measurements])
    )


def assert_tape_matches_oracle(
    circuit: QuantumCircuit,
    state: PathState,
    noise: NoiseModel,
    shots: int,
    seeds: ShotSeeds,
    *,
    tol: float = 1e-12,
) -> None:
    """Every shot of the tape engine's block equals its oracle shot to ``tol``."""
    packed, amps, _ = get_engine("feynman-tape").run_noisy_shots_recorded(
        circuit, state, noise, shots, rng=seeds
    )
    bits = np.asarray(packed)
    n_paths = bits.shape[0] // shots
    for shot in range(shots):
        rows = slice(shot * n_paths, (shot + 1) * n_paths)
        tape = PathState(bits=bits[rows], amplitudes=amps[rows]).as_dict()
        dense = oracle_shot(circuit, state, noise, seeds, shot).as_dict()
        for key in tape.keys() | dense.keys():
            delta = abs(tape.get(key, 0.0) - dense.get(key, 0.0))
            assert delta <= tol, f"shot {shot}: amplitude at {key} off by {delta}"
