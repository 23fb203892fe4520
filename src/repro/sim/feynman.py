"""Vectorised Feynman-path simulator (Sec. 6.2 of the paper).

Every gate the QRAM architectures use is either a permutation of computational
basis states (``X``, ``CX``, ``CCX``, ``MCX``, ``SWAP``, ``CSWAP``) or diagonal
up to a bit flip (the Pauli errors ``X``/``Y``/``Z`` and the phase gates
``Z``/``S``/``T``/``CZ``).  A basis state therefore never branches: it is a
*path* ``(bitstring, amplitude)`` that each gate updates in place.

The simulator stores all paths of the input superposition as a boolean matrix
``(n_paths, n_qubits)`` and applies each gate with NumPy column operations, so
the cost of a query is ``O(n_gates * n_paths)`` and the memory footprint is
constant in circuit depth -- the property that lets the paper simulate noisy
QRAMs far beyond the reach of dense statevector simulation.

For Monte-Carlo noise the simulator goes one step further and vectorises over
shots as well: the path matrix is replicated ``shots`` times and per-shot
Pauli errors are applied as masked column updates.

:class:`FeynmanPathSimulator` is a thin facade over the compiled
``"feynman-tape"`` engine of :mod:`repro.sim.engine`, which executes the
circuit's fused :class:`~repro.circuit.ir.GateTape` with integer-opcode
dispatch and draws all Monte-Carlo Pauli codes up front.  The dense
reference simulator is :class:`~repro.sim.statevector.StatevectorSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.sim.engine import UnsupportedGateError, get_engine
from repro.sim.fidelity import shot_fidelities
from repro.sim.noise import NoiseModel
from repro.sim.paths import PackedBits, PathState
from repro.sim.seeding import ShotSeeds

__all__ = ["FeynmanPathSimulator", "QueryResult", "UnsupportedGateError"]


@dataclass
class QueryResult:
    """Outcome of a Monte-Carlo noisy query simulation.

    Postselected runs mark rejected shots with ``NaN`` in ``fidelities``
    (see :func:`~repro.sim.fidelity.shot_fidelities`); every aggregate below
    is taken over the *kept* shots only, with :attr:`kept_fraction` keeping
    the discard visible.  Runs without postselection (no ``NaN``) reproduce
    the historical all-shot aggregates bit for bit.
    """

    fidelities: np.ndarray
    shots: int

    @property
    def kept_shots(self) -> int:
        """Shots that survived postselection (all of them when none applied)."""
        return self.shots - int(np.count_nonzero(np.isnan(self.fidelities)))

    @property
    def kept_fraction(self) -> float:
        """Fraction of shots kept by postselection: ``1.0`` without any."""
        return self.kept_shots / self.shots

    @property
    def mean_fidelity(self) -> float:
        """Mean fidelity over the kept shots (``NaN`` when all were rejected)."""
        kept = self.kept_shots
        if kept == self.shots:
            return float(np.mean(self.fidelities))
        if kept == 0:
            return float("nan")
        return float(np.mean(self.fidelities[~np.isnan(self.fidelities)]))

    @property
    def std_error(self) -> float:
        """Standard error of the mean over the kept shots.

        The ``shots <= 1`` guard extends naturally to postselection: with at
        most one kept shot there is no sample variance, so the standard
        error is ``0.0`` -- well-defined even when :attr:`mean_fidelity` is
        ``NaN`` because nothing was kept.
        """
        kept = self.kept_shots
        if kept == self.shots:
            if self.shots <= 1:
                return 0.0
            return float(np.std(self.fidelities, ddof=1) / np.sqrt(self.shots))
        if kept <= 1:
            return 0.0
        values = self.fidelities[~np.isnan(self.fidelities)]
        return float(np.std(values, ddof=1) / np.sqrt(kept))


class FeynmanPathSimulator:
    """Simulates basis-permutation circuits path by path (see module docstring)."""

    # ----------------------------------------------------------- noiseless run
    def run(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        *,
        rng: np.random.Generator | None = None,
    ) -> PathState:
        """Run ``circuit`` on ``state`` and return the output :class:`PathState`.

        ``rng`` supplies mid-circuit measurement outcomes when the circuit
        contains ``MEASURE`` instructions (``None`` uses a fixed stream);
        measurement-free circuits never consume randomness.
        """
        return get_engine().run(circuit, state, rng=rng)

    # -------------------------------------------------------- noisy Monte Carlo
    def run_noisy_shots(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | int | np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulate ``shots`` Monte-Carlo noise samples in one vectorised pass.

        Returns the final ``bits`` block of shape ``(shots * n_paths, n_qubits)``
        and the matching amplitude vector.  Rows ``[s * n_paths, (s+1) * n_paths)``
        belong to shot ``s``.  ``rng`` is a :class:`~repro.sim.seeding.ShotSeeds`
        window or anything :func:`~repro.sim.seeding.as_shot_seeds` accepts;
        every shot draws from its own stream (see :mod:`repro.sweep`).
        """
        return get_engine().run_noisy_shots(
            circuit, state, noise, shots, rng=rng
        )

    def run_noisy_shots_recorded(
        self,
        circuit: QuantumCircuit,
        state: PathState,
        noise: NoiseModel,
        shots: int,
        rng: ShotSeeds | int | np.random.Generator | None = None,
    ) -> tuple[PackedBits, np.ndarray, np.ndarray | None]:
        """Like :meth:`run_noisy_shots`, plus the recorded measurement outcomes.

        The bits come back packed, a :class:`~repro.sim.paths.PackedBits`
        that ``np.asarray`` unpacks.  The third element is the classical
        register of the whole batch -- shape ``(num_clbits, shots)``
        ``int8``, one row per slot -- or ``None`` when the circuit records
        nothing.  This is what
        postselection partitions shots by (see :meth:`query_fidelities`).
        """
        return get_engine().run_noisy_shots_recorded(
            circuit, state, noise, shots, rng=rng
        )

    def query_fidelities(
        self,
        circuit: QuantumCircuit,
        input_state: PathState,
        noise: NoiseModel,
        shots: int,
        *,
        keep_qubits: list[int] | None = None,
        ideal_output: PathState | None = None,
        rng: ShotSeeds | int | np.random.Generator | None = None,
        postselect: tuple[tuple[int, int], ...] | None = None,
    ) -> QueryResult:
        """Monte-Carlo estimate of the query fidelity under ``noise``.

        The shots run through :meth:`run_noisy_shots_recorded`, and its
        packed bits go to :func:`~repro.sim.fidelity.shot_fidelities` as
        they are: no full bool block is built.

        Parameters
        ----------
        circuit:
            The (noise-free) query circuit.
        input_state:
            Input superposition, typically
            ``PathState.register_superposition`` over the address register.
        noise:
            Noise model; gate-based models are applied on the fly.
        shots:
            Number of Monte-Carlo noise samples.
        keep_qubits:
            Qubits defining the *reduced* fidelity (normally address + bus,
            i.e. the registers whose state the algorithm actually consumes).
            ``None`` computes the full-state overlap fidelity.
        ideal_output:
            Pre-computed noiseless output (saves a simulation when sweeping
            noise parameters over the same circuit).
        rng:
            Anything :func:`~repro.sim.seeding.as_shot_seeds` accepts.
        postselect:
            ``(cbit, expected_outcome)`` pairs to postselect on: a shot is
            *kept* only when every listed classical slot recorded its
            expected outcome.  Rejected shots come back as ``NaN`` in
            :attr:`QueryResult.fidelities` and are excluded from every
            aggregate, with :attr:`QueryResult.kept_fraction` accounting for
            them.  ``None`` (or empty) keeps every shot.
        """
        if ideal_output is None:
            ideal_output = self.run(circuit, input_state)
        # The packed rows go straight to the fidelity reduction, which
        # unpacks only the qubits it reads.
        bits, amps, outcomes = self.run_noisy_shots_recorded(
            circuit, input_state, noise, shots, rng=rng
        )
        kept: np.ndarray | None = None
        if postselect:
            if outcomes is None:
                raise ValueError(
                    "postselect names classical bits but the circuit records "
                    "no measurement outcomes"
                )
            kept = np.ones(shots, dtype=bool)
            for cbit, expected in postselect:
                kept &= outcomes[cbit] == expected
        # Branching circuits may leave more paths per shot than the input had
        # (uncollapsed H branches), so derive the per-shot width from the
        # returned block instead of the input state.
        fidelities = shot_fidelities(
            ideal_output,
            bits,
            amps,
            shots=shots,
            n_paths=bits.shape[0] // shots,
            keep_qubits=keep_qubits,
            kept=kept,
        )
        return QueryResult(fidelities=fidelities, shots=shots)
