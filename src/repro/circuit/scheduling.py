"""ASAP scheduling of circuits into layers of non-overlapping gates.

Circuit depth in this library is always the ASAP (as-soon-as-possible) depth:
each gate is placed in the earliest layer in which none of its operand qubits
is still busy.  Barriers force every listed qubit to synchronise, which is how
the naive (non-pipelined) address-loading schedule of Sec. 3.2.3 is modelled:
the builder inserts a barrier after each address qubit finishes routing, and
the pipelined variant simply omits the barriers, letting ASAP scheduling
overlap consecutive address qubits exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.circuit.instruction import Instruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.circuit import QuantumCircuit


def asap_layers(
    circuit: "QuantumCircuit",
    *,
    respect_barriers: bool = True,
    include_noise: bool = False,
) -> list[list[Instruction]]:
    """Group the circuit's gates into ASAP layers.

    Parameters
    ----------
    circuit:
        Circuit to schedule.
    respect_barriers:
        When True (default) a ``BARRIER`` forces all its qubits to the same
        frontier before later gates are scheduled.  When False barriers are
        ignored entirely.
    include_noise:
        When False (default) instructions tagged ``"noise"`` and ``CPAULI``
        frame corrections are skipped, so that depth reflects the physical
        schedule: injected errors are bookkeeping and Pauli-frame updates are
        software (hardware never executes them as gates).  ``MEASURE``
        instructions are always scheduled -- a mid-circuit measurement
        occupies its qubit for a layer like any gate.

    Returns
    -------
    list of layers, each a list of :class:`Instruction` that act on disjoint
    qubits and can execute simultaneously.
    """
    frontier = [0] * circuit.num_qubits
    layers: list[list[Instruction]] = []

    for instr in circuit.instructions:
        if instr.is_barrier:
            if respect_barriers:
                qubits = instr.qubits if instr.qubits else range(circuit.num_qubits)
                sync = max((frontier[q] for q in qubits), default=0)
                for q in qubits:
                    frontier[q] = sync
            continue
        if not include_noise and (instr.is_noise or instr.is_frame):
            continue
        layer_index = max((frontier[q] for q in instr.qubits), default=0)
        while len(layers) <= layer_index:
            layers.append([])
        layers[layer_index].append(instr)
        for q in instr.qubits:
            frontier[q] = layer_index + 1

    return layers


def circuit_depth(
    circuit: "QuantumCircuit",
    *,
    respect_barriers: bool = True,
    include_noise: bool = False,
) -> int:
    """Number of ASAP layers of ``circuit`` (0 for an empty circuit)."""
    return len(
        asap_layers(
            circuit,
            respect_barriers=respect_barriers,
            include_noise=include_noise,
        )
    )


def layer_widths(circuit: "QuantumCircuit", **kwargs) -> list[int]:
    """Number of gates in each ASAP layer (useful for parallelism analysis)."""
    return [len(layer) for layer in asap_layers(circuit, **kwargs)]


@dataclass(frozen=True)
class ScheduleSlack:
    """Idle time of every qubit under the ASAP schedule (see :func:`idle_slack`).

    Attributes
    ----------
    gate_idle:
        One entry per **barrier-free** instruction of the circuit (the same
        enumeration :func:`repro.circuit.ir.compile_circuit` packs into the
        gate tape): a tuple of ``(qubit, idle_layers)`` pairs giving, for each
        operand of that gate, how many ASAP layers the qubit sat idle since
        its previous gate (or since the circuit started).  Zero-idle operands
        are omitted.  Noise-tagged instructions get an empty entry -- they
        are zero-duration bookkeeping, not scheduled gates -- but still
        consume an index so the enumeration stays aligned with the tape.
    final_idle:
        ``(qubit, idle_layers)`` pairs for the idling between each qubit's
        last gate and the end of the circuit (qubits the circuit never
        touches idle for the full depth).  Zero-idle qubits are omitted.
    depth:
        Total number of ASAP layers (the schedule length all trailing idle
        is measured against).
    """

    gate_idle: tuple[tuple[tuple[int, int], ...], ...]
    final_idle: tuple[tuple[int, int], ...]
    depth: int

    @property
    def total_idle_layers(self) -> int:
        """Sum of idle layers over all qubits (the idle-noise site budget)."""
        per_gate = sum(
            layers for entry in self.gate_idle for _, layers in entry
        )
        return per_gate + sum(layers for _, layers in self.final_idle)


def idle_slack(
    circuit: "QuantumCircuit", *, respect_barriers: bool = True
) -> ScheduleSlack:
    """Per-qubit idle layers under the ASAP schedule, charged gate by gate.

    A qubit is *idle* during every ASAP layer in which it participates in no
    gate.  The slack is reported where a schedule-aware noise model can apply
    it: each gate's entry carries the idle layers its operands accumulated
    since their previous gate, and :attr:`ScheduleSlack.final_idle` carries
    the idling between each qubit's last gate and the end of the circuit.
    The layer walk mirrors :func:`asap_layers` exactly (same barrier
    handling; noise-tagged instructions and ``CPAULI`` frame corrections are
    zero-duration), so ``depth`` equals :func:`circuit_depth`.  Idle time is measured against each qubit's last
    *gate*, not its scheduling frontier: a barrier delays when the next gate
    may start but does not make the waiting qubit any less idle.
    """
    frontier = [0] * circuit.num_qubits
    last_busy = [0] * circuit.num_qubits
    gate_idle: list[tuple[tuple[int, int], ...]] = []
    depth = 0

    for instr in circuit.instructions:
        if instr.is_barrier:
            if respect_barriers:
                qubits = instr.qubits if instr.qubits else range(circuit.num_qubits)
                sync = max((frontier[q] for q in qubits), default=0)
                for q in qubits:
                    frontier[q] = sync
            continue
        if instr.is_noise or instr.is_frame:
            # Zero-duration bookkeeping (injected errors, Pauli-frame
            # updates): keep the index aligned with the tape.
            gate_idle.append(())
            continue
        layer_index = max((frontier[q] for q in instr.qubits), default=0)
        gate_idle.append(
            tuple(
                (q, layer_index - last_busy[q])
                for q in instr.qubits
                if layer_index > last_busy[q]
            )
        )
        for q in instr.qubits:
            frontier[q] = layer_index + 1
            last_busy[q] = layer_index + 1
        depth = max(depth, layer_index + 1)

    final_idle = tuple(
        (q, depth - last_busy[q])
        for q in range(circuit.num_qubits)
        if depth > last_busy[q]
    )
    return ScheduleSlack(
        gate_idle=tuple(gate_idle), final_idle=final_idle, depth=depth
    )
