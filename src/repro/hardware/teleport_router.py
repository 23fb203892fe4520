"""Teleport-aware SABRE routing (the ``"lookahead-teleport"`` registry entry).

The lookahead router resolves blocked gates exclusively with SWAPs: moving a
logical qubit ``d`` coupling edges costs ``d`` SWAPs and drags every qubit on
the way out of place.  On devices with *free* vertices -- the H-tree layouts,
whose routing-chain qubits carry no logical state, or any backend larger than
the circuit -- measurement-based teleportation offers a second primitive: hop
the qubit across a chain of free vertices with the one-bit teleportation
gadget (``CX`` + X-basis ``MEASURE`` + ``CPAULI`` Pauli-frame corrections,
see :mod:`repro.mapping.teleport`), leaving the intermediate vertices reset
to |0> and *no other logical qubit disturbed*.

:class:`TeleportSwapRouter` scores both primitives in the same candidate
loop (the ROADMAP's "bridge/teleport-aware routing" unification): each
decision step compares the best SWAP against the best teleport relocation --
a front-layer operand hopping through currently-free vertices to a free
vertex adjacent to its gate's other operands -- under the same
decay-weighted front + lookahead-window heuristic, with a per-hop penalty
(``hop_weight``) standing in for the link operations a relocation consumes.
Whichever move scores lower is applied; layout-selection passes apply the
same relocations to the layout without emitting instructions.

Routed circuits therefore mix SWAPs (tagged ``"routing"``) with teleport
hops (tagged ``"teleport"``), and remain fully executable by the engine:
measurement outcomes are sampled per shot from the seeded streams and the
frame corrections keep :meth:`RoutedCircuit.map_state` exact -- the routed
circuit reproduces the logical outcome for *every* outcome realisation,
which the routing-equivalence property harness pins down.

Determinism matches the base router: candidates are enumerated in sorted
order with strict first-minimum tie-breaking, so routed circuits -- and
seeded noisy trajectories through them -- are bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.feedforward import emit_hop
from repro.circuit.instruction import Instruction
from repro.hardware.lookahead import LookaheadSwapRouter
from repro.hardware.router import apply_swap, register_router


@dataclass
class TeleportSwapRouter(LookaheadSwapRouter):
    """Lookahead router that scores teleport relocations alongside SWAPs.

    Parameters (beyond :class:`LookaheadSwapRouter`)
    ------------------------------------------------
    hop_weight:
        Heuristic cost per teleport hop, in the same units as the
        MST-excess distance heuristic (one SWAP shortens a route by at most
        one edge, one hop by arbitrarily many).  Under the device noise
        model a hop CX and a native SWAP both cost two operand error sites,
        but a hop only consumes *free* ancillas while a SWAP drags a second
        logical qubit out of place -- the default ``0.75`` encodes that
        discount, so relocations fire on long free chains (where they
        genuinely shorten the route or spare the neighbourhood) and pure
        SWAP routing wins at the short distances that dominate small H-tree
        and IBM-backend workloads.
    max_hops:
        Longest free-vertex chain a single relocation may hop across (a
        cost guard for the BFS; relocations this long are rarely scored
        best anyway).
    """

    name: ClassVar[str] = "lookahead-teleport"

    hop_weight: float = 0.75
    max_hops: int = 16

    # ------------------------------------------------------------- candidates
    def _free_chain(
        self,
        source: int,
        targets: set[int],
        physical_to_logical: dict[int, int],
    ) -> list[int] | None:
        """Shortest hop chain ``source -> free ... free`` ending in ``targets``.

        Interior vertices and the landing vertex must all be free (host no
        logical qubit).  BFS over free vertices guarantees minimality;
        neighbour iteration is sorted for determinism.  Returns the chain
        *excluding* ``source``, or ``None``.
        """
        parents: dict[int, int] = {source: source}
        queue = deque([(source, 0)])
        while queue:
            vertex, hops = queue.popleft()
            if hops >= self.max_hops:
                continue
            for neighbour in sorted(self._adjacency[vertex]):
                if neighbour in parents or neighbour in physical_to_logical:
                    continue
                parents[neighbour] = vertex
                if neighbour in targets:
                    chain = [neighbour]
                    while parents[chain[-1]] != source:
                        chain.append(parents[chain[-1]])
                    return chain[::-1]
                queue.append((neighbour, hops + 1))
        return None

    def _teleport_candidates(
        self,
        front: list[int],
        instructions: list[Instruction],
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
    ) -> list[tuple[int, list[int]]]:
        """Relocations worth scoring: ``(logical qubit, hop chain)`` pairs.

        For every blocked front gate and every operand, try to land the
        operand on a free vertex adjacent to one of the gate's *other*
        operands.  Deduplicated by logical qubit (first -- i.e. shortest
        BFS -- chain wins; candidate enumeration order is deterministic).
        """
        candidates: list[tuple[int, list[int]]] = []
        seen: set[int] = set()
        for index in front:
            operands = instructions[index].qubits
            for operand in operands:
                if operand in seen:
                    continue
                source = logical_to_physical[operand]
                landing_zone = {
                    neighbour
                    for other in operands
                    if other != operand
                    for neighbour in self._adjacency[logical_to_physical[other]]
                    if neighbour not in physical_to_logical
                }
                landing_zone.discard(source)
                if not landing_zone:
                    continue
                chain = self._free_chain(source, landing_zone, physical_to_logical)
                if chain:
                    seen.add(operand)
                    candidates.append((operand, chain))
        return candidates

    # ------------------------------------------------------------------ moves
    def _relocation_score(
        self,
        logical: int,
        landing: int,
        hops: int,
        front: list[int],
        window: list[int],
        instructions: list[Instruction],
        logical_to_physical: dict[int, int],
        decay: np.ndarray,
    ) -> float:
        """Score a relocation under the SWAP heuristic plus the hop penalty."""
        source = logical_to_physical[logical]

        def moved(qubit: int) -> int:
            physical = logical_to_physical[qubit]
            return landing if qubit == logical else physical

        front_cost = sum(
            self._gate_cost([moved(q) for q in instructions[index].qubits])
            for index in front
        ) / len(front)
        window_cost = (
            sum(
                self._gate_cost([moved(q) for q in instructions[index].qubits])
                for index in window
            )
            / len(window)
            if window
            else 0.0
        )
        return max(decay[source], decay[landing]) * (
            front_cost
            + self.lookahead_weight * window_cost
            + self.hop_weight * hops
        )

    def _emit_hop(
        self, source: int, target: int, routed: QuantumCircuit | None
    ) -> None:
        """One one-bit teleportation hop ``source -> target`` (both physical).

        The gadget itself is shared with the H-tree link expansion
        (:func:`repro.circuit.feedforward.emit_hop`), so both link emitters
        stay convention-identical by construction.
        """
        if routed is None:
            return
        emit_hop(routed, source, target)

    def _apply_best_move(
        self,
        front: list[int],
        instructions: list[Instruction],
        done: list[bool],
        logical_to_physical: dict[int, int],
        physical_to_logical: dict[int, int],
        decay: np.ndarray,
        routed: QuantumCircuit | None,
    ) -> tuple[int, int]:
        """Score SWAPs and teleport relocations together; apply the winner."""
        (swap_a, swap_b), swap_score = self._best_swap(
            front, instructions, done, logical_to_physical, decay
        )
        window = self._extended_window(front, instructions, done)
        best_relocation: tuple[int, list[int]] | None = None
        best_score = swap_score
        for logical, chain in self._teleport_candidates(
            front, instructions, logical_to_physical, physical_to_logical
        ):
            score = self._relocation_score(
                logical,
                chain[-1],
                len(chain),
                front,
                window,
                instructions,
                logical_to_physical,
                decay,
            )
            if score < best_score - 1e-12:
                best_relocation = (logical, chain)
                best_score = score

        if best_relocation is None:
            apply_swap(
                swap_a, swap_b, logical_to_physical, physical_to_logical, routed
            )
            return (swap_a, swap_b)

        logical, chain = best_relocation
        source = logical_to_physical[logical]
        stops = [source, *chain]
        for a, b in zip(stops, stops[1:]):
            self._emit_hop(a, b, routed)
        del physical_to_logical[source]
        logical_to_physical[logical] = chain[-1]
        physical_to_logical[chain[-1]] = logical
        return (source, chain[-1])


register_router(TeleportSwapRouter)
