"""Common interface shared by every query architecture in the reproduction.

All architectures (SQC/QROM, Fanout, Bucket-Brigade, Select-Swap, and the
paper's virtual QRAM) answer the same question: given a classical memory of
``N = 2**n`` cells and an input superposition over addresses, produce the
entangled state of Eq. (2),

    sum_i alpha_i |i>_A |0>_B   ->   sum_i alpha_i |i>_A |x_i>_B.

Each concrete architecture builds a :class:`~repro.circuit.circuit.QuantumCircuit`
with (at least) the registers ``"sqc_address"`` (the ``k`` most-significant
address bits handled gate-sequentially), ``"qram_address"`` (the ``m``
least-significant bits handled by the router tree) and ``"bus"``.  The base
class supplies everything that only depends on that contract: input-state
construction, the analytically known ideal output, noisy query simulation and
resource reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.decompose import CliffordTCost, circuit_cost
from repro.circuit.ir import GateTape, compile_circuit
from repro.qram.memory import ClassicalMemory
from repro.sim.engine import get_engine
from repro.sim.fidelity import QueryResult
from repro.sim.noise import NoiseModel, NoiselessModel
from repro.sim.paths import PathState
from repro.sim.seeding import ShotSeeds


@dataclass(frozen=True)
class ResourceReport:
    """Measured resource usage of a built query circuit (drives Tables 1-2)."""

    qubits: int
    gate_count: int
    circuit_depth: int
    circuit_depth_pipelined: int
    classical_controlled_gates: int
    clifford_t: CliffordTCost

    def as_dict(self) -> dict:
        """Plain-dict form of the resource report."""
        return {
            "qubits": self.qubits,
            "gate_count": self.gate_count,
            "circuit_depth": self.circuit_depth,
            "circuit_depth_pipelined": self.circuit_depth_pipelined,
            "classical_controlled_gates": self.classical_controlled_gates,
            "t_count": self.clifford_t.t_count,
            "t_depth": self.clifford_t.t_depth,
            "clifford_depth": self.clifford_t.clifford_depth,
        }


@dataclass(frozen=True)
class CompiledQuery:
    """Everything a noisy-query sweep reuses across points, built once.

    Holding the built circuit, its compiled gate tape, the uniform input
    superposition, the analytically known ideal output and the kept-qubit
    list means a parameter sweep (Figures 9-12 style) pays the construction
    cost once per architecture instance instead of once per sweep point.
    """

    circuit: QuantumCircuit
    tape: GateTape
    input_state: PathState
    ideal_output: PathState
    kept_qubits: tuple[int, ...]


@dataclass
class QRAMArchitecture:
    """Base class for query architectures.

    Parameters
    ----------
    memory:
        The classical dataset to query.
    qram_width:
        ``m``, the number of least-significant address bits served by the
        physical QRAM (router tree / swap network).  The remaining
        ``k = n - m`` bits are handled sequentially (SQC paging).  Subclasses
        that do not page (e.g. the plain SQC) fix this themselves.
    bit_plane:
        Which bit of multi-bit memory cells to query (0 = most significant).
        Multi-bit queries are performed one plane at a time, as discussed in
        Sec. 8 of the paper.
    """

    memory: ClassicalMemory
    qram_width: int
    bit_plane: int = 0
    name: str = field(default="abstract", init=False)
    _circuit: QuantumCircuit | None = field(default=None, init=False, repr=False)
    _compiled: CompiledQuery | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.qram_width <= self.memory.address_width:
            raise ValueError(
                f"qram_width must be in [0, {self.memory.address_width}], "
                f"got {self.qram_width}"
            )
        if not 0 <= self.bit_plane < self.memory.data_width:
            raise ValueError(
                f"bit_plane {self.bit_plane} outside data width "
                f"{self.memory.data_width}"
            )

    # ------------------------------------------------------------- parameters
    @property
    def m(self) -> int:
        """QRAM address width (number of router-tree levels)."""
        return self.qram_width

    @property
    def k(self) -> int:
        """SQC address width (number of paging bits)."""
        return self.memory.address_width - self.qram_width

    @property
    def n(self) -> int:
        """Total address width."""
        return self.memory.address_width

    @property
    def num_pages(self) -> int:
        """Number of memory pages ``K = 2**k`` iterated by the query."""
        return 1 << self.k

    @property
    def capacity(self) -> int:
        """Physical QRAM capacity ``M = 2**m``."""
        return 1 << self.m

    # ------------------------------------------------------------ construction
    def _build(self) -> QuantumCircuit:  # pragma: no cover - abstract
        raise NotImplementedError

    def build_circuit(self) -> QuantumCircuit:
        """Build (and cache) the query circuit."""
        if self._circuit is None:
            circuit = self._build()
            circuit.metadata.setdefault("architecture", self.name)
            circuit.metadata.setdefault("m", self.m)
            circuit.metadata.setdefault("k", self.k)
            self._circuit = circuit
        return self._circuit

    def compiled_query(self) -> CompiledQuery:
        """Memoized bundle of circuit, gate tape, input and ideal output.

        Noise-parameter sweeps call :meth:`run_query` many times on the same
        instance; everything that does not depend on the noise model lives
        here so it is built exactly once.
        """
        if self._compiled is None:
            circuit = self.build_circuit()
            input_state = self.input_state()
            self._compiled = CompiledQuery(
                circuit=circuit,
                tape=compile_circuit(circuit),
                input_state=input_state,
                ideal_output=self.ideal_output(input_state),
                kept_qubits=tuple(self.kept_qubits()),
            )
        return self._compiled

    # ---------------------------------------------------------------- registers
    def address_qubits(self) -> list[int]:
        """Address register, most significant bit first (SQC bits then QRAM bits)."""
        circuit = self.build_circuit()
        sqc = list(circuit.registers["sqc_address"]) if "sqc_address" in circuit.registers else []
        qram = list(circuit.registers["qram_address"]) if "qram_address" in circuit.registers else []
        return sqc + qram

    def bus_qubit(self) -> int:
        """Index of the single bus qubit."""
        return self.build_circuit().registers["bus"][0]

    def kept_qubits(self) -> list[int]:
        """Qubits whose state the algorithm consumes (address + bus)."""
        return self.address_qubits() + [self.bus_qubit()]

    # -------------------------------------------------------------- I/O states
    def input_state(
        self, amplitudes: Mapping[int, complex] | None = None
    ) -> PathState:
        """Input superposition over the address register (uniform by default)."""
        circuit = self.build_circuit()
        return PathState.register_superposition(
            circuit.num_qubits, self.address_qubits(), amplitudes
        )

    def ideal_output(self, input_state: PathState | None = None) -> PathState:
        """The analytically known correct output for ``input_state``.

        Every path keeps its address, the bus is XORed with the addressed
        memory bit, and all ancillary registers return to their input values.
        """
        state = self.input_state() if input_state is None else input_state
        bits = state.bits.copy()
        addresses = state.register_values(self.address_qubits())
        bus = self.bus_qubit()
        data_bits = np.array(
            [self.memory.bit(int(address), self.bit_plane) for address in addresses],
            dtype=bool,
        )
        bits[:, bus] ^= data_bits
        return PathState(bits=bits, amplitudes=state.amplitudes.copy())

    # -------------------------------------------------------------- simulation
    def simulate(self, input_state: PathState | None = None) -> PathState:
        """Noiseless simulation of the query circuit on the tape engine."""
        if input_state is None:
            compiled = self.compiled_query()
            circuit, state = compiled.circuit, compiled.input_state
        else:
            # Explicit inputs skip the compiled bundle: building the uniform
            # superposition and ideal output it carries would be wasted work
            # (e.g. MultiBitQuery readouts run many single-path inputs).
            circuit, state = self.build_circuit(), input_state
        return get_engine().run(circuit, state)

    def verify(self, input_state: PathState | None = None) -> bool:
        """True when the noiseless simulation matches the ideal output exactly."""
        state = self.input_state() if input_state is None else input_state
        produced = self.simulate(state).as_dict()
        expected = self.ideal_output(state).as_dict()
        if set(produced) != set(expected):
            return False
        return all(abs(produced[key] - expected[key]) < 1e-9 for key in expected)

    def run_query(
        self,
        noise: NoiseModel | None = None,
        shots: int = 128,
        *,
        reduced: bool = True,
        rng: np.random.Generator | ShotSeeds | int | None = None,
    ) -> QueryResult:
        """Monte-Carlo noisy query over the uniform address superposition.

        Reuses the memoized :meth:`compiled_query` bundle, so repeated
        sweep points skip circuit construction.

        Parameters
        ----------
        noise:
            Noise model (``None`` for a noiseless check run).
        shots:
            Number of Monte-Carlo samples.
        reduced:
            Compute the reduced fidelity over address + bus (True, the
            operational figure of merit) or the full-state overlap (False).
        rng:
            A :class:`~repro.sim.seeding.ShotSeeds` window or an integer seed
            of one (``rng=7`` runs exactly like ``rng=ShotSeeds(7)``); a
            ``Generator`` seeds a window and ``None`` uses fresh entropy.
        """
        compiled = self.compiled_query()
        return get_engine().query_fidelities(
            compiled.circuit,
            compiled.input_state,
            NoiselessModel() if noise is None else noise,
            shots,
            keep_qubits=list(compiled.kept_qubits) if reduced else None,
            ideal_output=compiled.ideal_output,
            rng=rng,
        )

    # --------------------------------------------------------------- resources
    def resource_report(self) -> ResourceReport:
        """Measured resource usage of the built circuit."""
        circuit = self.build_circuit()
        return ResourceReport(
            qubits=circuit.num_qubits,
            gate_count=circuit.num_gates,
            circuit_depth=circuit.depth(respect_barriers=True),
            circuit_depth_pipelined=circuit.depth(respect_barriers=False),
            classical_controlled_gates=circuit.count_tagged("classical"),
            clifford_t=circuit_cost(circuit),
        )
