"""Path-sum representation of quantum states restricted to basis-permutation circuits.

A :class:`PathState` stores a superposition ``sum_i alpha_i |b_i>`` as

* ``bits``: a boolean matrix of shape ``(n_paths, n_qubits)``; row ``i`` is the
  computational basis state of path ``i`` (``bits[i, q]`` is the value of qubit
  ``q``), and
* ``amplitudes``: a complex vector of length ``n_paths``.

Because QRAM circuits never branch a basis state into a superposition
(Sec. 6.2 of the paper), the number of paths is fixed by the *input* state and
never grows, which is exactly why the Feynman-path simulator scales to QRAM
sizes that are far out of reach for dense statevector simulation.

The bit-ordering convention throughout the library is *little-endian in the
qubit index*: when a group of qubits ``(q_0, q_1, ..., q_{w-1})`` encodes an
integer, ``q_0`` holds the most significant bit (this matches how the QRAM
builders lay out address registers).  Helpers on this class perform the
conversions so callers never manipulate raw bit positions.

:class:`PackedBits` is the same ``(n_paths, n_qubits)`` bool block stored
bit-sliced, one Python ``int`` per qubit: the form the stacked shot executor
of :mod:`repro.sim.engine` evolves and the per-shot fidelity reduction of
:mod:`repro.sim.fidelity` reads without unpacking every qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """Big-endian bit tuple of ``value`` over ``width`` bits.

    >>> int_to_bits(5, 4)
    (0, 1, 0, 1)
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0 or (width < value.bit_length()):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(bits: Sequence[int]) -> int:
    """Inverse of :func:`int_to_bits` (first element is the most significant bit)."""
    value = 0
    for bit in bits:
        value = (value << 1) | (1 if bit else 0)
    return value


def _pack_row(column: np.ndarray) -> int:
    """Pack a 1-D bool array into one Python ``int``: bit ``j`` is ``column[j]``."""
    return int.from_bytes(np.packbits(column, bitorder="little").tobytes(), "little")


def _unpack_row(row: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_row`: a fresh writable bool array of ``width``."""
    raw = np.frombuffer(row.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little").view(bool)


def _pack_rows(block: np.ndarray) -> list[int]:
    """:func:`_pack_row` over every row of a ``(n_rows, width)`` bool block."""
    packed = np.packbits(block, axis=1, bitorder="little")
    n_bytes = packed.shape[1]
    raw = packed.tobytes()
    return [
        int.from_bytes(raw[row * n_bytes : (row + 1) * n_bytes], "little")
        for row in range(block.shape[0])
    ]


def _unpack_rows(rows: list[int], width: int) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: a fresh writable ``(len(rows), width)`` bool block."""
    n_bytes = (width + 7) // 8
    raw = b"".join(row.to_bytes(n_bytes, "little") for row in rows)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), n_bytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


@dataclass(frozen=True, eq=False)
class PackedBits:
    """A ``(width, len(rows))`` bool block held as one Python ``int`` per qubit.

    Bit ``j`` of ``rows[q]`` is qubit ``q`` of block row ``j`` (for a shot
    block, path ``p`` of shot ``s`` at ``j = s * n_paths + p``).  ``shape``
    is the bool block's, and ``np.asarray`` unpacks it: the ``.T`` view of
    the qubit-major ``(len(rows), width)`` block, so whole qubit rows stay
    contiguous.  Readers that need only some qubits unpack just their rows.
    """

    rows: list[int]
    width: int

    @property
    def shape(self) -> tuple[int, int]:
        """``(width, n_qubits)``: the shape of the unpacked bool block."""
        return (self.width, len(self.rows))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        block = _unpack_rows(self.rows, self.width).T
        return block if dtype is None else block.astype(dtype, copy=False)


@dataclass
class PathState:
    """Superposition over computational basis states, one row per path."""

    bits: np.ndarray
    amplitudes: np.ndarray
    #: Ideal-amplitude tables :func:`~repro.sim.fidelity.shot_fidelities`
    #: derived from this state, keyed by keep set; excluded from equality.
    _keep_tables: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=bool)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.bits.ndim != 2:
            raise ValueError("bits must be a 2-D (n_paths, n_qubits) array")
        if self.amplitudes.shape != (self.bits.shape[0],):
            raise ValueError("amplitudes must have one entry per path")

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_basis_assignments(
        cls,
        assignments: Iterable[tuple[Mapping[int, int], complex]],
        num_qubits: int,
    ) -> "PathState":
        """Build a state from ``(qubit -> bit, amplitude)`` pairs.

        Qubits absent from an assignment default to 0.
        """
        rows = []
        amps = []
        for mapping, amp in assignments:
            row = np.zeros(num_qubits, dtype=bool)
            for qubit, bit in mapping.items():
                if qubit < 0 or qubit >= num_qubits:
                    raise ValueError(f"qubit {qubit} out of range")
                row[qubit] = bool(bit)
            rows.append(row)
            amps.append(amp)
        if not rows:
            raise ValueError("at least one basis assignment is required")
        return cls(bits=np.array(rows, dtype=bool), amplitudes=np.array(amps))

    @classmethod
    def register_superposition(
        cls,
        num_qubits: int,
        register: Sequence[int],
        amplitudes: Mapping[int, complex] | None = None,
    ) -> "PathState":
        """State with a superposition of integer values on ``register``.

        Parameters
        ----------
        num_qubits:
            Total qubit count of the circuit; all qubits outside ``register``
            start in |0>.
        register:
            Qubit indices encoding the integer, most significant bit first.
        amplitudes:
            Mapping from integer value to amplitude.  ``None`` means the
            uniform superposition over all ``2**len(register)`` values, which
            is the input state used throughout the paper's evaluation.
        """
        width = len(register)
        if amplitudes is None:
            norm = 1.0 / np.sqrt(2**width) if width else 1.0
            amplitudes = {value: norm for value in range(2**width)}
        assignments = []
        for value, amp in sorted(amplitudes.items()):
            mapping = {register[i]: bit for i, bit in enumerate(int_to_bits(value, width))}
            assignments.append((mapping, amp))
        return cls.from_basis_assignments(assignments, num_qubits)

    # ------------------------------------------------------------- inspection
    @property
    def num_paths(self) -> int:
        """Number of paths (rows) in the superposition."""
        return self.bits.shape[0]

    @property
    def num_qubits(self) -> int:
        """Number of qubits (columns)."""
        return self.bits.shape[1]

    def norm(self) -> float:
        """2-norm of the amplitude vector (1.0 for normalised inputs)."""
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def copy(self) -> "PathState":
        """Deep copy of bits and amplitudes."""
        return PathState(bits=self.bits.copy(), amplitudes=self.amplitudes.copy())

    def register_values(self, register: Sequence[int]) -> np.ndarray:
        """Integer value encoded on ``register`` for every path (MSB first)."""
        values = np.zeros(self.num_paths, dtype=np.int64)
        for qubit in register:
            values = (values << 1) | self.bits[:, qubit].astype(np.int64)
        return values

    def as_dict(self) -> dict[tuple[int, ...], complex]:
        """Collapse to a mapping ``basis bit-tuple -> total amplitude``.

        Paths landing on the same basis state are summed; zero-amplitude
        entries are dropped.  This is the canonical form used for equality
        checks and overlap computations.
        """
        out: dict[tuple[int, ...], complex] = {}
        for row, amp in zip(self.bits, self.amplitudes):
            key = tuple(int(b) for b in row)
            out[key] = out.get(key, 0.0 + 0.0j) + complex(amp)
        return {key: amp for key, amp in out.items() if abs(amp) > 1e-12}

    def to_statevector(self) -> np.ndarray:
        """Dense statevector (little-endian in qubit index).

        Only sensible for small ``num_qubits``; used by the test suite to
        compare against :class:`~repro.sim.statevector.StatevectorSimulator`.
        """
        if self.num_qubits > 24:
            raise ValueError("refusing to build a dense vector for > 24 qubits")
        vec = np.zeros(2**self.num_qubits, dtype=complex)
        weights = (1 << np.arange(self.num_qubits, dtype=np.int64))
        indices = (self.bits.astype(np.int64) * weights).sum(axis=1)
        np.add.at(vec, indices, self.amplitudes)
        return vec

    def overlap(self, other: "PathState") -> complex:
        """Inner product ``<self|other>``."""
        mine = self.as_dict()
        total = 0.0 + 0.0j
        for key, amp in other.as_dict().items():
            total += np.conj(mine.get(key, 0.0)) * amp
        return complex(total)
