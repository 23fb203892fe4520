"""Query-fidelity metrics (Sec. 5 of the paper).

Two fidelities are used throughout the reproduction:

* the **full-state fidelity** ``F = |<psi_ideal | psi_noisy>|^2`` over every
  qubit in the circuit, and
* the **reduced fidelity** over the *kept* registers (address + bus), i.e.
  ``F = <phi | Tr_rest(rho_noisy) | phi>`` where ``phi`` is the ideal state of
  the kept registers.  This is the operationally meaningful figure of merit: a
  quantum algorithm only consumes the address and bus registers, and it is the
  quantity under which the bucket-brigade architecture exhibits its celebrated
  resilience to generic noise (the per-branch locality argument of Sec. 5.1).

Both metrics operate on path-sum representations, so they are exact for a
given Pauli error pattern; the Monte-Carlo average over patterns is taken by
:meth:`~repro.sim.engine.FeynmanPathSimulator.query_fidelities`, which
returns a :class:`QueryResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.paths import PackedBits, PathState, _pack_rows, _unpack_rows


def state_fidelity(ideal: PathState, noisy: PathState) -> float:
    """Full-state fidelity ``|<ideal|noisy>|^2`` between two pure path states."""
    return float(abs(ideal.overlap(noisy)) ** 2)


def _row_keys(bits: np.ndarray, columns: list[int]) -> list[bytes]:
    """Hashable key per row restricted to ``columns`` (empty list -> b'')."""
    if not columns:
        return [b""] * bits.shape[0]
    packed = np.packbits(bits[:, columns], axis=1)
    return [row.tobytes() for row in packed]


#: Weight of each bit within a key byte, most significant first.
_BIT_WEIGHTS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)


def _key_bytes(rows: list[int], width: int) -> np.ndarray:
    """Per-row key bytes of the qubit rows ``rows`` as a ``(width, n_bytes)`` matrix.

    Row ``j`` of the result is byte-for-byte the :func:`_row_keys` key of
    row ``j`` of the block ``rows`` spans, so lookups against dicts keyed by
    ``_row_keys`` agree.  The bytes are built along the qubit axis: the
    rows are unpacked qubit-major, zero-padded to a multiple of 8, and each
    group of 8 is weighted ``128 ... 1`` and OR-reduced into one byte per
    block row.
    """
    n_bytes = (len(rows) + 7) // 8
    padded = rows + [0] * (8 * n_bytes - len(rows))
    grouped = _unpack_rows(padded, width).view(np.uint8).reshape(n_bytes, 8, width)
    grouped *= _BIT_WEIGHTS[:, None]
    return np.bitwise_or.reduce(grouped, axis=1).T


def _key_words(packed: np.ndarray) -> np.ndarray:
    """A ``(rows, width)`` uint8 key matrix as ``(rows, ceil(width / 8))`` uint64.

    Each word reads 8 key bytes big-endian (the last word zero-padded), so
    comparing rows word by word orders them exactly like their key bytes.
    """
    rows, width = packed.shape
    words = np.zeros((rows, (width + 7) // 8), dtype=">u8")
    words.view(np.uint8)[:, :width] = packed
    return words.astype(np.uint64)


def _lexicographic_ids(words: np.ndarray) -> np.ndarray:
    """One integer per row of a word matrix, ordered like the rows' words.

    Equal rows get equal ids.  A single word is its own id; every further
    word refines the dense rank of the words before it (both dense ranks
    are below ``rows``, so ``high * rows + low`` fits an int64), and a
    zero-word matrix has one all-equal id.
    """
    if words.shape[1] == 0:
        return np.zeros(words.shape[0], dtype=np.uint64)
    ids = words[:, 0]
    for column in words.T[1:]:
        _, high = np.unique(ids, return_inverse=True)
        _, low = np.unique(column, return_inverse=True)
        ids = high * words.shape[0] + low
    return ids


def _rest_columns(num_qubits: int, keep_columns: list[int]) -> list[int]:
    """The qubits outside ``keep_columns``, in index order."""
    keep = set(keep_columns)
    return [q for q in range(num_qubits) if q not in keep]


def _ideal_keep_amplitudes(
    ideal: PathState, keep_columns: list[int]
) -> dict[bytes, complex]:
    """Amplitude of each kept-register basis state in the ideal output.

    The ideal output is required to be a *product* state across the
    (keep, rest) cut -- for QRAM queries the rest registers (routers, wires,
    data ancillae) must return to |0...0>, so this always holds for a correct
    builder.  A non-product ideal output indicates a builder bug and raises.
    """
    rest_columns = _rest_columns(ideal.num_qubits, keep_columns)
    rest_keys = _row_keys(ideal.bits, rest_columns)
    if len(set(rest_keys)) > 1:
        raise ValueError(
            "ideal output is entangled across the keep/rest cut; "
            "reduced fidelity is only defined for product ideal outputs"
        )
    keep_keys = _row_keys(ideal.bits, keep_columns)
    amplitudes: dict[bytes, complex] = {}
    for key, amp in zip(keep_keys, ideal.amplitudes):
        amplitudes[key] = amplitudes.get(key, 0.0 + 0.0j) + complex(amp)
    return amplitudes


@dataclass(frozen=True)
class _KeepTable:
    """:func:`_ideal_keep_amplitudes` of one ideal output, keyed by integers.

    ``words`` holds each kept-register basis state's :func:`_key_words`
    row, sorted lexicographically with no repeats; ``amplitudes`` holds its
    summed ideal amplitude, the dict's value bit for bit.  ``rest_columns``
    are the traced qubits.
    """

    words: np.ndarray
    amplitudes: np.ndarray
    rest_columns: list[int]


def _keep_table(ideal: PathState, keep_columns: list[int]) -> _KeepTable:
    """The :class:`_KeepTable` of ``ideal`` over ``keep_columns``, memoised.

    The table lives on ``ideal`` itself (one per keep set), so every shard
    of a sweep point reuses it and no other state can reach it.  It is
    rebuilt when the state's bits or amplitudes no longer hold what it was
    built from.  An entangled ideal output raises from
    :func:`_ideal_keep_amplitudes` and caches nothing.
    """
    snapshot = (ideal.bits.shape, ideal.bits.tobytes(), ideal.amplitudes.tobytes())
    key = tuple(keep_columns)
    entry = ideal._keep_tables.get(key)
    if entry is not None and entry[0] == snapshot:
        return entry[1]
    amplitudes = _ideal_keep_amplitudes(ideal, keep_columns)
    packed = np.frombuffer(b"".join(amplitudes), dtype=np.uint8)
    words = _key_words(packed.reshape(len(amplitudes), (len(keep_columns) + 7) // 8))
    order = np.argsort(_lexicographic_ids(words), kind="stable")
    table = _KeepTable(
        words=words[order],
        amplitudes=np.array(list(amplitudes.values()), dtype=complex)[order],
        rest_columns=_rest_columns(ideal.num_qubits, keep_columns),
    )
    ideal._keep_tables[key] = (snapshot, table)
    return table


def reduced_fidelity(
    ideal: PathState, noisy: PathState, keep_qubits: list[int]
) -> float:
    """Fidelity of the kept registers with the rest traced out.

    ``F = sum_g |<phi_keep | phi_g>|^2`` where ``phi_g`` collects the noisy
    amplitude on kept-register states for each basis state ``g`` of the traced
    registers.
    """
    keep_columns = list(keep_qubits)
    ideal_keep = _ideal_keep_amplitudes(ideal, keep_columns)
    rest_columns = _rest_columns(noisy.num_qubits, keep_columns)

    noisy_keep_keys = _row_keys(noisy.bits, keep_columns)
    noisy_rest_keys = _row_keys(noisy.bits, rest_columns)

    overlaps: dict[bytes, complex] = {}
    for keep_key, rest_key, amp in zip(noisy_keep_keys, noisy_rest_keys, noisy.amplitudes):
        ideal_amp = ideal_keep.get(keep_key)
        if ideal_amp is None:
            continue
        overlaps[rest_key] = overlaps.get(rest_key, 0.0 + 0.0j) + np.conj(ideal_amp) * amp
    return float(sum(abs(value) ** 2 for value in overlaps.values()))


def shot_fidelities(
    ideal: PathState,
    bits_block: PackedBits | np.ndarray,
    amps_block: np.ndarray,
    *,
    shots: int,
    n_paths: int,
    keep_qubits: list[int] | None = None,
    kept: np.ndarray | None = None,
) -> np.ndarray:
    """Per-shot fidelities for a vectorised Monte-Carlo block.

    ``bits_block``/``amps_block`` are the outputs of
    :meth:`~repro.sim.engine.FeynmanPathSimulator.run_noisy_shots_recorded`:
    ``shots`` stacked copies of the path set, each evolved under an
    independently sampled error pattern.  ``bits_block`` is the executor's
    :class:`~repro.sim.paths.PackedBits`, read as it is; a bool block of
    shape ``(shots * n_paths, n_qubits)`` (any memory layout) is packed
    into one first, so both give the same bits.  Only the kept qubits and
    the traced qubits that vary across the block are unpacked: a traced
    qubit that is ``0`` or ``1`` in every row cannot split a
    ``(shot, rest-state)`` bucket.

    When ``keep_qubits`` is ``None`` the full-state fidelity is computed;
    otherwise the reduced fidelity over ``keep_qubits``.

    ``kept`` partitions the shots by their recorded check outcomes
    (postselection): a boolean mask of shape ``(shots,)`` whose rejected
    entries come back as ``NaN`` in the result -- the sentinel every
    aggregation step (:class:`QueryResult`, sweep-shard
    concatenation) understands, so the rejected shots stay countable instead
    of silently vanishing.  ``None`` keeps every shot (no postselection).

    Kept-register keys are integers: each row's key bytes read as one
    big-endian ``uint64`` word per 64 kept qubits (wider keys, e.g. the
    full state of a >64-qubit circuit, refine word by word through
    :func:`_lexicographic_ids`).  They are looked up by binary search in
    the ideal's per-point :class:`_KeepTable`, built once from
    :func:`_ideal_keep_amplitudes` and memoised on ``ideal``, so the shards
    of a sweep point share one table instead of rebuilding it.  Traced
    registers bucket by integer ids too: the dense rank of the varying
    rest qubits' word combined with the shot index, or
    :func:`_lexicographic_ids` over ``[shot, words...]`` past 64 of them.

    The reduction is fully vectorised but reproduces the historical per-shot
    dict loop **bit for bit**: overlap terms accumulate in row order within
    each ``(shot, rest-state)`` bucket (``np.bincount`` adds sequentially in
    input order), the squared magnitude uses the same ``hypot`` that
    ``abs(complex)`` uses, and per-shot bucket contributions sum in
    first-appearance order -- exactly the old dict's insertion order.  The
    one exception is a complex ideal amplitude: NumPy's vectorised complex
    multiply may round ``conj(ideal) * amp`` differently from the loop's
    scalar one (QRAM ideal outputs are real, so their bits are unaffected).
    """
    if keep_qubits is None:
        keep_columns = list(range(ideal.num_qubits))
    else:
        keep_columns = list(keep_qubits)
    if not isinstance(bits_block, PackedBits):
        block = np.asarray(bits_block, dtype=bool)
        bits_block = PackedBits(_pack_rows(block.T), block.shape[0])
    rows, width = bits_block.rows, bits_block.width

    # Resolve each row's kept-register key against the ideal table: rows
    # and table entries are ranked together (one integer id per key, however
    # many words it spans), and each row's id is binary-searched among the
    # table's sorted ids.
    table = _keep_table(ideal, keep_columns)
    n_entries = table.words.shape[0]
    row_words = _key_words(_key_bytes([rows[q] for q in keep_columns], width))
    ids = _lexicographic_ids(np.concatenate([table.words, row_words]))
    table_ids = ids[:n_entries]
    row_ids = ids[n_entries:]
    slot = np.minimum(np.searchsorted(table_ids, row_ids), n_entries - 1)
    matched = np.flatnonzero(table_ids[slot] == row_ids)

    weights = np.conj(table.amplitudes[slot[matched]]) * amps_block[matched]
    shot_of_match = matched // n_paths

    full = (1 << width) - 1
    varying = [rows[q] for q in table.rest_columns if rows[q] and rows[q] != full]
    if not varying:
        # One overlap bucket per shot: no traced qubit tells rows apart.
        real = np.bincount(shot_of_match, weights=weights.real, minlength=shots)
        imag = np.bincount(shot_of_match, weights=weights.imag, minlength=shots)
        return _mask_rejected(np.hypot(real, imag) ** 2, kept)

    # Bucket matched rows by (shot, rest-state) integer ids.
    rest_words = _key_words(_key_bytes(varying, width)[matched])
    if rest_words.shape[1] == 1:
        values, rank = np.unique(rest_words[:, 0], return_inverse=True)
        bucket_ids = shot_of_match * len(values) + rank
    else:
        shot_column = shot_of_match.astype(np.uint64)[:, None]
        bucket_ids = _lexicographic_ids(np.hstack([shot_column, rest_words]))
    _, first_position, bucket_of_match = np.unique(
        bucket_ids, return_index=True, return_inverse=True
    )
    real = np.bincount(bucket_of_match, weights=weights.real)
    imag = np.bincount(bucket_of_match, weights=weights.imag)
    squared = np.hypot(real, imag) ** 2
    # Buckets contribute to their shot in first-appearance order.
    appearance = np.argsort(first_position, kind="stable")
    bucket_shot = shot_of_match[first_position[appearance]]
    summed = np.bincount(bucket_shot, weights=squared[appearance], minlength=shots)
    # bincount ignores the weights dtype when the input is empty (returning
    # int64 zeros); coerce so the NaN postselection sentinel always fits.
    return _mask_rejected(summed.astype(np.float64, copy=False), kept)


def _mask_rejected(fidelities: np.ndarray, kept: np.ndarray | None) -> np.ndarray:
    """NaN out the shots a postselection mask rejects (``None`` keeps all)."""
    if kept is None:
        return fidelities
    fidelities[~np.asarray(kept, dtype=bool)] = np.nan
    return fidelities


@dataclass
class QueryResult:
    """Outcome of a Monte-Carlo noisy query simulation.

    Postselected runs mark rejected shots with ``NaN`` in ``fidelities``
    (see :func:`shot_fidelities`); every aggregate below
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
