"""Unit tests for the fidelity metrics (full-state and reduced)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.experiments.common import random_memory
from repro.qram import VirtualQRAM, make_architecture
from repro.sim import (
    GateNoiseModel,
    PathState,
    PauliChannel,
    ShotSeeds,
    get_engine,
    reduced_fidelity,
    state_fidelity,
)
from repro.sim import fidelity
from repro.sim.fidelity import (
    _ideal_keep_amplitudes,
    _keep_table,
    _key_bytes,
    _key_words,
    _lexicographic_ids,
    _row_keys,
    shot_fidelities,
)
from repro.sim.paths import PackedBits, _pack_rows


def _state(assignments, num_qubits):
    return PathState.from_basis_assignments(assignments, num_qubits)


class TestStateFidelity:
    def test_identical_states(self):
        state = PathState.register_superposition(3, register=[0, 1])
        assert state_fidelity(state, state) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        a = _state([({0: 0}, 1.0)], 2)
        b = _state([({0: 1}, 1.0)], 2)
        assert state_fidelity(a, b) == pytest.approx(0.0)

    def test_global_phase_is_irrelevant(self):
        a = PathState.register_superposition(2, register=[0, 1])
        b = PathState(bits=a.bits.copy(), amplitudes=-a.amplitudes.copy())
        assert state_fidelity(a, b) == pytest.approx(1.0)

    def test_partial_overlap(self):
        a = PathState.register_superposition(1, register=[0])
        b = _state([({0: 0}, 1.0)], 1)
        assert state_fidelity(a, b) == pytest.approx(0.5)


class TestReducedFidelity:
    def test_error_confined_to_traced_register_is_harmless(self):
        """A leftover flip on an ancilla does not hurt the kept registers."""
        ideal = _state([({0: 0}, 1.0)], 2)
        noisy = _state([({0: 0, 1: 1}, 1.0)], 2)
        assert state_fidelity(ideal, noisy) == pytest.approx(0.0)
        assert reduced_fidelity(ideal, noisy, keep_qubits=[0]) == pytest.approx(1.0)

    def test_branch_dependent_junk_causes_decoherence(self):
        """If the ancilla ends in different states per branch, coherence is lost."""
        amp = 1 / np.sqrt(2)
        ideal = _state([({0: 0}, amp), ({0: 1}, amp)], 2)
        noisy = _state([({0: 0, 1: 0}, amp), ({0: 1, 1: 1}, amp)], 2)
        assert reduced_fidelity(ideal, noisy, keep_qubits=[0]) == pytest.approx(0.5)

    def test_phase_error_on_one_branch(self):
        amp = 1 / np.sqrt(2)
        ideal = _state([({0: 0}, amp), ({0: 1}, amp)], 1)
        noisy = _state([({0: 0}, amp), ({0: 1}, -amp)], 1)
        assert reduced_fidelity(ideal, noisy, keep_qubits=[0]) == pytest.approx(0.0)

    def test_entangled_ideal_output_rejected(self):
        amp = 1 / np.sqrt(2)
        entangled = _state([({0: 0, 1: 0}, amp), ({0: 1, 1: 1}, amp)], 2)
        noisy = _state([({0: 0}, 1.0)], 2)
        with pytest.raises(ValueError):
            reduced_fidelity(entangled, noisy, keep_qubits=[0])

    def test_keeping_everything_matches_full_fidelity(self):
        ideal = PathState.register_superposition(2, register=[0, 1])
        noisy = _state([({0: 0, 1: 0}, 1.0)], 2)
        reduced = reduced_fidelity(ideal, noisy, keep_qubits=[0, 1])
        assert reduced == pytest.approx(state_fidelity(ideal, noisy))


class TestShotFidelities:
    def test_block_of_identical_shots(self):
        ideal = PathState.register_superposition(2, register=[0])
        bits = np.tile(ideal.bits, (3, 1))
        amps = np.tile(ideal.amplitudes, 3)
        values = shot_fidelities(
            ideal, bits, amps, shots=3, n_paths=ideal.num_paths, keep_qubits=None
        )
        assert np.allclose(values, 1.0)

    def test_mixed_block(self):
        ideal = _state([({0: 0}, 1.0)], 1)
        good = ideal.bits
        bad = ~ideal.bits
        bits = np.vstack([good, bad])
        amps = np.array([1.0, 1.0], dtype=complex)
        values = shot_fidelities(ideal, bits, amps, shots=2, n_paths=1)
        assert values.tolist() == [1.0, 0.0]


def _reference_shot_fidelities(
    ideal, bits_block, amps_block, *, shots, n_paths, keep_qubits=None
):
    """The historical per-shot dict loop that ``shot_fidelities`` vectorised."""
    bits_block = np.asarray(bits_block)
    num_qubits = ideal.num_qubits
    if keep_qubits is None:
        keep_columns = list(range(num_qubits))
        rest_columns = []
    else:
        keep_columns = list(keep_qubits)
        rest_columns = [
            q for q in range(num_qubits) if q not in set(keep_columns)
        ]
    ideal_keep = _ideal_keep_amplitudes(ideal, keep_columns)
    fidelities = np.zeros(shots)
    for index in range(shots):
        rows = slice(index * n_paths, (index + 1) * n_paths)
        keep_keys = _row_keys(bits_block[rows], keep_columns)
        rest_keys = _row_keys(bits_block[rows], rest_columns)
        overlaps: dict[bytes, complex] = {}
        for keep_key, rest_key, amp in zip(
            keep_keys, rest_keys, amps_block[rows]
        ):
            ideal_amp = ideal_keep.get(keep_key)
            if ideal_amp is None:
                continue
            overlaps[rest_key] = (
                overlaps.get(rest_key, 0.0 + 0.0j) + np.conj(ideal_amp) * amp
            )
        fidelities[index] = sum(abs(value) ** 2 for value in overlaps.values())
    return fidelities


class TestVectorisedFidelity:
    @pytest.mark.parametrize("name", ["virtual", "bb", "ss", "fanout", "sqc"])
    @pytest.mark.parametrize("reduced", [False, True])
    def test_matches_reference_loop_bit_for_bit(self, reduced, name):
        """Every builder's ideal output is real, so the bits are the loop's."""
        architecture = make_architecture(name, random_memory(2, 7), qram_width=2)
        compiled = architecture.compiled_query()
        assert not compiled.ideal_output.amplitudes.imag.any()
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        shots = 24
        packed, amps, _ = get_engine("feynman-tape").run_noisy_shots_recorded(
            compiled.circuit,
            compiled.input_state,
            noise,
            shots,
            rng=ShotSeeds(seed=13),
        )
        keep = list(compiled.kept_qubits) if reduced else None
        n_paths = compiled.input_state.num_paths
        vectorised = shot_fidelities(
            compiled.ideal_output,
            packed,
            amps,
            shots=shots,
            n_paths=n_paths,
            keep_qubits=keep,
        )
        reference = _reference_shot_fidelities(
            compiled.ideal_output,
            packed,
            amps,
            shots=shots,
            n_paths=n_paths,
            keep_qubits=keep,
        )
        assert vectorised.tobytes() == reference.tobytes()


def _qubit_major_view(bits):
    """The ``.T`` view of the qubit-major copy of a row-major bits block."""
    view = np.ascontiguousarray(bits.T).T
    assert view.flags.f_contiguous and not view.flags.c_contiguous
    return view


def _packed(bits):
    """The :class:`PackedBits` of a bool block, as ``shot_fidelities`` packs it."""
    return PackedBits(_pack_rows(bits.T), bits.shape[0])


def _query_block(shots):
    """A noisy virtual-QRAM shard as the executor returns it (packed)."""
    architecture = VirtualQRAM(memory=random_memory(2, 7), qram_width=2)
    compiled = architecture.compiled_query()
    packed, amps, _ = get_engine("feynman-tape").run_noisy_shots_recorded(
        compiled.circuit,
        compiled.input_state,
        GateNoiseModel(PauliChannel.depolarizing(0.05)),
        shots,
        rng=ShotSeeds(seed=13),
    )
    return compiled.ideal_output, packed, amps, list(compiled.kept_qubits)


def _branching_block(shots):
    """A noisy ``H`` + ``CX`` circuit: two output paths per input path."""
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    # Noise on the traced qubit 2 splits a shot's rest-state buckets.
    circuit.x(2)
    circuit.x(2)
    state = PathState.from_basis_assignments([({}, 1.0)], 3)
    engine = get_engine("feynman-tape")
    packed, amps, _ = engine.run_noisy_shots_recorded(
        circuit,
        state,
        GateNoiseModel(PauliChannel.depolarizing(0.2)),
        shots,
        rng=ShotSeeds(seed=5),
    )
    assert packed.shape[0] == 2 * shots
    return engine.run(circuit, state), packed, amps, [0, 1]


class TestQubitMajorLayout:
    @pytest.mark.parametrize(
        "case", ["full", "reduced", "postselected", "branching-full", "branching"]
    )
    def test_row_major_and_qubit_major_blocks_agree_bit_for_bit(self, case):
        shots = 24
        if case.startswith("branching"):
            ideal, packed, amps, keep = _branching_block(shots)
        else:
            ideal, packed, amps, keep = _query_block(shots)
        if case.endswith("full"):
            keep = None
        kept = None
        if case == "postselected":
            kept = np.random.default_rng(3).random(shots) < 0.6
        n_paths = packed.shape[0] // shots
        row_major = np.ascontiguousarray(packed)
        results = [
            shot_fidelities(
                ideal,
                block,
                amps,
                shots=shots,
                n_paths=n_paths,
                keep_qubits=keep,
                kept=kept,
            )
            for block in (packed, row_major, _qubit_major_view(row_major))
        ]
        expected = _reference_shot_fidelities(
            ideal, row_major, amps, shots=shots, n_paths=n_paths, keep_qubits=keep
        )
        if kept is not None:
            expected[~kept] = np.nan
            assert np.isnan(results[0]).sum() == (~kept).sum()
        for result in results:
            assert result.tobytes() == expected.tobytes()

    def test_stacked_executor_returns_the_qubit_major_view(self):
        """The recorded run hands back packed rows; ``np.asarray`` is the view."""
        _, packed, _, _ = _query_block(4)
        assert isinstance(packed, PackedBits)
        assert packed.shape == (packed.width, len(packed.rows))
        bits = np.asarray(packed)
        assert bits.dtype == bool and bits.shape == packed.shape
        assert bits.flags.f_contiguous and not bits.flags.c_contiguous
        assert _pack_rows(bits.T) == packed.rows
        architecture = VirtualQRAM(memory=random_memory(2, 7), qram_width=2)
        compiled = architecture.compiled_query()
        rerun, _, _ = get_engine("feynman-tape").run_noisy_shots_recorded(
            compiled.circuit,
            compiled.input_state,
            GateNoiseModel(PauliChannel.depolarizing(0.05)),
            4,
            rng=ShotSeeds(seed=13),
        )
        unpacked = np.asarray(rerun)
        assert np.array_equal(unpacked, bits)
        assert unpacked.flags.f_contiguous

    @pytest.mark.parametrize("layout", ["row-major", "qubit-major"])
    @pytest.mark.parametrize(
        "columns",
        [[], [5, 1, 4], [0, 2, 3, 7, 8, 11, 12, 13, 16, 19, 23], list(range(24))],
        ids=["empty", "below-8", "not-multiple-of-8", "full"],
    )
    def test_key_bytes_match_packbits(self, columns, layout):
        bits = np.random.default_rng(11).random((37, 24)) < 0.5
        if layout == "qubit-major":
            bits = _qubit_major_view(bits)
        expected = np.packbits(bits[:, columns], axis=1)
        rows = _packed(bits).rows
        packed = _key_bytes([rows[q] for q in columns], bits.shape[0])
        assert packed.dtype == np.uint8
        assert packed.shape == expected.shape
        assert np.array_equal(packed, expected)


#: Kept-register widths on both sides of the 8-bit byte and 64-bit word
#: boundaries of the integer keys.
KEEP_WIDTHS = (0, 1, 8, 9, 64, 65)


def _absent_key(present, width, rng):
    """A ``width``-bit key row not in ``present``, or ``None`` if none found."""
    taken = {row.tobytes() for row in present}
    for _ in range(64):
        candidate = rng.random(width) < 0.5
        if candidate.tobytes() not in taken:
            return candidate
    return None


@st.composite
def fidelity_cases(draw):
    """An ideal product output and a noisy block that half-matches it.

    The ideal's paths draw their kept bits from a small pool, so keep keys
    repeat; the block's rows copy an ideal key (some with one bit flipped),
    take a random (usually absent) one, or -- for whole "dead" shots -- a
    key the ideal lacks, and their traced bits come from a small pool, so
    rest buckets collide.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # keep_qubits=None on a >64-qubit circuit: multi-word full keys.
        num_qubits = draw(st.integers(65, 140))
        keep = None
        keep_columns = list(range(num_qubits))
    else:
        width = draw(st.sampled_from(KEEP_WIDTHS))
        num_qubits = width + draw(st.integers(0 if width else 1, 12))
        keep_columns = [int(q) for q in rng.permutation(num_qubits)[:width]]
        keep = keep_columns
    rest_columns = [q for q in range(num_qubits) if q not in set(keep_columns)]
    width = len(keep_columns)

    n_ideal = draw(st.integers(1, 8))
    # Pool keys one bit apart, so wide keys often tie on their first word.
    pool = np.tile(rng.random(width) < 0.5, (draw(st.integers(1, n_ideal)), 1))
    if width:
        pool[np.arange(1, len(pool)), rng.integers(width, size=len(pool) - 1)] ^= True
    ideal_keep = pool[rng.integers(len(pool), size=n_ideal)]
    ideal_bits = np.zeros((n_ideal, num_qubits), dtype=bool)
    ideal_bits[:, keep_columns] = ideal_keep
    ideal_bits[:, rest_columns] = rng.random(len(rest_columns)) < 0.5
    # Real ideal amplitudes, like every QRAM ideal output: a complex one
    # lets NumPy's vectorised complex multiply round differently from the
    # loop's scalar one, which no key resolution can change.
    ideal = PathState(bits=ideal_bits, amplitudes=rng.normal(size=n_ideal))

    shots = draw(st.integers(1, 6))
    n_paths = draw(st.integers(1, 6))
    rows = shots * n_paths
    bits = rng.random((rows, num_qubits)) < 0.5
    copied = rng.random(rows) < 0.7
    bits[np.ix_(copied, keep_columns)] = ideal_keep[
        rng.integers(n_ideal, size=int(copied.sum()))
    ]
    if width:
        # Near misses: an ideal key with one kept bit flipped.
        near = np.flatnonzero(copied & (rng.random(rows) < 0.3))
        bits[near, np.array(keep_columns)[rng.integers(width, size=len(near))]] ^= True
    rest_pool = rng.random((3, len(rest_columns))) < 0.5
    rest_pool[0] = ideal_bits[0, rest_columns]
    bits[:, rest_columns] = rest_pool[rng.integers(3, size=rows)]
    absent = _absent_key(ideal_keep, width, rng)
    if absent is not None:
        for shot in np.flatnonzero(rng.random(shots) < 0.3):
            bits[shot * n_paths : (shot + 1) * n_paths, keep_columns] = absent
    amps = rng.normal(size=rows) + 1j * rng.normal(size=rows)

    if draw(st.booleans()):
        bits = np.ascontiguousarray(bits.T).T  # the qubit-major layout
    kept = rng.random(shots) < 0.6 if draw(st.booleans()) else None
    return ideal, bits, amps, shots, n_paths, keep, kept


class TestIntegerKeys:
    @settings(max_examples=200, deadline=None)
    @given(case=fidelity_cases())
    def test_matches_reference_loop_bytes(self, case):
        """Every keep width, layout and mask gives the dict loop's bytes.

        The bool block and its packed rows are the same draw: the first
        call packs the block, the second reads the packed value directly
        (and runs on the memoised table).
        """
        ideal, bits, amps, shots, n_paths, keep, kept = case
        expected = _reference_shot_fidelities(
            ideal, bits, amps, shots=shots, n_paths=n_paths, keep_qubits=keep
        )
        if kept is not None:
            expected[~kept] = np.nan
        for block in (bits, _packed(bits)):
            actual = shot_fidelities(
                ideal,
                block,
                amps,
                shots=shots,
                n_paths=n_paths,
                keep_qubits=keep,
                kept=kept,
            )
            assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_words", [0, 1, 2, 3])
    def test_lexicographic_ids_order_rows_like_their_words(self, n_words):
        rng = np.random.default_rng(n_words)
        # Few distinct values per word, so rows tie on leading words.
        words = rng.integers(0, 3, size=(200, n_words)).astype(np.uint64)
        words[::7, :1] = np.uint64(2**64 - 1)
        ids = _lexicographic_ids(words)
        order = np.lexsort(words.T[::-1]) if n_words else np.arange(200)
        assert np.array_equal(np.argsort(ids, kind="stable"), order)
        same_ids = ids[:, None] == ids[None, :]
        same_rows = (words[:, None, :] == words[None, :, :]).all(axis=2)
        assert np.array_equal(same_ids, same_rows)

    @pytest.mark.parametrize("width", [0, 1, 8, 9, 64, 65, 130])
    def test_key_words_are_big_endian_padded_bytes(self, width):
        bits = np.random.default_rng(width).random((9, width)) < 0.5
        packed = np.packbits(bits, axis=1)
        words = _key_words(packed)
        n_bytes = (width + 7) // 8
        assert words.dtype == np.uint64
        assert words.shape == (9, (n_bytes + 7) // 8)
        for row, key in zip(words, packed):
            padded = key.tobytes().ljust(8 * len(row), b"\0")
            assert b"".join(int(word).to_bytes(8, "big") for word in row) == padded


def _product_case(rng, num_qubits, n_keep, shots, n_paths, rest, matches=True):
    """An ideal product output and a noisy block whose traced rows are ``rest``.

    ``rest`` is ``"zeros"`` or ``"ones"`` (every traced qubit constant) or
    ``"varying"`` (every traced qubit takes both values somewhere in the
    block, drawn from a small pool so rest buckets collide).  Most rows copy
    an ideal key and a fifth miss the table by one flipped bit; with
    ``matches=False`` no row matches it at all.
    """
    keep_columns = [int(q) for q in rng.permutation(num_qubits)[:n_keep]]
    rest_columns = [q for q in range(num_qubits) if q not in set(keep_columns)]
    n_ideal = 4
    ideal_keep = rng.random((n_ideal, n_keep)) < 0.5
    ideal_keep[:, 0] = False
    ideal_bits = np.zeros((n_ideal, num_qubits), dtype=bool)
    ideal_bits[:, keep_columns] = ideal_keep
    ideal_bits[:, rest_columns] = rest == "ones"
    ideal = PathState(bits=ideal_bits, amplitudes=rng.normal(size=n_ideal))

    rows = shots * n_paths
    bits = np.zeros((rows, num_qubits), dtype=bool)
    bits[:, keep_columns] = ideal_keep[rng.integers(n_ideal, size=rows)]
    missed = rng.random(rows) < 0.2 if matches else np.ones(rows, dtype=bool)
    bits[np.flatnonzero(missed), keep_columns[0]] = True
    if rest == "varying":
        pool = rng.random((4, len(rest_columns))) < 0.5
        pool[0], pool[1] = False, True
        # Two patterns one bit apart in the last traced qubit: past 64
        # traced qubits they tie on every word but the last.
        pool[3] = pool[2]
        pool[3, -1] ^= True
        choice = rng.integers(4, size=rows)
        choice[:2] = [0, 1]
        bits[:, rest_columns] = pool[choice]
    else:
        bits[:, rest_columns] = rest == "ones"
    amps = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    return ideal, bits, amps, keep_columns, rest_columns


def _assert_matches_reference(ideal, bits, amps, shots, n_paths, keep, kept=None):
    """The bool block and its packed rows both give the dict loop's bytes."""
    expected = _reference_shot_fidelities(
        ideal, bits, amps, shots=shots, n_paths=n_paths, keep_qubits=keep
    )
    if kept is not None:
        expected[~kept] = np.nan
    for block in (bits, _packed(bits)):
        actual = shot_fidelities(
            ideal,
            block,
            amps,
            shots=shots,
            n_paths=n_paths,
            keep_qubits=keep,
            kept=kept,
        )
        assert actual.tobytes() == expected.tobytes()
    return expected


class TestPackedRows:
    """Differential cases for the packed-row reduction, one per code path."""

    @pytest.mark.parametrize(
        "rest, num_qubits",
        [("zeros", 12), ("ones", 12), ("varying", 40), ("varying", 90)],
        ids=["rest-zeros", "rest-ones", "rest-varying", "rest-varying-multiword"],
    )
    def test_traced_rows(self, rest, num_qubits):
        rng = np.random.default_rng(num_qubits)
        shots, n_paths = 16, 4
        ideal, bits, amps, keep, rest_columns = _product_case(
            rng, num_qubits, 6, shots, n_paths, rest
        )
        rest_rows = [_packed(bits).rows[q] for q in rest_columns]
        full = (1 << shots * n_paths) - 1
        if rest == "varying":
            assert all(row not in (0, full) for row in rest_rows)
        else:
            assert set(rest_rows) == {full if rest == "ones" else 0}
        expected = _assert_matches_reference(ideal, bits, amps, shots, n_paths, keep)
        assert expected.any()

    def test_full_state_keep_past_one_word(self):
        rng = np.random.default_rng(100)
        shots, n_paths = 12, 3
        ideal, bits, amps, _, _ = _product_case(rng, 100, 100, shots, n_paths, "zeros")
        expected = _assert_matches_reference(ideal, bits, amps, shots, n_paths, None)
        assert expected.any()

    def test_postselected_shots(self):
        rng = np.random.default_rng(7)
        shots, n_paths = 20, 3
        ideal, bits, amps, keep, _ = _product_case(
            rng, 30, 5, shots, n_paths, "varying"
        )
        kept = rng.random(shots) < 0.6
        expected = _assert_matches_reference(
            ideal, bits, amps, shots, n_paths, keep, kept
        )
        assert np.isnan(expected).sum() == (~kept).sum()

    @pytest.mark.parametrize("keep", ["reduced", "full"])
    def test_branching_block(self, keep):
        shots = 24
        ideal, packed, amps, kept_qubits = _branching_block(shots)
        assert packed.rows[2] not in (0, (1 << packed.width) - 1)
        bits = np.asarray(packed)
        keep_qubits = kept_qubits if keep == "reduced" else None
        _assert_matches_reference(
            ideal, bits, amps, shots, packed.width // shots, keep_qubits
        )

    @pytest.mark.parametrize("rest", ["zeros", "varying"])
    def test_shard_with_no_matching_row(self, rest):
        rng = np.random.default_rng(3)
        shots, n_paths = 8, 4
        ideal, bits, amps, keep, _ = _product_case(
            rng, 20, 5, shots, n_paths, rest, matches=False
        )
        expected = _assert_matches_reference(ideal, bits, amps, shots, n_paths, keep)
        assert expected.tobytes() == np.zeros(shots).tobytes()


class TestComplexIdealCaveat:
    """The one documented departure from the dict loop's bits.

    QRAM builders emit real ideal outputs, which agree bit for bit
    (``TestVectorisedFidelity``); a complex ideal amplitude may round
    ``conj(ideal) * amp`` differently from the loop's scalar multiply.
    """

    def test_complex_ideal_agrees_to_rtol(self):
        rng = np.random.default_rng(17)
        shots, n_paths = 16, 4
        ideal, bits, amps, keep, _ = _product_case(
            rng, 24, 6, shots, n_paths, "varying"
        )
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=ideal.num_paths))
        ideal = PathState(bits=ideal.bits, amplitudes=ideal.amplitudes * phases)
        expected = _reference_shot_fidelities(
            ideal, bits, amps, shots=shots, n_paths=n_paths, keep_qubits=keep
        )
        for block in (bits, _packed(bits)):
            actual = shot_fidelities(
                ideal, block, amps, shots=shots, n_paths=n_paths, keep_qubits=keep
            )
            np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)


class TestKeepTable:
    def _ideals(self):
        amp = 1 / np.sqrt(2)
        a = _state([({0: 0, 1: 0}, amp), ({0: 1, 1: 0}, amp)], 3)
        b = _state([({0: 0, 1: 1}, amp), ({0: 1, 1: 1}, amp)], 3)
        assert a.bits.shape == b.bits.shape
        return a, b

    def test_equal_shape_ideals_never_share_a_table(self):
        a, b = self._ideals()
        keep = [0, 1]
        bits = np.vstack([a.bits, b.bits])
        amps = np.ones(4, dtype=complex)
        for ideal in (a, b, a, b):
            values = shot_fidelities(
                ideal, bits, amps, shots=2, n_paths=2, keep_qubits=keep
            )
            expected = _reference_shot_fidelities(
                ideal, bits, amps, shots=2, n_paths=2, keep_qubits=keep
            )
            assert values.tobytes() == expected.tobytes()
        table_a, table_b = _keep_table(a, keep), _keep_table(b, keep)
        assert table_a is not table_b
        assert not np.array_equal(table_a.words, table_b.words)

    def test_keep_sets_of_one_ideal_get_their_own_tables(self):
        ideal, _ = self._ideals()
        first, second = _keep_table(ideal, [0]), _keep_table(ideal, [1, 0])
        assert first is not second
        assert _keep_table(ideal, [0]) is first
        assert _keep_table(ideal, [1, 0]) is second
        assert first.words[:, 0].tolist() == [0, 1 << 63]
        assert second.words[:, 0].tolist() == [0, 1 << 62]
        assert first.rest_columns == [1, 2] and second.rest_columns == [2]

    def test_table_follows_an_ideal_changed_in_place(self):
        ideal, other = self._ideals()
        keep = [0, 1]
        stale = _keep_table(ideal, keep)
        ideal.bits[:] = other.bits
        fresh = _keep_table(ideal, keep)
        assert fresh is not stale
        assert np.array_equal(fresh.words, _keep_table(other, keep).words)

    def test_entangled_ideal_raises_on_every_use(self):
        amp = 1 / np.sqrt(2)
        entangled = _state([({0: 0, 1: 0}, amp), ({0: 1, 1: 1}, amp)], 2)
        bits = entangled.bits.copy()
        amps = entangled.amplitudes.copy()
        with pytest.raises(ValueError) as direct:
            _ideal_keep_amplitudes(entangled, [0])
        for _ in range(2):
            with pytest.raises(ValueError) as raised:
                shot_fidelities(
                    entangled, bits, amps, shots=1, n_paths=2, keep_qubits=[0]
                )
            assert str(raised.value) == str(direct.value)
        assert entangled._keep_tables == {}

    def test_shards_of_a_compiled_point_build_one_table(self, monkeypatch):
        architecture = VirtualQRAM(memory=random_memory(2, 7), qram_width=2)
        noise = GateNoiseModel(PauliChannel.depolarizing(0.05))
        built = []
        original = fidelity._ideal_keep_amplitudes

        def counting(ideal, keep_columns):
            built.append(tuple(keep_columns))
            return original(ideal, keep_columns)

        monkeypatch.setattr(fidelity, "_ideal_keep_amplitudes", counting)
        for shard in range(3):
            architecture.run_query(noise, 8, rng=ShotSeeds(seed=shard))
        assert built == [tuple(architecture.kept_qubits())]
