"""Golden-trajectory regression pins for the random-stream contract.

Every committed benchmark artefact (``benchmarks/baselines/BENCH_*.json``)
and every cached scenario fingerprint depends on one invariant: a shot's
randomness is consumed in a fixed order -- **measurement uniforms first**
(one per measurement, instruction order), **then noise-site codes** (one per
gate/qubit error site, tape order) -- from its own ``SeedSequence``-derived
stream.  Path branching added new consumers around that stream, so this
module pins the contract on a fixed branching circuit with hard-coded golden
values: if the engine starts drawing in a different order (or branching
starts consuming randomness at all), these tests fail loudly with the exact
divergent draw rather than letting a silently re-seeded sweep masquerade as
a real result.

The fixture circuit is the entanglement-swapping core: ``H`` + ``CX`` chain
(one branch level), an X/Z Bell-measurement pair, and Pauli-frame
corrections -- every new code path of the branching tentpole in six
instructions.
"""

import numpy as np

from repro.circuit import QuantumCircuit
from repro.circuit.ir import compile_circuit
from repro.sim import FeynmanPathSimulator, PathState, ShotSeeds
from repro.sim.noise import GateNoiseModel, PauliChannel
from repro.sim.seeding import draw_shot_randomness
from tests.events import densify

SEED = 20260808
SHOTS = 3
# The engine's exact double (one ULP below round(1/sqrt(2))): amplitudes
# are pinned bit for bit, not to tolerance.
_A = 0.7071067811865474

#: Measurement uniforms, shape ``(num_measurements, shots)`` -- drawn FIRST
#: from each shot's stream, one row per measurement in instruction order.
GOLDEN_UNIFORMS = np.array(
    [
        [0.9501710763618, 0.8889629236301984, 0.4412720320783742],
        [0.899093609290172, 0.36222650317666283, 0.8243187798356074],
    ]
)

#: Noise-site codes, shape ``(num_sites, shots)`` -- drawn AFTER the
#: uniforms, one row per (gate, qubit) error site in tape order.  The draw
#: returns them as packed events; :func:`tests.events.densify` lays them out.
GOLDEN_CODES = np.array(
    [
        [2, 0, 0],
        [3, 0, 0],
        [0, 1, 0],
        [0, 0, 0],
        [2, 0, 1],
    ]
)

#: The exact trajectory block the engine must emit: ``SHOTS`` stacked
#: two-path blocks (the input superposition), post-collapse.
GOLDEN_BITS = np.array(
    [
        [1, 1, 1],
        [1, 1, 0],
        [1, 0, 0],
        [1, 0, 1],
        [0, 1, 1],
        [0, 1, 0],
    ],
    dtype=bool,
)
GOLDEN_AMPS = np.array([-_A, -_A, -_A, _A, _A, _A], dtype=complex)


def _branching_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    x = circuit.measure(0, basis="X")
    z = circuit.measure(1, basis="Z")
    circuit.cpauli("X", 2, [z])
    circuit.cpauli("Z", 2, [x])
    return circuit


def _noise() -> GateNoiseModel:
    return GateNoiseModel(
        channel=PauliChannel(p_x=0.05, p_y=0.05, p_z=0.05), two_qubit_factor=2.0
    )


class TestRandomStreamGolden:
    def test_fixture_circuit_branches(self):
        """The pinned circuit genuinely exercises the branching machinery."""
        tape = compile_circuit(_branching_circuit())
        assert tape.max_branch_level == 1
        assert tape.num_measurements == 2

    def test_consumption_order_is_pinned(self):
        """Measurement uniforms first, then site codes, exact golden values."""
        tape = compile_circuit(_branching_circuit())
        sites = tape.noise_sites(_noise())
        events, uniforms = draw_shot_randomness(
            sites, ShotSeeds(seed=SEED), SHOTS, tape.num_measurements
        )
        assert uniforms.shape == (tape.num_measurements, SHOTS)
        codes = densify(events, len(sites.gate_index), SHOTS)
        np.testing.assert_array_equal(
            uniforms,
            GOLDEN_UNIFORMS,
            err_msg="measurement-uniform draws diverged from the golden "
            "stream: an engine or the seeding layer reordered consumption",
        )
        np.testing.assert_array_equal(
            codes,
            GOLDEN_CODES,
            err_msg="noise-site code draws diverged from the golden stream: "
            "sites are enumerated in a different order than committed "
            "artefacts assume",
        )

    def test_golden_trajectory(self):
        """The Feynman engine reproduces the committed trajectory bit for bit."""
        state = PathState.register_superposition(3, [2])
        bits, amps, _ = FeynmanPathSimulator().run_noisy_shots_recorded(
            _branching_circuit(), state, _noise(), SHOTS, rng=ShotSeeds(seed=SEED)
        )
        np.testing.assert_array_equal(
            bits,
            GOLDEN_BITS,
            err_msg="trajectory bits diverged from the golden "
            "block -- the random-stream contract is broken",
        )
        np.testing.assert_array_equal(
            amps,
            GOLDEN_AMPS,
            err_msg="trajectory amplitudes diverged from the "
            "golden block -- the random-stream contract is broken",
        )

    def test_branching_consumes_no_randomness(self):
        """Deleting the branch layer must not shift a single later draw.

        ``H`` doubles the path set deterministically; the per-shot streams
        must therefore be indistinguishable from a measure-only circuit
        with the same site table shape.  Pinned by construction: the golden
        uniforms above were drawn with ``n_measurements=2`` straight from
        the seeding layer, bypassing the engines entirely, and the engines
        still reproduce ``GOLDEN_BITS``/``GOLDEN_AMPS`` from them.
        """
        tape = compile_circuit(_branching_circuit())
        sites = tape.noise_sites(_noise())
        events_a, uniforms_a = draw_shot_randomness(
            sites, ShotSeeds(seed=SEED), SHOTS, tape.num_measurements
        )
        events_b, uniforms_b = draw_shot_randomness(
            sites, ShotSeeds(seed=SEED), SHOTS, tape.num_measurements
        )
        np.testing.assert_array_equal(uniforms_a, uniforms_b)
        np.testing.assert_array_equal(events_a, events_b)
