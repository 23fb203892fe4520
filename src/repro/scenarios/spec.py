"""Declarative scenario specifications and the scenario registry.

A *scenario* names one end-to-end configuration of the reproduction stack:
which QRAM architecture to build, how wide, how (and whether) to embed it on
hardware, which device calibration supplies the noise, whether schedule-aware
idle noise is attached, and which error-reduction factors to sweep.  Specs
are declarative and frozen -- compiling and executing them is the job of
:mod:`repro.scenarios.compile` and :mod:`repro.scenarios.run` -- so they can
be registered by name, listed from the CLI, pickled into sweep workers and
used as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.devices import DEVICES
from repro.hardware.router import DEFAULT_ROUTER, available_routers
from repro.qram.base import QRAMArchitecture
from repro.qram.bucket_brigade import BucketBrigadeQRAM
from repro.qram.fanout import FanoutQRAM
from repro.qram.virtual_qram import VirtualQRAM

#: The QRAM construction each :attr:`ScenarioSpec.architecture` label builds:
#: the closed set of labels :class:`ScenarioSpec` validates and fingerprints
#: stamp (records too), so it never changes.  It is deliberately separate from
#: :data:`repro.qram.query.ARCHITECTURES`, the open name registry.
ARCHITECTURES: dict[str, type[QRAMArchitecture]] = {
    "virtual": VirtualQRAM,
    "bucket-brigade": BucketBrigadeQRAM,
    "fanout": FanoutQRAM,
}
MAPPINGS: tuple[str, ...] = ("none", "htree", "device", "dual-rail")
ROUTINGS: tuple[str, ...] = (
    "swap",
    "teleport",
    "teleport-executed",
    "teleport-fused",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, sweepable end-to-end simulation configuration.

    Parameters
    ----------
    name / description:
        Registry key and the one-line summary ``--list`` prints.
    architecture:
        QRAM construction: ``"virtual"`` (the paper's proposal),
        ``"bucket-brigade"`` or ``"fanout"`` (the baselines).
    qram_width / sqc_width:
        The paper's ``m`` and ``k``; the memory holds ``2**(m + k)`` cells.
    mapping:
        ``"none"`` executes the logical circuit as built; ``"htree"`` embeds
        it in the 2D H-tree layout (Sec. 4.2) and makes the communication
        real; ``"device"`` routes it onto a named sparse-connectivity backend
        (the Figure 12 methodology); ``"dual-rail"`` encodes every logical
        qubit as two erasure-detecting rails with postselected parity checks
        (see :mod:`repro.mapping.dual_rail`) -- sweep points then report the
        surviving ``kept_fraction`` alongside the postselected fidelity.
    routing:
        Communication scheme for ``mapping="htree"``: ``"swap"`` materialises
        SWAP chains along the tree arms (every SWAP incurs gate noise),
        ``"teleport"`` executes remote gates in place at constant depth but
        charges the entanglement-link noise of the consumed routing qubits
        *analytically*, and ``"teleport-executed"`` executes the links for
        real -- entanglement-link CX hops over the routing-chain vertices,
        mid-circuit measurements and Pauli-frame feedforward (see
        :mod:`repro.mapping.teleport`), with link noise arising from the hop
        gates' own error channels.  ``"teleport-fused"`` also executes the
        links but replaces every sequential hop chain with a constant-depth
        entanglement-swapping link (Bell pairs + Bell-state measurements),
        which branches the path set through the bounded-``H`` support of the
        Feynman engine and is subject to the branch budget of
        :data:`repro.circuit.ir.MAX_BRANCHES`.  ``mapping="device"``
        always swap-routes; ``mapping="none"`` ignores this field.
    router:
        Which registered router resolves blocked gates (see
        :mod:`repro.hardware.router`): ``"greedy-swap"``, ``"lookahead"``
        or ``"lookahead-teleport"`` (SWAPs plus measurement-based teleport
        relocations through free vertices); defaults to
        :data:`~repro.hardware.router.DEFAULT_ROUTER`.  Ignored (but still
        recorded and fingerprinted) unless the mapping swap-routes.
    device:
        Name in :data:`repro.hardware.devices.DEVICES` supplying topology
        (for ``mapping="device"``) and/or calibration.  ``None`` uses the
        reference grid calibration (the Sec. 6.3 error scale).
    error_reduction_factors:
        The ``eps_r`` sweep grid (Appendix A): every gate/idle error rate is
        divided by each factor in turn.
    idle_error:
        Per-idle-layer dephasing probability at ``eps_r = 1``.  ``0.0``
        disables idle noise; ``None`` uses the device calibration's
        :attr:`~repro.hardware.devices.DeviceModel.idle_error`.
    readout:
        When True, fold the device calibration's
        :attr:`~repro.hardware.devices.DeviceModel.readout_error` into every
        sweep point's fidelity: each kept qubit survives readout with
        probability ``1 - readout_error / eps_r``, so the recorded fidelity
        is multiplied by ``(1 - readout_error / eps_r) ** len(keep_qubits)``
        (see :meth:`~repro.scenarios.compile.CompiledScenario.readout_survival`).
        Off by default -- the paper's fidelity experiments measure state
        overlap without readout noise.
    shots:
        Default Monte-Carlo shots per sweep point (CLI ``--shots`` overrides).
    """

    name: str
    description: str
    architecture: str = "virtual"
    qram_width: int = 2
    sqc_width: int = 0
    mapping: str = "none"
    routing: str = "swap"
    router: str = DEFAULT_ROUTER
    device: str | None = None
    error_reduction_factors: tuple[float, ...] = (1.0, 10.0, 100.0)
    idle_error: float | None = 0.0
    readout: bool = False
    shots: int = 200

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"choose from {tuple(ARCHITECTURES)}"
            )
        if self.mapping not in MAPPINGS:
            raise ValueError(
                f"unknown mapping {self.mapping!r}; choose from {MAPPINGS}"
            )
        if self.routing not in ROUTINGS:
            raise ValueError(
                f"unknown routing {self.routing!r}; choose from {ROUTINGS}"
            )
        if self.router not in available_routers():
            raise ValueError(
                f"unknown router {self.router!r}; "
                f"available: {available_routers()}"
            )
        if self.qram_width < 1:
            raise ValueError("qram_width must be at least 1")
        if self.sqc_width < 0:
            raise ValueError("sqc_width must be non-negative")
        if self.mapping == "device" and self.device is None:
            raise ValueError('mapping="device" needs a named device')
        if self.device is not None and self.device not in DEVICES:
            raise ValueError(
                f"unknown device {self.device!r}; available: {sorted(DEVICES)}"
            )
        if not self.error_reduction_factors:
            raise ValueError("error_reduction_factors must be non-empty")
        if any(factor <= 0 for factor in self.error_reduction_factors):
            raise ValueError("error reduction factors must be positive")
        if self.idle_error is not None and self.idle_error < 0:
            raise ValueError("idle_error must be non-negative (or None)")
        if self.shots <= 0:
            raise ValueError("shots must be positive")

    @property
    def memory_width(self) -> int:
        """Address width ``n = m + k`` of the queried memory."""
        return self.qram_width + self.sqc_width

    def variant(self, name: str, description: str, **overrides) -> "ScenarioSpec":
        """A renamed copy with field overrides (for ablation families)."""
        return replace(self, name=name, description=description, **overrides)


# ------------------------------------------------------------------ registry
_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its name and return it.

    Built-in scenarios register at import; user code can add its own (pass
    ``replace=True`` to overwrite).  Workers re-import this module, so
    scenarios registered at import time resolve under any multiprocessing
    start method; runtime registrations additionally rely on the ``fork``
    start the sweep runner prefers.
    """
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        ) from None


def available_scenarios() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)


def iter_scenarios() -> list[ScenarioSpec]:
    """Every registered spec, sorted by name."""
    return [_REGISTRY[name] for name in available_scenarios()]
