"""The architecture registry and multi-bit queries.

The experiment runners and benchmarks refer to architectures by short names
("virtual", "sqc_bb", "sqc_ss", "fanout", "sqc", and the gate-noise
figures' record labels "ours", "bb", "ss"); :func:`make_architecture`
resolves a name plus parameters into a concrete builder.
:class:`MultiBitQuery` extends single-bit queries to the multi-bit data
widths discussed in Sec. 8 by querying one bit plane at a time.

Noisy queries run through :meth:`~repro.qram.base.QRAMArchitecture.run_query`;
sweeps shard them with :class:`~repro.sweep.SweepRunner` (see
:func:`repro.experiments.common.gate_noise_shard`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Type

from repro.qram.base import QRAMArchitecture
from repro.qram.bucket_brigade import BucketBrigadeQRAM
from repro.qram.fanout import FanoutQRAM
from repro.qram.memory import ClassicalMemory
from repro.qram.select_swap import SelectSwapQRAM
from repro.qram.sqc import SequentialQueryCircuit
from repro.qram.virtual_qram import VirtualQRAM, VirtualQRAMOptions

#: Architectures by the short names used throughout the benchmarks; "ours",
#: "bb" and "ss" are the record labels of the gate-noise figures (9--11).
ARCHITECTURES: dict[str, Type[QRAMArchitecture]] = {
    "virtual": VirtualQRAM,
    "ours": VirtualQRAM,
    "sqc_bb": BucketBrigadeQRAM,
    "bb": BucketBrigadeQRAM,
    "sqc_ss": SelectSwapQRAM,
    "ss": SelectSwapQRAM,
    "fanout": FanoutQRAM,
    "sqc": SequentialQueryCircuit,
}


def make_architecture(
    name: str,
    memory: ClassicalMemory,
    qram_width: int | None = None,
    **kwargs,
) -> QRAMArchitecture:
    """Instantiate an architecture by its short name.

    ``qram_width`` defaults to the full address width (no paging) for the
    router-based architectures and is ignored for the SQC.
    """
    key = name.lower()
    if key not in ARCHITECTURES:
        raise KeyError(
            f"unknown architecture {name!r}; known: {sorted(set(ARCHITECTURES))}"
        )
    cls = ARCHITECTURES[key]
    if cls is SequentialQueryCircuit:
        return cls(memory=memory, qram_width=0, **kwargs)
    width = memory.address_width if qram_width is None else qram_width
    return cls(memory=memory, qram_width=width, **kwargs)


@dataclass
class MultiBitQuery:
    """Query a multi-bit memory one bit plane at a time (Sec. 8 extension).

    The virtual QRAM natively transfers one bit per query; memories with
    ``data_width > 1`` are served by repeating the query for each bit plane,
    which is the strategy the paper describes as compatible with its design.
    """

    memory: ClassicalMemory
    qram_width: int
    architecture: str = "virtual"
    options: VirtualQRAMOptions | None = None

    def plane_architecture(self, plane: int) -> QRAMArchitecture:
        """The architecture instance serving one bit plane."""
        kwargs: dict = {"bit_plane": plane}
        if self.architecture == "virtual" and self.options is not None:
            kwargs["options"] = self.options
        return make_architecture(
            self.architecture, self.memory, self.qram_width, **kwargs
        )

    def planes(self) -> list[QRAMArchitecture]:
        """One architecture instance per bit plane."""
        return [
            self.plane_architecture(plane)
            for plane in range(self.memory.data_width)
        ]

    def classical_readout(self, address: int) -> int:
        """The value a noiseless multi-bit query returns for ``address``.

        Each plane's circuit is verified to produce the plane's bit; the bits
        are reassembled most-significant first.
        """
        value = 0
        for plane, architecture in enumerate(self.planes()):
            amplitudes = {address: 1.0 + 0.0j}
            output = architecture.simulate(architecture.input_state(amplitudes))
            bus_bit = int(output.bits[0, architecture.bus_qubit()])
            value = (value << 1) | bus_bit
        return value

    def total_resources(self) -> dict:
        """Aggregate resource counts across all bit planes."""
        reports = [arch.resource_report().as_dict() for arch in self.planes()]
        totals: dict = {key: 0 for key in reports[0]}
        for report in reports:
            for key, value in report.items():
                totals[key] += value
        return totals
