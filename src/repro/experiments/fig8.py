"""Figure 8: extra operation depth after mapping to a 2D grid (Sec. 7.2).

For each QRAM width ``m`` the virtual QRAM circuit is embedded into a 2D grid
with the H-tree construction and the communication overhead of swap-based and
teleportation-based routing is accumulated.  The paper's claims to reproduce:

* swap-based routing's extra depth grows exponentially with ``m`` (the top
  arms of the H-tree have length ``~2**(m/2)`` and are traversed every round);
* teleportation-based routing adds only a constant per remote layer, so its
  extra depth stays linear in the logical depth and the ``O(log M)`` query
  latency survives the mapping;
* the embedding wastes only ~25% of the grid qubits.
"""

from __future__ import annotations

from repro.experiments.common import format_table, random_memory
from repro.mapping.embedding import verify_topological_minor
from repro.mapping.htree import HTreeEmbedding
from repro.mapping.mapped_circuit import MappedQRAM
from repro.mapping.routing import SwapRouting, TeleportationRouting
from repro.qram.virtual_qram import VirtualQRAM
from repro.sweep import SweepRunner

DEFAULT_WIDTHS: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9)


def _fig8_point(spec: tuple) -> dict[str, object]:
    """Routing-overhead record for one width (deterministic sweep point)."""
    m, seed = spec
    memory = random_memory(m, seed)
    architecture = VirtualQRAM(memory=memory, qram_width=m)
    circuit = architecture.build_circuit()
    embedding = HTreeEmbedding(tree_depth=m)
    report = verify_topological_minor(embedding)
    mapped = MappedQRAM(circuit, embedding)
    swap = mapped.overhead(SwapRouting())
    teleport = mapped.overhead(TeleportationRouting())
    layout = embedding.routing_resource_summary()
    return {
        "m": m,
        "grid": f"{layout['grid_rows']}x{layout['grid_cols']}",
        "grid_qubits": layout["grid_qubits"],
        "unused_fraction": layout["unused_fraction"],
        "topological_minor": report.is_topological_minor,
        "logical_depth": swap.logical_depth,
        "swap_extra_depth": swap.extra_depth,
        "swap_extra_operations": swap.extra_operations,
        "teleport_extra_depth": teleport.extra_depth,
        "teleport_extra_operations": teleport.extra_operations,
        "max_gate_distance": swap.max_gate_distance,
    }


def run_fig8(
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    *,
    seed: int | None = None,
    workers: int | None = None,
) -> list[dict[str, object]]:
    """Routing-overhead records for each QRAM width (k = 0, as in the figure).

    The sweep is deterministic (no Monte-Carlo shots), so each width is one
    :class:`~repro.sweep.SweepRunner` point; ``workers`` parallelises the
    embedding/routing work without changing any record.
    """
    runner = SweepRunner(workers=workers)
    return runner.map_points(_fig8_point, [(m, seed) for m in widths])


def fig8_report(records: list[dict[str, object]]) -> str:
    """Human-readable Figure 8 series of ``records`` (from :func:`run_fig8`)."""
    if not records:
        return ""
    columns = [
        "m",
        "grid",
        "logical_depth",
        "swap_extra_depth",
        "teleport_extra_depth",
        "unused_fraction",
    ]
    rows = [[record[column] for column in columns] for record in records]
    return "Figure 8 reproduction (extra operation depth after 2D mapping)\n" + format_table(
        columns, rows
    )
