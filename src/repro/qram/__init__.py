"""Quantum query architectures: the paper's virtual QRAM and its baselines.

Public classes
--------------
* :class:`~repro.qram.memory.ClassicalMemory` -- the classical dataset.
* :class:`~repro.qram.virtual_qram.VirtualQRAM` -- the paper's contribution
  (Sec. 3, Algorithm 1), with :class:`~repro.qram.virtual_qram.VirtualQRAMOptions`
  exposing the Sec. 3.2 optimizations.
* :class:`~repro.qram.bucket_brigade.BucketBrigadeQRAM` -- Baseline B (SQC+BB).
* :class:`~repro.qram.select_swap.SelectSwapQRAM` -- Baseline S (SQC+SS).
* :class:`~repro.qram.fanout.FanoutQRAM` -- the Fanout background architecture.
* :class:`~repro.qram.sqc.SequentialQueryCircuit` -- the gate-based QROM baseline.
* :mod:`~repro.qram.query` -- name-based factory and multi-bit queries.
"""

from repro.qram.base import CompiledQuery, QRAMArchitecture, ResourceReport
from repro.qram.bucket_brigade import BucketBrigadeQRAM
from repro.qram.fanout import FanoutQRAM
from repro.qram.memory import ClassicalMemory
from repro.qram.query import (
    ARCHITECTURES,
    MultiBitQuery,
    make_architecture,
)
from repro.qram.select_swap import SelectSwapQRAM
from repro.qram.sqc import SequentialQueryCircuit
from repro.qram.tree import RouterTree
from repro.qram.virtual_qram import VirtualQRAM, VirtualQRAMOptions
from repro.qram.wide_word import WideWordVirtualQRAM

__all__ = [
    "ARCHITECTURES",
    "BucketBrigadeQRAM",
    "ClassicalMemory",
    "CompiledQuery",
    "FanoutQRAM",
    "MultiBitQuery",
    "QRAMArchitecture",
    "ResourceReport",
    "RouterTree",
    "SelectSwapQRAM",
    "SequentialQueryCircuit",
    "VirtualQRAM",
    "VirtualQRAMOptions",
    "WideWordVirtualQRAM",
    "make_architecture",
]
