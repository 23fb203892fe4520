"""Device models and routing for the Appendix-A hardware study (Figure 12).

The paper evaluates small virtual QRAMs under realistic IBM Quantum noise
models (``ibm_perth`` for ``m = 1`` and ``ibmq_guadalupe`` for ``m = 2``).
Neither Qiskit nor the IBM calibration service is available offline, so this
package substitutes:

* :mod:`~repro.hardware.devices` -- the two devices' public coupling maps and
  synthetic calibration data at the error-rate scale the paper assumes
  (~1e-3), scalable by the error-reduction factor ``eps_r``;
* :mod:`~repro.hardware.noise_model` -- a gate-based noise model derived from
  a device's calibration, distinguishing one- and two-qubit gate errors;
* :mod:`~repro.hardware.router` -- the router registry plus a lightweight
  greedy swap-insertion router: it makes remote gates executable on the
  sparse coupling map and reports the extra SWAP count that Figure 12 lists
  under its legend;
* :mod:`~repro.hardware.lookahead` -- a SABRE-style lookahead router
  (front-layer + extended-window scoring, decay heuristic,
  forward/backward/forward initial-layout selection) that stands in for
  Qiskit's SABRE pass proper and routes with fewer SWAPs than the greedy
  baseline;
* :mod:`~repro.hardware.teleport_router` -- the lookahead pass extended with
  measurement-based teleport relocations through free vertices, scored in
  the same candidate loop as SWAPs (the Sec. 4.3 communication primitive as
  a routing move).

The substitution preserves what Figure 12 actually measures: how the extra
SWAPs forced by sparse connectivity and the overall error scale affect query
fidelity as hardware improves.
"""

from repro.hardware.devices import (
    DEVICES,
    DeviceModel,
    grid_device,
    ibm_perth_like,
    ibmq_guadalupe_like,
)
from repro.hardware.noise_model import (
    DeviceNoiseModel,
    device_noise_model,
    scheduled_device_noise_model,
)
from repro.hardware.router import (
    GreedySwapRouter,
    RoutedCircuit,
    available_routers,
    get_default_router,
    get_router_class,
    make_router,
    register_router,
)
from repro.hardware.lookahead import LookaheadSwapRouter
from repro.hardware.teleport_router import TeleportSwapRouter

__all__ = [
    "DEVICES",
    "DeviceModel",
    "DeviceNoiseModel",
    "GreedySwapRouter",
    "LookaheadSwapRouter",
    "RoutedCircuit",
    "TeleportSwapRouter",
    "available_routers",
    "device_noise_model",
    "get_default_router",
    "get_router_class",
    "grid_device",
    "ibm_perth_like",
    "ibmq_guadalupe_like",
    "make_router",
    "register_router",
    "scheduled_device_noise_model",
]
