"""Set-up probe: import and construct what a workload needs, then print ``ready``.

``workloads.measure_setup`` times this script from process start to the
``ready`` line, which is the workload's set-up time (``setup_s``).
"""

import sys

kind = sys.argv[1]
if kind == "nbl":
    from repro import NBLSATSolver
    from repro.core.config import NBLConfig
    from repro.noise import UniformCarrier

    NBLSATSolver(
        engine="sampled",
        config=NBLConfig(carrier=UniformCarrier(half_width=0.5), convergence="fixed"),
    )
elif kind == "files":
    from repro.runtime import BatchRunner

    BatchRunner(solver="cdcl", preprocess=True)
else:
    sys.exit(f"unknown set-up probe {kind!r}")
print("ready", flush=True)
