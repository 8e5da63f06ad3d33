"""Set-up probe: a fresh interpreter imports the package and builds and
validates one workload's inputs, then exits.  ``run.py`` times this whole
process for ``setup_s``.

    python3 lqbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)

if __name__ == "__main__":
    workloads.build_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
