"""Set up one workload in a fresh interpreter.

    python3 perfbench/setup_child.py WORKLOAD SEED

run.py times whole runs of this script for `setup_s`: interpreter start,
`import dismantle` and building the workload's inputs.
"""

import sys

from workloads import SRC, WORKLOADS

sys.path.insert(0, str(SRC))
WORKLOADS[sys.argv[1]](int(sys.argv[2])).setup()
