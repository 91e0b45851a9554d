"""Set-up probe: import rspho.cli and make one workload's inputs, then exit.

    python3 perfbench/probe.py <workload> <seed>

run.py times fresh processes of this script from start to exit; the median
is the workload's setup_s.
"""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

import rspho.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.make(sys.argv[1]).generate(random.Random(int(sys.argv[2])))
