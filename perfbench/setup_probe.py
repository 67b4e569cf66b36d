"""Set-up probe: import spectral_corner, build one workload's domains, say so.

run.py starts this script in a fresh interpreter and times it from process
start to the ``ready`` line, which is the set-up a benchmark pass waits for.
Usage: python3 perfbench/setup_probe.py <workload>  (PYTHONPATH must hold src)
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.setup(sys.argv[1])
    print("ready", flush=True)
