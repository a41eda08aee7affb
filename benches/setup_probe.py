"""Set-up alone, for timing from the parent: imports plus the workload spec.

Usage: python3 benches/setup_probe.py <workload> <seed> <work_dir>
"""

import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(perf_counter_ns())
