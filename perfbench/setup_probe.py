"""One set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work dir>

Imports degelliptic, builds the workload's inputs and prints ``ready``;
run.py times this process from its start until that line arrives, which is
what a user pays before the first operation of a fresh process.
"""

import sys
from pathlib import Path

import degelliptic  # noqa: F401  (the import is part of what is timed)

import workloads


def main(argv: list[str]) -> int:
    name, seed, work = argv[1], int(argv[2]), Path(argv[3])
    workloads.WORKLOADS[name].build(seed, work)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
