"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

    python3 perfbench/probe.py WORKLOAD SEED SIZE

Imports hllrt (and hllrt.cli), lets the kernel backend be chosen, builds
the workload's inputs, prints ``ready`` and tears the set-up down. The
parent times from process start to the ``ready`` line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = workloads.WORKLOADS[name](seed, size)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()


if __name__ == "__main__":
    main()
