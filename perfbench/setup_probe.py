"""Child process that measures one set-up: start to the first point requested.

Usage: setup_probe.py WORKLOAD SEED WORKDIR.  It imports cpgates, builds the
workload's inputs, runs its first command (argument parsing, presets,
sequences) until the first scan is requested, and prints the monotonic
clock at that moment, then the host speed it sees just after (the median
time of the calibration loop in ``hostspeed.py``).  The parent subtracts
the time it spawned this process.  scipy is never imported here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (needs the path above)


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    first_point = workloads.WORKLOADS[name](seed, workdir).probe()
    print(repr(first_point), repr(hostspeed.HostSpeed().now()))


if __name__ == "__main__":
    main()
