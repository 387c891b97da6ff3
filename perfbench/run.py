#!/usr/bin/env python3
"""Benchmark of the simplexvol command line.

One process runs one workload as a closed loop: one client, one solve at a
time, each solve an in-process ``simplexvol.cli.main([...])`` call on a point
file from a seeded pool.  Every solve is checked against a reference after
the timed phase.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it prints the per-layer split from a traced pass.

    python3 perfbench/run.py --workload prism3d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from the src/ directory next to perfbench/.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; result files and spans go to perfbench/out/.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "simplexvol" / "__init__.py").is_file():
        print(f"error: no simplexvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
