"""dlfmkit benchmark: fit one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports dlfmkit from `src/` of that
checkout and never from an installed copy. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run instead. Lines before it are a readable report. The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_dlfmkit():
    """Import dlfmkit from this checkout's sources, or exit with a message."""
    if not (SRC / "dlfmkit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: dlfmkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dlfmkit

    if not Path(dlfmkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"benchmark: imported dlfmkit from {dlfmkit.__file__}, not from {SRC}")
    return dlfmkit


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_dlfmkit()
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
