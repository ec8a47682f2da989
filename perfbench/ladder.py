"""Informational enumeration-scaling ladder; never gated, never repeated.

Times ``enumerate_covector_graphs`` on seeded generic rational
configurations of size 3x3, 3x5 and 4x3 (the scaling rows of the
roadmap), then prints the line counts of ``src/wdpoly/*.py`` in the
format of ``wc -l`` so that the source size is recorded beside them.

Usage, from the root of a checkout::

    python3 perfbench/ladder.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
RUNGS = ((3, 3), (3, 5), (4, 3))


def main():
    if not (ROOT / "src" / "wdpoly" / "__init__.py").is_file():
        print("error: src/wdpoly not found; run from a wdpoly checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import wdpoly
    from workloads import make_config

    lib = SimpleNamespace(semiring=wdpoly.semiring, envelope=wdpoly.envelope)
    rng = random.Random("ladder")
    print("d x n   graphs   seconds")
    for d, n in RUNGS:
        v = make_config(lib, rng, d, n, generic=True)
        t0 = time.perf_counter()
        graphs = wdpoly.enumerate_covector_graphs(v)
        print(f"{d} x {n}   {len(graphs):6d}   {time.perf_counter() - t0:.3f}")
    total = 0
    for path in sorted((ROOT / "src" / "wdpoly").glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        print(f"{lines:5d} {path.relative_to(ROOT)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
