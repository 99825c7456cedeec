"""Print the sign-change brackets of det(a(T)) for a node set, in exact rationals.

    python3 perfbench/brackets.py --nodes 0,1,3,4,5,6,10,11,12,16

det(a) is a polynomial in T, so a sign change between two grid points
T = m/STEPS proves a real root between them, whatever the program reports.
T = 0 is left out, as the program excludes it. This is how the
brackets of the benchmark's kept failing node sets were made.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from checks import coefficient_det

STEPS = 200


def brackets(nodes) -> list:
    """[(lo, hi)] for every interval of the grid T = m/STEPS on (-1, 0) and
    (0, 1) on which det(a) changes sign."""
    out = []
    for grid in ([Fraction(m, STEPS) for m in range(-STEPS + 1, 0)], [Fraction(m, STEPS) for m in range(1, STEPS)]):
        dets = [coefficient_det(nodes, t) for t in grid]
        for t0, t1, d0, d1 in zip(grid, grid[1:], dets, dets[1:]):
            if d0 == 0:
                out.append((t0, t0))
            elif d1 != 0 and (d0 < 0) != (d1 < 0):
                out.append((t0, t1))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--nodes", required=True, help="comma-separated photon numbers")
    args = parser.parse_args()
    nodes = tuple(int(v) for v in args.nodes.split(","))
    for lo, hi in brackets(nodes):
        print(f"[{float(lo):.3f}, {float(hi):.3f}]  ({lo}, {hi})")


if __name__ == "__main__":
    main()
