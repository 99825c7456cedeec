"""Maximize the gate success probability over the discrete set of admissible T.

The feasible transmissions are the roots of det(a(T)) — p is only defined
where the homogeneous system has a nontrivial solution — so optimization is
root enumeration followed by evaluation, not gradient ascent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .determinants import NodeSet
from .gate_solver import GateSolution, find_transmission, success_probability

__all__ = ["ScanEntry", "ScanReport", "scan_nodes", "sweep"]


@dataclass(frozen=True)
class ScanEntry:
    T: float
    p: float
    solution: GateSolution


@dataclass(frozen=True)
class ScanReport:
    """The gates of one node set; best, of largest p, exists since every set has one."""
    nodes: NodeSet
    entries: tuple  # ScanEntry, ordered by ascending T
    # (T, reason) for roots where the weights are undetermined: always empty,
    # since a2 is invertible for 0 < |T| < 1 (perfbench's trace hook reads it)
    skipped: tuple
    best: ScanEntry

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "entries": [{"T_re": e.T, "T_im": 0.0, "p": e.p} for e in self.entries],
            "skipped": [{"T_re": t, "T_im": 0.0, "reason": r} for t, r in self.skipped],
            "best": {"T_re": self.best.T, "T_im": 0.0, "p": self.best.p},
        }


def scan_nodes(nodes: NodeSet) -> ScanReport:
    """Enumerate the roots of det(a) for this node set and evaluate p at each,
    for any N; photon numbers whose T^n leave the decimal range raise ValueError.
    best always exists: P has a root in (0, 1) unless the set is minimal (T = 1 - 2^{1/N})."""
    sols = [success_probability(nodes, t) for t in find_transmission(nodes)]
    entries = tuple(ScanEntry(T=s.T, p=s.p, solution=s) for s in sols)
    # ranked by p to 34 digits, since a float p below the float range reads 0.0
    best = max(entries, key=lambda e: e.solution.p_decimal)  # the first on ties
    return ScanReport(nodes=nodes, entries=entries, skipped=(), best=best)


def sweep(n_min: int, n_max: int) -> list:
    """Scaling table for minimal nodes: the best GateSolution of each N = n_min..n_max.
    Each has one, the root T = 1 - 2^{1/N} of t^N [2 - (1-t)^N]."""
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    return [scan_nodes(NodeSet.minimal(N)).best.solution for N in range(n_min, n_max + 1)]
