"""Vandermonde determinants over the power basis and the S-polynomial basis.

Also the exact Bareiss determinant, the gapped Vandermondians that the
`identities` suites check, and `dense_det`, a float LU determinant that no
module calls: the tests use it as a reference, and it stays in the package
only because perfbench/run.py traces it by its module path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polynomials import spoly_eval, spoly_eval_exact

__all__ = [
    "NodeSet",
    "dense_det",
    "exact_det",
    "vandermonde_power",
    "vandermonde_S",
    "spoly_matrix",
    "gapped_vandermonde",
    "GappedVandermonde",
]


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing ancilla photon numbers n_1 < ... < n_N.

    Each value must be an integer (Python or numpy); a float, a string or a
    Fraction raises TypeError rather than being truncated."""

    values: tuple

    def __post_init__(self):
        vals = tuple(operator.index(v) for v in self.values)
        if len(vals) == 0:
            raise ValueError("node set must be non-empty")
        if any(v < 0 for v in vals):
            raise ValueError("photon numbers must be non-negative")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("photon numbers must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def minimal(cls, N: int) -> "NodeSet":
        """The lowest admissible choice n_l = l-1, for which the closed forms hold."""
        return cls(tuple(range(N)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)


def dense_det(matrix) -> float:
    """Determinant of a real matrix by LU with partial pivoting (deterministic
    smallest-index pivot).

    Dimension 0 returns 1 by the empty-product convention.  A complex matrix
    raises ValueError.  `exact_det` is the exact-rational path.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if np.iscomplexobj(a):
        raise ValueError("dense_det takes a real matrix")
    n = a.shape[0]
    if n == 0:
        return 1.0
    a = a.astype(np.float64, copy=True)
    det = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))  # argmax: first (smallest) index on ties
        if a[piv, col] == 0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        det *= a[col, col]
        a[col + 1 :, col:] -= np.outer(a[col + 1 :, col] / a[col, col], a[col, col:])
    return det


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Fraction-free Bareiss determinant over exact rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) / prev
            m[r][col] = Fraction(0)
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def vandermonde_power(nodes: NodeSet) -> int:
    """prod_{i<j} (n_j - n_i), exact integers."""
    vals = nodes.values
    out = 1
    for j in range(len(vals)):
        for i in range(j):
            out *= vals[j] - vals[i]
    return out


def vandermonde_S(nodes: NodeSet, x: float) -> float:
    """det[S_{k-1}^{(x)}(n_l)] via the product rule V_N * prod_k (x^2-1)^k / k!."""
    N = len(nodes)
    u = x * x - 1.0
    pref = 1.0
    for k in range(N):
        pref *= u**k / math.factorial(k)
    return vandermonde_power(nodes) * pref


def spoly_matrix(nodes: NodeSet, x, exact: bool = False):
    """The S-basis Vandermonde matrix, rows k = 0..N-1, columns the nodes."""
    N = len(nodes)
    if exact:
        return [[spoly_eval_exact(k, x, n) for n in nodes] for k in range(N)]
    return np.array([[spoly_eval(k, x, n) for n in nodes] for k in range(N)])


@dataclass(frozen=True)
class GappedVandermonde:
    """Vandermondian over {0..N-1} minus one node, in both bases."""

    N: int
    gap: int
    power: int  # V_{N-1} * C(N-1, gap), exact

    def s_basis(self, x: float) -> float:
        """(x^2-1)^{(N-1)(N-2)/2} C(N-1, gap)."""
        e = (self.N - 1) * (self.N - 2) // 2
        return (x * x - 1.0) ** e * math.comb(self.N - 1, self.gap)


def gapped_vandermonde(N: int, gap: int) -> GappedVandermonde:
    """Vandermondian of {0,...,N-1}\\{gap}: equals V_{N-1} * C(N-1, gap)."""
    if not 0 <= gap <= N - 1:
        raise ValueError("gap must lie in [0, N-1]")
    v_nm1 = 1
    for k in range(N - 1):
        v_nm1 *= math.factorial(k)
    return GappedVandermonde(N=N, gap=gap, power=v_nm1 * math.comb(N - 1, gap))
