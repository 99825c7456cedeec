"""Vandermonde determinants over the power basis and the S-polynomial basis.

Also `exact_det`, the exact determinant of a rational matrix: each row is
scaled to integers once, by the lcm of its denominators, and Bareiss's
fraction-free elimination (Math. Comp. 22, 565 (1968)) runs on the integers,
where every division is exact.  `spoly_det` is the determinant of the
S-basis matrix at x = a/b on `spoly_scaled`'s scale: row k shares the
denominator b^{2k}, so Bareiss runs on the integer rows `spoly_scaled` gives
and returns b^{N(N-1)} times the determinant, an integer with no `Fraction`.
Then the gapped Vandermondians that the `identities` suites check, the
S-basis one on the same scale, and `dense_det`, the
`exact_det` of a float matrix rounded once to a float, which no module calls:
it stays in the package only because perfbench/run.py traces it by its module
path.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomials import integer_ratio, spoly_scaled

__all__ = [
    "NodeSet",
    "dense_det",
    "exact_det",
    "vandermonde_power",
    "vandermonde_S",
    "spoly_matrix",
    "spoly_det",
    "gapped_vandermonde",
    "gapped_vandermonde_S",
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
        if operator.index(N) < 1:
            raise ValueError("need N >= 1")
        try:
            return cls(tuple(range(N)))
        except OverflowError:  # N past the largest length of a tuple
            raise ValueError("N is too large for a node set") from None

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def dense_det(matrix) -> float:
    """Determinant of a real matrix (a sequence of rows): `exact_det` of its
    entries as floats, rounded once to a float.

    Dimension 0 returns 1 by the empty-product convention.  A complex, NaN or
    infinite entry raises ValueError, and a determinant past the float range
    OverflowError.
    """
    return float(exact_det(_real_rows(matrix, "dense_det")))


def _real_rows(matrix, who: str) -> list:
    """The rows of a square real matrix as new lists of floats; ValueError for a
    1-D, ragged or non-square input, or an entry of any complex type, NaN or
    infinite; TypeError for a non-number entry, such as a string or buffer `float` parses."""
    try:
        rows = [list(row) for row in matrix]
    except TypeError:  # a 1-D input's rows are numbers
        raise ValueError("matrix must be square") from None
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    if not all(isinstance(v, numbers.Number) for row in rows for v in row):
        raise TypeError(f"{who} takes numbers, not strings or buffers")
    if any(isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real) for row in rows for v in row):
        raise ValueError(f"{who} takes a real matrix")
    rows = [[float(v) for v in row] for row in rows]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("matrix entries must be finite")
    return rows


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant: Bareiss on the rows scaled once to integers (exact
    `//`, no gcd), over the product of the row scales.  0x0 gives Fraction(1).
    A NaN or infinite entry raises ValueError."""
    try:
        m = [[integer_ratio(v) for v in row] for row in rows]
    except (OverflowError, ValueError):  # the integer ratio of an infinity or a NaN
        raise ValueError("matrix entries must be finite") from None
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    scales = [math.lcm(*(d for _, d in row)) for row in m]
    return Fraction(_bareiss([[p * (s // d) for p, d in row] for row, s in zip(m, scales)]), math.prod(scales))


def _bareiss(a: list) -> int:
    """Determinant of the square integer matrix a (a list of rows, consumed)
    by Bareiss's fraction-free elimination; 0x0 gives 1."""
    n = len(a)
    sign = prev = 1
    for col in range(n):
        if not a[col][col]:
            piv = next((r for r in range(col + 1, n) if a[r][col]), None)
            if piv is None:
                return 0
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
        prev = a[col][col]
    return sign * prev


def vandermonde_power(nodes: NodeSet) -> int:
    """prod_{i<j} (n_j - n_i), exact integers."""
    vals = nodes.values
    out = 1
    for j in range(len(vals)):
        for i in range(j):
            out *= vals[j] - vals[i]
    return out


def vandermonde_S(nodes: NodeSet, x):
    """det[S_{k-1}^{(x)}(n_l)] by the product rule V_N * prod_k (x^2-1)^k / k!,
    exact in `Fraction`s, then for a float x rounded once to a float, so V_N,
    prod_k k! and the power may each leave the float range where the value
    does not."""
    N = len(nodes)
    ratio = Fraction(vandermonde_power(nodes), math.prod(map(math.factorial, range(N))))
    value = (Fraction(*integer_ratio(x)) ** 2 - 1) ** (N * (N - 1) // 2) * ratio
    return float(value) if isinstance(x, float) else value


def spoly_matrix(nodes: NodeSet, x, exact: bool = False):
    """The S-basis Vandermonde matrix as a list of rows k = 0..N-1, columns the nodes: x
    is split into a/b once, and each element is `spoly_scaled` over b^{2k},
    a `Fraction` if exact, else a float rounded once."""
    a, b = integer_ratio(x)
    div = Fraction if exact else operator.truediv
    return [[div(spoly_scaled(k, a, b, n), b ** (2 * k)) for n in nodes] for k in range(len(nodes))]


def spoly_det(nodes: NodeSet, a: int, b: int) -> int:
    """b^{N(N-1)} det[S_k^{(a/b)}(n_l)], k = 0..N-1: Bareiss on the integer
    rows `spoly_scaled` gives, row k being b^{2k} times the S-basis row."""
    return _bareiss([[spoly_scaled(k, a, b, n) for n in nodes] for k in range(len(nodes))])


def gapped_vandermonde(N: int, gap: int) -> int:
    """Vandermondian of {0,...,N-1}\\{gap}: equals V_{N-1} * C(N-1, gap), exact."""
    if not 0 <= gap <= N - 1:
        raise ValueError("gap must lie in [0, N-1]")
    return math.prod(math.factorial(k) for k in range(N - 1)) * math.comb(N - 1, gap)


def gapped_vandermonde_S(N: int, gap: int, a: int, b: int) -> int:
    """S-basis Vandermondian of the same nodes at x = a/b on `spoly_det`'s scale,
    b^{(N-1)(N-2)} (x^2-1)^{(N-1)(N-2)/2} C(N-1, gap) = (a^2-b^2)^{(N-1)(N-2)/2} C(N-1, gap)."""
    if not 0 <= gap <= N - 1:
        raise ValueError("gap must lie in [0, N-1]")
    return (a * a - b * b) ** ((N - 1) * (N - 2) // 2) * math.comb(N - 1, gap)
