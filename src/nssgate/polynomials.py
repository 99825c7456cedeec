"""The S-polynomial family and the expansions over the S basis.

The S-polynomials S_k^{(x)}(n) are degree-k polynomials in the photon number n
that reparametrize P_k^{(0,n-k)}(2x^2-1).  At integer n, negative n included
(C(n, j) is then the extended binomial),

    S_k^{(x)}(n) = sum_j (-1)^j C(k,j) C(n,j) x^{2(k-j)} (1-x^2)^j.

For x = a/b, b^{2k} S_k^{(x)}(n) is one integer, defined by `spoly_scaled`:
the binomial products come from their ratio recurrence and the sum from
homogeneous Horner in a^2 and b^2-a^2, with no `Fraction`, `math.comb` or
power per term.  It gives every single value: `spoly_eval_exact` wraps it in
one `Fraction`, `spoly_eval` rounds it once by an integer quotient, and the
beam-splitter diagonal element of `gate_solver` is one more quotient.
`spoly_column` gives a whole column k = 0..K from the Jacobi three-term
recurrence in k, K exact divisions where K + 1 sums take O(K^2) steps; the
coefficient matrix, `spoly_det` and the `identities` S-basis expansions take
their S values from it.  The `identities` suites check the recurrence on
`spoly_scaled`'s integers, with `oneq_coefficient` and
`gapped_binomial_expand` scaled alike, so no check normalises a `Fraction`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = [
    "binomial",
    "integer_ratio",
    "spoly_scaled",
    "spoly_column",
    "spoly_eval",
    "spoly_eval_exact",
    "symmetric_s",
    "gapped_binomial_expand",
    "oneq_coefficient",
]


def binomial(a: int, m: int) -> int:
    """C(a, m) = a(a-1)...(a-m+1)/m! for integer a, negative a included; 0 for m < 0."""
    if m < 0:
        return 0
    return math.comb(a, m) if a >= 0 else (-1) ** m * math.comb(m - a - 1, m)


def integer_ratio(x) -> tuple:
    """(a, b), Python ints, with x = a/b exactly and b > 0.  numpy integers have
    no `as_integer_ratio`, so they go through `operator.index`; a string, which
    `Fraction` would parse, raises TypeError."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return operator.index(x), 1


def spoly_scaled(k: int, a: int, b: int, n: int) -> int:
    """b^{2k} S_k^{(a/b)}(n), an integer, at an integer n (a non-integer n,
    2.0 included, raises TypeError).  numpy integer k and n become Python ints.

    Horner over j of c_j a^{2(k-j)} (b^2-a^2)^j, with c_j = (-1)^j C(k,j) C(n,j)
    from c_{j+1} (j+1)^2 = -c_j (k-j)(n-j), an exact division.  For 0 <= n < k
    the terms past j = n vanish, and a^{2(k-n)} multiplies the rest once."""
    k, n = operator.index(k), operator.index(n)
    if k < 0:
        raise ValueError("order k must be non-negative")
    a2 = a * a
    d = b * b - a2
    top = k if n < 0 else min(k, n)
    acc = c = dpow = 1
    for j in range(top):
        c = -c * (k - j) * (n - j) // ((j + 1) * (j + 1))
        dpow *= d
        acc = acc * a2 + c * dpow
    return acc * a2 ** (k - top)


def spoly_column(K: int, a: int, b: int, n: int) -> list:
    """[b^{2k} S_k^{(a/b)}(n) for k = 0..K], each the integer `spoly_scaled`
    gives, from the three-term recurrence of P_k^{(0,n-k)}(2x^2-1) at x = a/b,

        k s_k = [(a^2-b^2)(n+k) + (2k-1) b^2] s_{k-1} - (k-1) a^2 b^2 s_{k-2},

    with s_0 = 1: one exact division by k a step.  K and n are checked as in
    `spoly_scaled`."""
    K, n = operator.index(K), operator.index(n)
    if K < 0:
        raise ValueError("order K must be non-negative")
    a2, b2 = a * a, b * b
    d, ab = a2 - b2, a2 * b2
    prev, cur = 0, 1
    col = [cur]
    for k in range(1, K + 1):
        prev, cur = cur, ((d * (n + k) + (2 * k - 1) * b2) * cur - (k - 1) * ab * prev) // k
        col.append(cur)
    return col


def spoly_eval(k: int, x, n: int) -> float:
    """S_k^{(x)}(n) as a float: `spoly_scaled` over b^{2k}, one correctly
    rounded integer quotient, so the bits of float(`spoly_eval_exact`).

    Its alternating terms still cancel to ~4 digits near |x| = 1 at k = 20,
    more than a double accumulator can absorb at 1e-10 relative accuracy."""
    k = operator.index(k)
    a, b = integer_ratio(x)
    return spoly_scaled(k, a, b, n) / b ** (2 * k)


def spoly_eval_exact(k: int, x, n: int) -> Fraction:
    """Exact S_k^{(x)}(n) at an integer n: `spoly_scaled` over b^{2k}, x = a/b."""
    k = operator.index(k)
    a, b = integer_ratio(x)
    return Fraction(spoly_scaled(k, a, b, n), b ** (2 * k))


def symmetric_s(x, p: int, j: int, N: int):
    """Expansion coefficient s_{N-j}(x; p; N) = C(p,j) x^{2(p-j)} (1-x^2)^{N-p},
    in the type of x (exact for an int or `Fraction` x).

    These solve (x^2-1)^N C(l,p) = sum_j (-1)^{N-j} s_{N-j} S_j^{(x)}(l).
    For p = N they reduce to C(N,j) x^{2(N-j)}.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if not 0 <= p <= N:
        raise ValueError("need 0 <= p <= N")
    if not 0 <= j <= N:
        raise ValueError("need 0 <= j <= N")
    if j > p:  # C(p, j) = 0, and x^{2(p-j)} would be a negative power
        return x - x  # the zero of x's type, +0.0 for a float
    return math.comb(p, j) * x ** (2 * (p - j)) * (1 - x * x) ** (N - p)


def gapped_binomial_expand(p: int, q: int, l: int) -> int:
    """The gap-q expansion of C(l,p)/(l-q) times p C(p-1,q), valid also at the
    removable point l = q: the integer

    sum_{r=q}^{p-1} (-1)^{p-1-r} C(r,q) C(l,r) = p C(p-1,q) (1/p!) prod_{k != q, k < p} (l-k)

    for every integer l.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if not 0 <= q < p:
        raise ValueError("need 0 <= q < p")
    return sum((-1) ** (p - 1 - r) * math.comb(r, q) * binomial(l, r) for r in range(q, p))


def oneq_coefficient(a: int, b: int, q: int, j: int, N: int) -> int:
    """The integer (N+1) C(N,q) b^{2(N-j)} s_{N-j}^{(q)}(a/b), as `spoly_scaled` scales S, of the
    gap-q expansion coefficient s_{N-j}^{(q)}(x; N):

    (x^2-1)^N C(l,N+1)/(l-q) = sum_j (-1)^{N-j} s_{N-j}^{(q)} S_j^{(x)}(l),
    s_{N-j}^{(q)} = [1/((N+1) C(N,q))] sum_r (-1)^{N-r} C(r,q) C(r,j)
                    x^{2(r-j)} (1-x^2)^{N-r}.
    """
    if not 0 <= q <= N:
        raise ValueError("need 0 <= q <= N")
    if not 0 <= j <= N:
        raise ValueError("need 0 <= j <= N")
    a2, nd = a * a, a * a - b * b
    top = max(q, j)
    # homogeneous Horner over r = N down to top: in a^2 and in -(b^2-a^2), which carries (-1)^{N-r}
    acc, ndpow = 0, 1
    for r in range(N, top - 1, -1):
        acc = acc * a2 + math.comb(r, q) * math.comb(r, j) * ndpow
        ndpow *= nd
    return acc * a2 ** (top - j)
