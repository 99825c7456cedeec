"""Jacobi polynomials P_k^{(0,beta)}, the S-polynomial family and related identities.

The S-polynomials S_k^{(x)}(n) are degree-k polynomials in the photon number n
that reparametrize P_k^{(0,n-k)}(2x^2-1).  At integer n, negative n included
(C(n, j) is then the extended binomial),

    S_k^{(x)}(n) = sum_j (-1)^j C(k,j) C(n,j) x^{2(k-j)} (1-x^2)^j.

For x = a/b this is one integer sum over b^{2k} (`spoly_eval_exact`), which
`spoly_eval` rounds once; it is the package's one S kernel, and the
beam-splitter diagonal element of `gate_solver` is T^{n-k} S_k^{(T)}(n).  The
power-times-Jacobi route loses most of its digits in floats for k+n beyond
~15; it is kept, summed exactly the same way, as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "binomial",
    "jacobi",
    "spoly_eval",
    "spoly_eval_exact",
    "spoly_recursion_step",
    "SPoly",
    "elementary_sigma",
    "symmetric_s",
    "gapped_binomial_expand",
    "oneq_coefficient",
    "weight_sequence",
    "weight_sequence_resummed",
    "partial_binomial_sum",
]


def binomial(a: int, m: int) -> int:
    """C(a, m) = a(a-1)...(a-m+1)/m! for integer a, negative a included; 0 for m < 0."""
    if m < 0:
        return 0
    return math.comb(a, m) if a >= 0 else (-1) ** m * math.comb(m - a - 1, m)


def jacobi(k: int, beta: int, x) -> float:
    """P_k^{(0,beta)}(x) = sum_m C(k,m) C(k+beta+m, m) ((x-1)/2)^m at integer beta.

    The sum alternates violently for the arguments this package needs
    (x = 2T^2-1 with T near -0.4), so with x = a/b it is summed exactly, as
    integers over the common denominator (2b)^k, and rounded once.
    """
    if k < 0:
        raise ValueError("order k must be non-negative")
    xf = Fraction(x)
    a, b = xf.numerator, xf.denominator
    total = sum(math.comb(k, m) * binomial(k + beta + m, m) * (a - b) ** m * (2 * b) ** (k - m) for m in range(k + 1))
    return float(Fraction(total, (2 * b) ** k))


def spoly_eval(k: int, x: float, n: int) -> float:
    """S_k^{(x)}(n) as a float: the exact fused sum, rounded once.

    Its alternating terms still cancel to ~4 digits near |x| = 1 at k = 20,
    more than a double accumulator can absorb at 1e-10 relative accuracy."""
    return float(spoly_eval_exact(k, Fraction(x), n))


def spoly_eval_exact(k: int, x, n: int) -> Fraction:
    """Exact S_k^{(x)}(n) at an integer n (a non-integer n raises TypeError).

    With x = a/b it is the integer sum_j (-1)^j C(k,j) C(n,j) a^{2(k-j)}
    (b^2-a^2)^j over b^{2k}."""
    if k < 0:
        raise ValueError("order k must be non-negative")
    xf = Fraction(x)
    a2, b2 = xf.numerator**2, xf.denominator**2
    total = sum((-1) ** j * math.comb(k, j) * binomial(n, j) * a2 ** (k - j) * (b2 - a2) ** j for j in range(k + 1))
    return Fraction(total, b2**k)


def spoly_recursion_step(k: int, x: float, n: int, s_km1: float, s_km2: float) -> float:
    """Advance the three-term recursion

        k S_k = [(x^2-1)(n+k) + 2k-1] S_{k-1} - (k-1) x^2 S_{k-2}.

    Inputs are S_{k-1} and S_{k-2} at the same (x, n).
    """
    if k < 2:
        raise ValueError("recursion starts at k = 2")
    x2 = x * x
    return (((x2 - 1.0) * (n + k) + 2 * k - 1) * s_km1 - (k - 1) * x2 * s_km2) / k


def elementary_sigma(m: int, j: int) -> int:
    """Elementary symmetric polynomial sigma_j over the integers 1..m (exact)."""
    if not 0 <= j <= m:
        raise ValueError("need 0 <= j <= m")
    # DP over prod_{i=1..m} (t + i); sig[j] collects degree-j terms.
    sig = [1] + [0] * m
    for i in range(1, m + 1):
        for d in range(i, 0, -1):
            sig[d] = sig[d] + i * sig[d - 1]
    return sig[j]


@dataclass(frozen=True)
class SPoly:
    """S_k^{(x)} as an explicit polynomial in n (Eq. coefficients c_kp)."""

    order: int
    parameter: float
    coefficients: tuple  # c_k0 .. c_kk

    @classmethod
    def from_order(cls, k: int, x: float) -> "SPoly":
        """Build the coefficient list c_kp = sum_{m>=p} C(k,m) (x^2-1)^m sigma_{m-p}^{(m)} / m!."""
        if k < 0:
            raise ValueError("order k must be non-negative")
        u = x * x - 1.0
        coeffs = []
        for p in range(k + 1):
            c = 0.0
            for m in range(p, k + 1):
                c += math.comb(k, m) * u**m * elementary_sigma(m, m - p) / math.factorial(m)
            coeffs.append(c)
        return cls(order=k, parameter=x, coefficients=tuple(coeffs))

    def __call__(self, n: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    @property
    def leading(self) -> float:
        return self.coefficients[-1]


def symmetric_s(x: float, p: int, j: int, N: int) -> float:
    """Expansion coefficient s_{N-j}(x; p; N) = C(p,j) x^{2(p-j)} (1-x^2)^{N-p}.

    These solve (x^2-1)^N C(l,p) = sum_j (-1)^{N-j} s_{N-j} S_j^{(x)}(l).
    For p = N they reduce to C(N,j) x^{2(N-j)}.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if p > N:
        raise ValueError("need p <= N")
    if not 0 <= j <= N:
        raise ValueError("need 0 <= j <= N")
    b = binomial(p, j)
    if b == 0:
        return 0.0
    return float(b) * x ** (2 * (p - j)) * (1.0 - x * x) ** (N - p)


def gapped_binomial_expand(p: int, q: int, l: int) -> float:
    """The gap-q expansion of C(l,p)/(l-q), valid also at the removable point l = q.

    Returns (1/(p C(p-1,q))) sum_{r=0}^{p-1} (-1)^{p-1-r} C(r,q) C(l,r),
    which equals (1/p!) prod_{k != q, k < p} (l-k) for every l.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if not 0 <= q < p:
        raise ValueError("need 0 <= q < p")
    total = 0.0
    for r in range(q, p):
        total += (-1) ** (p - 1 - r) * math.comb(r, q) * float(binomial(l, r))
    return total / (p * math.comb(p - 1, q))


def oneq_coefficient(x: float, q: int, j: int, N: int) -> float:
    """Gap-q expansion coefficient s_{N-j}^{(q)}(x; N):

    (x^2-1)^N C(l,N+1)/(l-q) = sum_j (-1)^{N-j} s_{N-j}^{(q)} S_j^{(x)}(l),
    s_{N-j}^{(q)} = [1/((N+1) C(N,q))] sum_r (-1)^{N-r} C(r,q) C(r,j)
                    x^{2(r-j)} (1-x^2)^{N-r}.
    """
    if not 0 <= q <= N:
        raise ValueError("need 0 <= q <= N")
    if not 0 <= j <= N:
        raise ValueError("need 0 <= j <= N")
    u = 1.0 - x * x
    total = 0.0
    for r in range(max(q, j), N + 1):
        total += (-1) ** (N - r) * math.comb(r, q) * math.comb(r, j) * x ** (2 * (r - j)) * u ** (N - r)
    return total / ((N + 1) * math.comb(N, q))


def weight_sequence(l: int, N: int, T: float) -> float:
    """s_l = T^{-l} sum_{p=0}^{N-1} C(p,l) (T/(T+1))^p (defining sum).

    The p = 0 term is handled separately so the N = 1 case stays finite at
    T = -1.
    """
    if not 0 <= l <= N - 1:
        raise ValueError("need 0 <= l <= N-1")
    total = 1.0 if l == 0 else 0.0
    if N > 1:
        w = T / (T + 1.0)
        for p in range(max(l, 1), N):
            total += math.comb(p, l) * w**p
    return T ** (-l) * total


def weight_sequence_resummed(l: int, N: int, T: float) -> float:
    """Generating-function form s_l = (T+1)^{1-N} sum_{t=0}^{N-l-1} C(N,t) T^t."""
    if not 0 <= l <= N - 1:
        raise ValueError("need 0 <= l <= N-1")
    return (T + 1.0) ** (1 - N) * partial_binomial_sum(N - l - 1, N, T)


def partial_binomial_sum(j: int, N: int, T: float) -> float:
    """f_{j,N}(T) = sum_{t=0}^{j} C(N,t) T^t (non-negative for T >= -1/N)."""
    return sum(math.comb(N, t) * T**t for t in range(j + 1))
