"""The paper's closed forms and cross-checks, which the tests compare the package with.

No command, solver path or oracle path of `nssgate` needs these: the solver
reaches T and p through the secular polynomial and the exact inverse of
C(n_l, j).  What is kept here is the paper's own route to p = 1/N^2 for the
minimal nodes {0..N-1}, so that the tests can hold the package to it:

- the exact coefficient matrix and the closed forms of det(a), the last-row
  cofactors and the numerator and denominator of p;
- the Jacobi polynomials P_k^{(0,beta)}, the explicit coefficients of S_k^{(x)}
  as a polynomial in n, and the weight sequences s_l in both forms.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from nssgate.determinants import NodeSet
from nssgate.polynomials import binomial, spoly_eval_exact


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


def coefficient_matrix_exact(nodes: NodeSet, T):
    """Exact-rational (a1, a2) row lists for real rational T; oracle path."""
    t = Fraction(T)
    N = len(nodes)
    a1 = [[t ** (n - N) * spoly_eval_exact(N, t, n) for n in nodes] for _ in range(N)]
    a2 = [[t ** (n - kk) * spoly_eval_exact(kk, t, n) for n in nodes] for kk in range(N)]
    return a1, a2


def det_closed_form(N: int, T: float) -> float:
    """det(a) = (T^2-1)^{N(N-1)/2} [2 - (1-T)^N] for minimal nodes {0..N-1}."""
    return (T * T - 1.0) ** (N * (N - 1) // 2) * (2.0 - (1.0 - T) ** N)


def cofactor_closed_form(N: int, l: int, T: float) -> float:
    """Last-row cofactor A_{N-1,l} (0-based) for minimal nodes.

    General-T form; the second term carries the factor [2-(1-T)^N] and is
    dropped once that bracket is below 1e-8 (at the optimal T the cancellation
    is exact and the remaining term is the whole answer).
    """
    if not 0 <= l <= N - 1:
        raise ValueError("l out of range")
    if T == 0.0 or (T == -1.0 and N > 1):
        raise ValueError("closed form has poles at T = 0 and T = -1")
    # T^{1-l} sum_p C(p,l) (T/(T+1))^p = T s_l, finite at T = -1 for N = 1
    # (A = -T = 1, matching the 1x1 cofactor convention)
    term1 = N * (T * T - 1.0) ** (N * (N - 1) // 2) * (-1.0) ** (1 - l) * T * weight_sequence(l, N, T)
    bracket = 2.0 - (1.0 - T) ** N
    if abs(bracket) < 1e-8:
        return term1
    term2 = (
        (-1.0) ** (N - l + 1)
        * (T * T - 1.0) ** ((N - 2) * (N - 1) // 2)
        * bracket
        * math.comb(N - 1, l)
        * T ** (N - l - 1)
    )
    return term1 + term2


def numerator_closed_form(N: int, T: float) -> float:
    """sum_l a1[N-1, l] A_{N-1,l} = N T (T^2-1)^{N(N-1)/2} at the optimal T.

    det(a) = sum_l (a1 + a2)[N-1, l] A_{N-1,l} vanishes at the root, so the a2
    contraction that enters p is the negative of this value."""
    return N * T * (T * T - 1.0) ** (N * (N - 1) // 2)


def denominator_closed_form(N: int, T: float) -> float:
    """(sum_l |A_{N-1,l}|)^2 = N^4 T^2 (T^2-1)^{N(N-1)} at the optimal T."""
    return N**4 * T * T * (T * T - 1.0) ** (N * (N - 1))
