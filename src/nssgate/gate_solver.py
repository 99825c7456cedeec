"""Coefficient matrix of the conditional sign-shift gate, its roots and weights.

The gate exists at transmission values T where the N x N coefficient matrix
a = a1 + a2 becomes singular; the ancilla/projection weights then come from
its null vector v, and the post-selection success probability is
p = 1/||v||_1^2 once v is scaled to a2 v = 1 (`success_probability`).  For
the minimal photon numbers {0..N-1} everything is known in closed form:
det(a) = (T^2-1)^{N(N-1)/2} [2-(1-T)^N], the root T = 1-2^{1/N}, and
p = 1/N^2.

For any node set a2 = D_T B(T) C' D_n factors into diagonal powers of T, a
scaled Pascal matrix and the integer matrix C'[j, l] = C(n_l, j), and
a1 = 1 f^T is rank one.  So det(a) = det(a2) P(T) / T^N, with P a
polynomial of degree 2N with exact rational coefficients
(`secular_polynomial`), and the null vector is a2^{-1} 1 in closed form.
The gate transmissions are the real roots of P, isolated exactly from its
integer coefficients; no matrix is built on the way from the node set to
the gate.

Every matrix element is T^{n-k} S_k^{(T)}(n), with S from `polynomials`;
the Fock oracle checks the gate through `bs_diagonal_element`.
`build_coefficient_matrix` and the exact-only `cofactors` are references for
the tests, and stay in the package only because perfbench/run.py traces them
by their module path.

T is real throughout: `BeamSplitter` stores it as a float and raises
ValueError for a T with a non-zero imaginary part.

Matrix rows are indexed k = 1..N but stored 0-based, so row index kk
corresponds to photon level k = kk+1 and a2[kk, l] is the beam-splitter
diagonal element for photon level kk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .determinants import NodeSet, exact_det
from .polynomials import spoly_eval

__all__ = [
    "BeamSplitter",
    "GateSolution",
    "bs_diagonal_element",
    "build_coefficient_matrix",
    "optimal_transmission",
    "secular_polynomial",
    "find_transmission",
    "binomial_inverse_rows",
    "cofactors",
    "success_probability",
]

# neither the root search nor success_probability needs this cap (with it
# lifted, minimal N = 15..40 give |p N^2 - 1| <= 5.3e-15); it keeps N within
# what the tests check against the exact-rational and Fock oracles
PRECISION_CAP = 14

BISECT_TOL = 1e-13  # relative width to which find_transmission brackets each root


@dataclass(frozen=True)
class BeamSplitter:
    """Active beam splitter with real transmission T.

    Any real number type is accepted and stored as a float; a T with a
    non-zero imaginary part, |T| > 1 or NaN raises ValueError, a string
    TypeError."""

    T: float

    def __post_init__(self):
        if isinstance(self.T, (str, bytes)):
            raise TypeError(f"the beam splitter takes a number, got {self.T!r}")
        t = complex(self.T)
        if t.imag != 0.0:
            raise ValueError(f"the beam splitter takes real T only, got {self.T!r}")
        if not abs(t) <= 1.0 + 1e-12:  # NaN fails this too
            raise ValueError(f"|T| must not exceed 1, got {self.T!r}")
        object.__setattr__(self, "T", t.real)

    @property
    def r(self) -> float:
        """Reflection magnitude sqrt(1 - T^2)."""
        return math.sqrt(max(0.0, 1.0 - self.T**2))


def bs_diagonal_element(k: int, n: int, bs: BeamSplitter) -> float:
    """Fock-diagonal beam-splitter amplitude <k, n| U |k, n> for real T:

        T^{n-k} P_k^{(0,n-k)}(2T^2-1) = T^{n-k} S_k^{(T)}(n).

    S is summed exactly and rounded once (`spoly_eval`), which avoids the
    cancellation of its alternating terms, and T^{n-k} is one float power.
    """
    if k < 0 or n < 0:
        raise ValueError("photon counts must be non-negative")
    t = bs.T
    if t == 0 and n < k:
        raise ValueError("element has a pole at T = 0 for n < k")
    return t ** (n - k) * spoly_eval(k, t, n)


def build_coefficient_matrix(nodes: NodeSet, bs: BeamSplitter) -> tuple:
    """The float pair (a1, a2), a1[kk, l] = <N, n_l|U|N, n_l> and a2[kk, l] =
    <kk, n_l|U|kk, n_l> for stored row index kk = 0..N-1 (photon level k-1 of
    the 1-based row k); the coefficient matrix is a = a1 + a2."""
    if bs.T == 0:
        raise ValueError("T = 0 is excluded (poles in the matrix elements)")
    N = len(nodes)
    a1 = np.array([[bs_diagonal_element(N, n, bs) for n in nodes]] * N)
    a2 = np.array([[bs_diagonal_element(kk, n, bs) for n in nodes] for kk in range(N)])
    return a1, a2


def optimal_transmission(N: int) -> float:
    """The analytic root T = 1 - 2^{1/N} of the minimal-node determinant."""
    return 1.0 - 2.0 ** (1.0 / N)


def _polymul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _forward_differences(values: list) -> list:
    """Delta^j q(0), j = 0..len-1, from the values q(0), q(1), ...: the
    coefficients of q in the binomial basis C(x, j) when deg q < len(values)."""
    return [sum((-1) ** (j - i) * math.comb(j, i) * values[i] for i in range(j + 1)) for j in range(len(values))]


def secular_polynomial(nodes: NodeSet) -> list:
    """Integer coefficients, lowest power first, of N! P(t), where

        det(a1 + a2) = det(a2) P(t) / t^N,
        P(t) = t^N [2 - (1-t)^N] + (t-1)^N (t+1) sum_j z_j (-t)^j (1+t)^{N-1-j}.

    a2 = D_t^{-1} B(t) C' D_n with C'[j, l] = C(n_l, j) (j = 0..N-1) and B a
    scaled Pascal matrix, and a1 = 1 f^T is rank one, so the matrix-determinant
    lemma gives det(a) = det(a2) (1 + f^T a2^{-1} 1).  z solves C'^T z = h with
    h_l = C(n_l, N): q(x) = sum_j z_j C(x, j) interpolates C(x, N) on the nodes,
    so q(x) = C(x, N) - prod_l (x - n_l) / N!, and z_j is the j-th forward
    difference of q at 0.  z = 0 for the minimal nodes, where P is the paper's
    t^N [2 - (1-t)^N].  det(a2) vanishes only at T = +-1, which P leaves out.
    """
    N = len(nodes)
    z = _forward_differences([-math.prod(i - n for n in nodes) for i in range(N)])  # N! z_j
    zsum = [sum((-1) ** j * z[j] * math.comb(N - 1 - j, i - j) for j in range(i + 1)) for i in range(N)]
    t_minus_1 = [math.comb(N, i) * (-1) ** (N - i) for i in range(N + 1)]  # (t-1)^N
    tail = _polymul(_polymul(zsum, t_minus_1), [1, 1])
    head = [0] * N + [math.factorial(N) * (2 * (i == 0) - math.comb(N, i) * (-1) ** i) for i in range(N + 1)]
    return [h + c for h, c in zip(head, tail)]


def _exact_sign(coeffs: list, t: float) -> int:
    """Sign of the integer polynomial at the float t, in exact arithmetic."""
    m, q = t.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(coeffs):  # acc = q^d P(m/q) at the end, and q > 0
        acc = acc * m + c * scale
        scale *= q
    return (acc > 0) - (acc < 0)


def _bisect_root(coeffs: list, lo: float, hi: float, slo: int) -> float:
    while hi - lo > BISECT_TOL * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        smid = _exact_sign(coeffs, mid)
        if smid == 0:
            return mid
        lo, hi = (mid, hi) if smid == slo else (lo, mid)
    return 0.5 * (lo + hi)


def _shift(coeffs: list, a: int = 1) -> list:
    """Integer Taylor shift: the coefficients of p(x + a) from those of p(x)."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _real_roots(coeffs: list) -> list:
    """Ascending real roots in [-1, 1], 0 excluded, of the integer polynomial
    (lowest power first) at which it changes sign or vanishes exactly at a
    bisection point (Collins-Akritas bisection with Descartes' rule).

    With t^m divided out, q(x) = p(2x - 1) on [0, 1].  The sign variations v
    of (1+y)^d q(1/(1+y)) bound the roots inside an interval: v = 0 drops
    it; v = 1 hands its one simple root to `_bisect_root`, with the sign of p
    just inside the left end, which bisects it to the relative width
    BISECT_TOL; otherwise it is halved, its midpoint kept if q vanishes
    there, until it is narrower than BISECT_TOL in absolute width, where it
    is kept if v is odd (p changes sign across it; an even-multiplicity root
    ends here).
    """
    p = coeffs[next(i for i, c in enumerate(coeffs) if c) :]
    roots = [t for t in (-1.0, 1.0) if _exact_sign(p, t) == 0]
    stack = [([b << i for i, b in enumerate(_shift(p, -1))], 0, 0)]  # (q, k, c): x in [c, c+1] / 2^k
    while stack:
        q, k, c = stack.pop()
        signs = [b > 0 for b in _shift(q[::-1]) if b]
        v = sum(a != b for a, b in zip(signs, signs[1:]))
        lo, hi = ((2 * e - (1 << k)) / (1 << k) for e in (c, c + 1))
        if v == 1:
            roots.append(_bisect_root(p, lo, hi, 1 if signs[-1] else -1))
        elif v > 1 and hi - lo >= BISECT_TOL:
            left = [b << (len(q) - 1 - i) for i, b in enumerate(q)]  # 2^d q(x/2)
            right = _shift(left)
            if right[0] == 0:
                roots.append(0.5 * (lo + hi))
            stack += [(right, k + 1, 2 * c + 1), (left, k + 1, 2 * c)]
        elif v % 2:
            roots.append(0.5 * (lo + hi))
    return sorted(roots)


def find_transmission(nodes: NodeSet) -> list:
    """Real roots of det(a(T)) on [-1, 1], T = 0 excluded, ascending: those of
    the secular polynomial P (`secular_polynomial`), isolated exactly and
    completely, each bisected with exact signs to the relative width
    BISECT_TOL.  T = +-1, where det(a2) vanishes with det(a), are roots only
    where P vanishes, as at T = -1 for N = 1.
    """
    return _real_roots(secular_polynomial(nodes))


def cofactors(matrix, row: int):
    """Cofactor row A_{row, l} (row is 0-based, 0..N-1): signed minors of the
    float matrix, each determinant taken in exact rational arithmetic (the
    empty minor of a 1x1 matrix gives 1)."""
    a = np.asarray(matrix)
    N = a.shape[0]
    if a.shape != (N, N):
        raise ValueError("matrix must be square")
    if np.iscomplexobj(a):
        raise ValueError("cofactors takes a real matrix")
    if not 0 <= row < N:
        raise ValueError("row out of range")
    rows = [[Fraction(v) for v in r] for r in np.asarray(a, dtype=float)]
    out = []
    for l in range(N):
        minor = [[rows[i][j] for j in range(N) if j != l] for i in range(N) if i != row]
        out.append((-1) ** (row + l) * float(exact_det(minor)))
    return np.array(out)


def binomial_inverse_rows(nodes: NodeSet) -> list:
    """Integer pairs (M_l, D_l) with row l of C'^{-1} equal to M_l / D_l, where
    C'[j, l] = C(n_l, j) for j = 0..N-1.

    D_l = prod_{m != l} (n_l - n_m), and M_l lists the coefficients of
    prod_{m != l} (x - n_m) in the binomial basis C(x, j), so that
    sum_j M_l[j] C(n_k, j) = D_l delta_{lk}.
    """
    rows = []
    for n in nodes:
        others = [m for m in nodes if m != n]
        M = _forward_differences([math.prod(i - m for m in others) for i in range(len(nodes))])
        rows.append((M, math.prod(n - m for m in others)))
    return rows


@dataclass(frozen=True)
class GateSolution:
    """Solved gate: transmission, ancilla amplitudes, projection weights and p."""

    N: int
    T: float
    nodes: NodeSet
    alphas: tuple
    gammas: tuple
    p: float


def success_probability(nodes: NodeSet, T) -> GateSolution:
    """Weights and post-selection probability of the gate at a root T of det(a).

    a v = 0 with a1 = 1 f^T makes a2 v a constant vector, so v is a multiple
    of a2^{-1} 1 = D_n^{-1} C'^{-1} y with y_j = s^j and s = -T/(1+T), and
    C'^{-1} is exact (`binomial_inverse_rows`).  Scaled to a2 v = 1, the
    weights alpha_l gamma_l = v_l / ||v||_1 give every level k < N the
    amplitude lambda_k = +1/||v||_1, and at a root lambda_N = f^T v / ||v||_1
    = -1/||v||_1, so p = 1/||v||_1^2.  v is computed times the positive
    |T|^{max n}, which forms no negative power of T.

    Needs 0 < |T| < 1; T = -1 is allowed for N = 1 (p = 1), where only y_0 = 1
    enters.  Any other T raises ValueError.
    """
    t = BeamSplitter(T).T
    N = len(nodes)
    if not (0.0 < abs(t) < 1.0 or (N == 1 and t == -1.0)):
        raise ValueError("success_probability needs 0 < |T| < 1 (or T = -1 for N = 1)")
    s = -t / (1.0 + t) if N > 1 else 0.0
    top = max(nodes)
    sign = -1.0 if t < 0 else 1.0
    v = []
    try:
        for n, (M, D) in zip(nodes, binomial_inverse_rows(nodes)):
            acc = float(M[-1])
            for c in reversed(M[:-1]):
                acc = acc * s + c
            v.append(acc / D * abs(t) ** (top - n) * sign**n)
    except OverflowError:
        raise ValueError("photon numbers too large: the exact inverse of C(n_l, j) has entries beyond the float range") from None
    total = math.fsum(abs(x) for x in v)
    mags = [math.sqrt(abs(x) / total) for x in v]
    return GateSolution(
        N=N,
        T=t,
        nodes=nodes,
        alphas=tuple(math.copysign(m, x) for m, x in zip(mags, v)),
        gammas=tuple(mags),
        p=(abs(t) ** top / total) ** 2,
    )
