"""The paper's closed forms and cross-checks, which the tests compare the package with.

No command, solver path or oracle path of `nssgate` needs these: the solver
reaches T and p through the secular polynomial and the exact inverse of
C(n_l, j).  What is kept here is the paper's own route to p = 1/N^2 for the
minimal nodes {0..N-1}, so that the tests can hold the package to it:

- the exact coefficient matrix, built on S from the three-term recursion
  in Fractions rather than the package's integers, and the closed forms of det(a), the
  last-row cofactors and the numerator and denominator of p;
- the secular polynomial from its binomial sums, the route the package's
  difference table and Horner passes replace;
- the gate weights u = C'^{-1} y by the sum over all N points 0..N-1, which
  the package cuts to the node itself and the gaps of {0..N-1};
- the bisection of an isolated root with an exact sign at every midpoint,
  which the package replays from a float root and a two-sign certificate;
- the Jacobi polynomials P_k^{(0,beta)}, the explicit coefficients of S_k^{(x)}
  as a polynomial in n, the weight sequences s_l in both forms, and the
  gap-q expansion coefficient summed term by term;
- every Fock sector unitary U_0..U_M built whole, one sector from the last,
  which the package's column walk cuts to the columns a diagonal needs;
- helpers on lists of rows and on draws of `random.Random`: the
  element-wise sum of two matrices, the Gram defect max|U^T U - 1| and a
  normalized random signal;
- the judge of one signal through the gate, on tuples of amplitudes: the
  sign-flipped target c_N -> -c_N and the overlap |<a|b>|^2.  The package
  judges every signal at once from lambda (`nssgate verify`).

All of it runs on the standard library: ints, `Fraction` and plain floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from nssgate.determinants import NodeSet
from nssgate.fock_oracle import SECTOR_CAP
from nssgate.gate_solver import BISECT_TOL, BeamSplitter
from nssgate.polynomials import binomial


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


def spoly_column_exact(K: int, x, n: int) -> list:
    """[S_0, ..., S_K] at (x, n) in Fractions: S_0 = 1, S_1 = (x^2-1)(n+1) + 1,
    then the three-term recursion, which shares nothing with the package's S sum
    (`spoly_scaled`); `spoly_column` walks the same recursion on integers."""
    x2 = Fraction(x) ** 2
    out = [Fraction(0), Fraction(1)]  # S_{-1} = 0 starts the recursion at k = 1
    for k in range(1, K + 1):
        out.append((((x2 - 1) * (n + k) + 2 * k - 1) * out[-1] - (k - 1) * x2 * out[-2]) / k)
    return out[1:]


def oneq_coefficient_reference(a: int, b: int, q: int, j: int, N: int) -> int:
    """`oneq_coefficient` term by term, a power of a^2 and of b^2-a^2 in each:
    sum_{r >= max(q, j)} (-1)^{N-r} C(r,q) C(r,j) a^{2(r-j)} (b^2-a^2)^{N-r}."""
    a2, d = a * a, b * b - a * a
    rs = range(max(q, j), N + 1)
    return sum((-1) ** (N - r) * math.comb(r, q) * math.comb(r, j) * a2 ** (r - j) * d ** (N - r) for r in rs)


def coefficient_matrix_exact(nodes: NodeSet, T):
    """Exact-rational (a1, a2) row lists for real rational T, with S from
    `spoly_column_exact`; oracle path."""
    t = Fraction(T)
    N = len(nodes)
    cols = [spoly_column_exact(N, t, n) for n in nodes]
    a1 = [[t ** (n - N) * col[N] for n, col in zip(nodes, cols)] for _ in range(N)]
    a2 = [[t ** (n - kk) * col[kk] for n, col in zip(nodes, cols)] for kk in range(N)]
    return a1, a2


def _polymul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def secular_polynomial_reference(nodes: NodeSet) -> list:
    """N! P(t) of `nssgate.gate_solver.secular_polynomial` by its binomial sums:
    z_j = sum_i (-1)^{j-i} C(j, i) N! q(i), the sum over j expanded term by
    term, and (t-1)^N and t^N [2 - (1-t)^N] written out with `math.comb`."""
    N = len(nodes)
    values = [-math.prod(i - n for n in nodes) for i in range(N)]  # N! q(i)
    z = [sum((-1) ** (j - i) * math.comb(j, i) * values[i] for i in range(j + 1)) for j in range(N)]
    zsum = [sum((-1) ** j * z[j] * math.comb(N - 1 - j, i - j) for j in range(i + 1)) for i in range(N)]
    t_minus_1 = [math.comb(N, i) * (-1) ** (N - i) for i in range(N + 1)]  # (t-1)^N
    tail = _polymul(_polymul(zsum, t_minus_1), [1, 1])
    head = [0] * N + [math.factorial(N) * (2 * (i == 0) - math.comb(N, i) * (-1) ** i) for i in range(N + 1)]
    return [h + c for h, c in zip(head, tail)]


def bisect_root_reference(coeffs: list, lo: float, hi: float, slo: int) -> float:
    """The one simple root of the integer polynomial (lowest power first) in
    (lo, hi), with sign slo just inside lo, bisected to the relative width
    `BISECT_TOL` with the sign of q^d P(m/q) at every midpoint m/q; a midpoint
    where P vanishes is returned as it is."""
    d = len(coeffs) - 1
    while hi - lo > BISECT_TOL * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        m, q = mid.as_integer_ratio()
        value = sum(c * m**k * q ** (d - k) for k, c in enumerate(coeffs))
        if value == 0:
            return mid
        lo, hi = (mid, hi) if (value > 0) == (slo > 0) else (lo, mid)
    return 0.5 * (lo + hi)


def weights_reference(nodes: NodeSet, t) -> tuple:
    """`nssgate.gate_solver._weights` by the sum over every i < N: pairs
    (num_l, D_l) and den = (q+m)^{N-1} at t = m/q, u_l = num_l / (D_l den),
    with num_l = sum_i c_i f_l(i) and D_l = f_l(n_l) on every node, c_i the
    coefficients of y(x - 1) over (1+t)^{N-1} by Horner's rule in x - 1,
    f_l(i) = F(i) / (i - n_l) for i != n_l and F(x) = prod_m (x - n_m).
    `_weights` forms D_l only where a gap term enters, so the two agree as
    rationals num_l / D_l, not as integer pairs."""
    N = len(nodes)
    m, q = t.as_integer_ratio()
    c = []
    for j in reversed(range(N)):  # c <- c (x - 1) + y_j, y_j = (-m)^j (q+m)^{N-1-j}
        c = [a - b for a, b in zip([0] + c, c + [0])]
        c[0] += (-m) ** j * (q + m) ** (N - 1 - j)
    F = [math.prod(i - n for n in nodes) for i in range(N)]
    u = []
    for n in nodes:
        D = math.prod(n - k for k in nodes if k != n)
        u.append((sum(ci * (D if i == n else Fi // (i - n)) for i, (ci, Fi) in enumerate(zip(c, F))), D))
    return u, (q + m) ** (N - 1)


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


def sectors_reference(top: int, bs: BeamSplitter) -> list:
    """[U_0, ..., U_top], each a list of rows u[kp][k]: column k of U_M is
    (T a+ + r b+) on column k-1 of U_{M-1} over sqrt(k), and column 0 is
    (-r a+ + T b+) on column 0 over sqrt(M)."""
    if top < 0:
        raise ValueError("photon number must be non-negative")
    if top > SECTOR_CAP:
        raise ValueError(f"sector M={top} exceeds cap {SECTOR_CAP}")
    sq = [math.sqrt(j) for j in range(1, top + 1)]  # sqrt(j+1) for j = 0..top-1
    tsq, rsq = [bs.T * s for s in sq], [bs.r * s for s in sq]
    us = [[[1.0]]]
    for M in range(1, top + 1):
        # row j of the columns of U_{M-1} each column of U_M starts from, over sqrt(M), sqrt(1), ..., sqrt(M)
        prev = [[row[0] / sq[M - 1], *(x / s for x, s in zip(row, sq))] for row in us[-1]]
        u = [[0.0] * (M + 1) for _ in range(M + 1)]
        # a+ |j, M-1-j> = sqrt(j+1) |j+1, M-1-j> and b+ |j, M-1-j> = sqrt(M-j) |j, M-j>:
        # row j + 1 takes the a+ term, then row j adds the b+ term
        for j, row in enumerate(prev):
            u[j + 1][0] = -rsq[j] * row[0]  # column 0: (-r a+ + T b+)
            u[j][0] += tsq[M - 1 - j] * row[0]
            for k in range(1, M + 1):  # columns 1..M: (T a+ + r b+)
                u[j + 1][k] = tsq[j] * row[k]
                u[j][k] += rsq[M - 1 - j] * row[k]
        us.append(u)
    return us


def matrix_sum(a: list, b: list) -> list:
    """The element-wise sum of two matrices given as lists of rows."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def gram_defect(u: list) -> float:
    """max |U^T U - 1| over the entries of a real square matrix (a list of
    rows), each entry of U^T U one `math.fsum`."""
    cols = list(zip(*u))
    gram = ((math.fsum(x * y for x, y in zip(a, b)), i == j) for i, a in enumerate(cols) for j, b in enumerate(cols))
    return max(abs(g - one) for g, one in gram)


def random_signal(rng, levels: int) -> tuple:
    """Amplitudes complex(gauss, gauss) drawn from the `random.Random` rng,
    over the square root of the `math.fsum` of their squared parts."""
    c = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(levels)]
    norm = math.sqrt(math.fsum(x * x for z in c for x in (z.real, z.imag)))
    return tuple(z / norm for z in c)


def sign_flipped(c: tuple) -> tuple:
    """The ideal gate output (c_0, ..., c_{N-1}, -c_N) of amplitudes c."""
    return (*c[:-1], -c[-1])


def overlap_squared(a: tuple, b: tuple) -> float:
    """|<a|b>|^2 (global phase dropped) of two amplitude tuples; tuples of two
    lengths raise ValueError, where a plain zip would drop the extra levels."""
    return abs(sum(x.conjugate() * y for x, y in zip(a, b, strict=True))) ** 2
