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

Every matrix element is T^{n-k} S_k^{(T)}(n), with S from `polynomials`,
and T is real throughout (`BeamSplitter`).  Nothing limits N: the roots,
the weights and the elements are exact until one final rounding.  The
exact-only `cofactors` is a reference for the tests, and stays in the
package only because perfbench/run.py traces it by its module path.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal

from .determinants import NodeSet, _real_rows, exact_det
from .polynomials import spoly_column, spoly_scaled

__all__ = [
    "BeamSplitter",
    "GateSolution",
    "bs_diagonal_element",
    "build_coefficient_matrix",
    "optimal_transmission",
    "secular_polynomial",
    "find_transmission",
    "cofactors",
    "success_probability",
]

BISECT_TOL = 1e-13  # relative width to which find_transmission brackets each root

# success_probability's arithmetic: 34 digits over exponents of about +-10^18
DECIMAL_CONTEXT = decimal.Context(prec=34, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
DECIMAL_CONTEXT.traps[decimal.Underflow] = True  # a subnormal result would lose digits


@dataclass(frozen=True)
class BeamSplitter:
    """Active beam splitter with real transmission T.

    Any real number type is accepted and stored as a float; a T with a
    non-zero imaginary part, |T| > 1 or NaN raises ValueError, a string
    TypeError.  |T| is bounded on T as given, before a float could round it to 1."""

    T: float

    def __post_init__(self):
        if isinstance(self.T, (str, bytes)):
            raise TypeError(f"the beam splitter takes a number, got {type(self.T).__name__}")
        try:
            bounded = abs(self.T) <= 1  # NaN fails this too; no repr of T, which raises past 4300 digits
        except decimal.InvalidOperation:  # a Decimal NaN signals instead
            bounded = False
        if not bounded:
            raise ValueError("|T| must not exceed 1")
        t = complex(self.T)
        if t.imag != 0.0:
            raise ValueError("the beam splitter takes real T only")
        object.__setattr__(self, "T", t.real)

    @property
    def r(self) -> float:
        """Reflection magnitude sqrt(1 - T^2)."""
        return math.sqrt(max(0.0, 1.0 - self.T**2))


def bs_diagonal_element(k: int, n: int, bs: BeamSplitter) -> float:
    """Fock-diagonal beam-splitter amplitude <k, n| U |k, n> for real T:

        T^{n-k} P_k^{(0,n-k)}(2T^2-1) = T^{n-k} S_k^{(T)}(n).

    With T = m/q and S^ = q^{2k} S_k^{(T)}(n) (`spoly_scaled`) the element is
    the one integer quotient m^{n-k} S^ / q^{n+k}, or S^ / (m^{k-n} q^{k+n})
    for n < k: exact at the float T (no cancellation) and rounded once.  An
    element of a unitary, it never overflows.
    """
    k, n = operator.index(k), operator.index(n)
    if k < 0 or n < 0:
        raise ValueError("photon counts must be non-negative")
    t = bs.T
    if t == 0 and n < k:
        raise ValueError("element has a pole at T = 0 for n < k")
    m, q = t.as_integer_ratio()
    return _diagonal_element(k, n, m, q, spoly_scaled(k, m, q, n))


def _diagonal_element(k: int, n: int, m: int, q: int, s: int) -> float:
    """T^{n-k} S_k^{(T)}(n) at T = m/q, m != 0 if n < k, from s = q^{2k} S_k^{(T)}(n), as one quotient."""
    if n >= k:
        return m ** (n - k) * s / q ** (n + k)
    return s / (m ** (k - n) * q ** (k + n))


def build_coefficient_matrix(nodes: NodeSet, bs: BeamSplitter) -> tuple:
    """The float pair (a1, a2) as lists of rows, a1[kk][l] = <N, n_l|U|N, n_l>
    and a2[kk][l] = <kk, n_l|U|kk, n_l> for stored row index kk = 0..N-1
    (photon level k-1 of the 1-based row k); the coefficient matrix is
    a = a1 + a2.  The Fock oracle's default `gate_amplitudes` contracts these
    rows with the weights: a2 gives the amplitudes of levels k < N, a1 that of
    level N.  T is split into m/q once for all elements, each node takes one
    `spoly_column` k = 0..N, and each element is `bs_diagonal_element`'s quotient."""
    if bs.T == 0:
        raise ValueError("T = 0 is excluded (poles in the matrix elements)")
    N = len(nodes)
    m, q = bs.T.as_integer_ratio()
    cols = ([_diagonal_element(k, n, m, q, s) for k, s in enumerate(spoly_column(N, m, q, n))] for n in nodes)
    rows = [list(row) for row in zip(*cols)]
    return [rows[N][:] for _ in range(N)], rows[:N]


def optimal_transmission(N: int) -> float:
    """The analytic root T = 1 - 2^{1/N} of the minimal-node determinant."""
    return 1.0 - 2.0 ** (1.0 / N)


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
    Additions only: a difference table gives N! z, and z_N = -N! is appended;
    N + 1 Horner passes "times (1+t), add (-1)^j z_j at t^j" give g(t) =
    sum_{j<=N} z_j (-t)^j (1+t)^{N-j}, and N passes "times (t-1)" over its
    nonzero coefficients give N! P = 2 N! t^N + (t-1)^N g(t).

    P has exactly one root in 0 < t < 1, a simple one, unless the nodes are
    minimal, where it has none.  N! z_j = (-1)^{N+j+1} j! a_j for j < N, with a_j
    the coefficients of prod_l (y + n_l) over y^{(j)} = y(y+1)...(y+j-1), all >= 0:
    y^{(k)} (y + n) = y^{(k+1)} + (n-k) y^{(k)}, and in increasing n_l, k <= l <= n_l.
    So R(y) = (1+y)^{2N} N! P(1/(1+y)) = 2 N! (1+y)^N - N! y^N - y^N sum_{j<N} j! a_j (2+y)^{N-j}
    is positive below y^N and non-positive above, its top coefficient negative
    unless all a_{j<N} = 0 (minimal nodes): one sign change, and y > 0 is 0 < t < 1.
    """
    N = len(nodes)
    f, g = math.factorial(N), []
    z = [-math.prod(i - n for n in nodes) for i in range(N)] + [-f]  # N! q(i), then z_N
    for j in range(1, N):  # difference table, in place: z[j] = N! Delta^j q(0)
        for i in range(N - 1, j - 1, -1):
            z[i] -= z[i - 1]
    for j, zj in enumerate(z):  # g = sum_{i<=j} z_i (-t)^i (1+t)^{j-i}
        g = [a + b for a, b in zip(g + [0], [0] + g)]
        g[j] += -zj if j % 2 else zj
    lo, out = next(i for i, c in enumerate(g) if c), g + [0] * N  # g(-1) = -N!, so g != 0
    for d in range(N + 1, 2 * N + 1):  # times (t - 1), on out of degree < d, zero below t^lo
        out[lo : d + 1] = [a - b for a, b in zip([0] + out[lo:d], out[lo : d + 1])]
    out[N] += 2 * f
    return out


def _exact_sign(coeffs: list, t: float) -> int:
    """Sign of the integer polynomial at the float t, in exact arithmetic."""
    m, q = t.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(coeffs):  # acc = q^d P(m/q) at the end, and q > 0
        acc = acc * m + c * scale
        scale *= q
    return (acc > 0) - (acc < 0)


def _float_root(f: list, lo: float, hi: float) -> float:
    """Newton's method on the float polynomial f (lowest power first) from the
    midpoint of (lo, hi); a step that leaves (lo, hi) becomes a half-step
    towards the end it crosses.  Stops once a step is below BISECT_TOL |x| / 8,
    or after 16 steps."""
    x = 0.5 * (lo + hi)
    for _ in range(16):
        p = dp = 0.0
        for c in reversed(f):  # Horner for f and f'
            dp = dp * x + p
            p = p * x + c
        if not dp:
            break
        step = p / dp
        nx = x - step
        if not lo < nx < hi:
            nx = 0.5 * (x + (lo if nx <= lo else hi))
        elif abs(step) <= BISECT_TOL * abs(x) / 8:
            return nx
        x = nx
    return x


def _bisect_root(coeffs: list, f: list, lo: float, hi: float, slo: int) -> float:
    """The one simple root in (lo, hi), sign slo just inside lo, bisected with
    exact signs to the relative width BISECT_TOL.  If the exact signs at
    L, H = x -+ BISECT_TOL |x| around the float root x (`_float_root` on the
    float image f) are slo and -slo, the root lies in (L, H), and a midpoint
    outside it takes its sign from that certificate; otherwise (L, H) = (lo, hi)
    and every midpoint's sign is computed.  Either way the brackets, and so
    the returned float, are those of exact signs at every midpoint."""
    x = _float_root(f, lo, hi)
    d = BISECT_TOL * abs(x)
    L, H = x - d, x + d
    if not (lo < L and H < hi and _exact_sign(coeffs, L) == slo and _exact_sign(coeffs, H) == -slo):
        L, H = lo, hi
    while hi - lo > BISECT_TOL * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        smid = slo if mid <= L else -slo if mid >= H else _exact_sign(coeffs, mid)
        if smid == 0:
            return mid
        lo, hi = (mid, hi) if smid == slo else (lo, mid)
    return 0.5 * (lo + hi)


def _shift(coeffs: list) -> list:
    """Integer Taylor shift: the coefficients of p(x + 1) from those of p(x)."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _real_roots(coeffs: list) -> list:
    """Ascending real roots in [-1, 1], 0 excluded, of the integer polynomial
    (lowest power first) at which it changes sign or vanishes exactly at a
    bisection point (Collins-Akritas bisection with Descartes' rule).

    With t^m divided out, q(x) = p(2x - 1) on [0, 1]: a reflection and one
    Taylor shift, q_i = (-2)^i [p~(1 + y)]_i with p~(y) = p(-y).  The sign
    variations v of (1+y)^d q(1/(1+y)) bound the roots inside an interval:
    v = 0 drops it; v = 1 hands its one simple root to `_bisect_root`, with
    the sign of p just inside the left end; otherwise it is halved, its
    midpoint kept if q vanishes there, until it is narrower than BISECT_TOL
    in absolute width, where it is kept if v is odd (p changes sign across
    it; an even-multiplicity root ends here).  The float image f of p is p
    times one power of two, taken once, with every |f_i| < 2^e, e = 1022 - 2
    bitlen(d + 1): |f'| <= d (d + 1) 2^e < 2^1022 on [-1, 1], so Newton's
    method overflows at no degree, and the low f_i stay out of the subnormal
    range, where from minimal N of about 1030 they would lose the bits that
    the certificate needs.
    """
    p = coeffs[next(i for i, c in enumerate(coeffs) if c) :]
    sh = max(c.bit_length() for c in p) - 1022 + 2 * len(p).bit_length()
    f = [c / (1 << sh) if sh > 0 else float(c << -sh) for c in p]
    roots = [t for t in (-1.0, 1.0) if _exact_sign(p, t) == 0]
    flip = _shift([-b if i % 2 else b for i, b in enumerate(p)])  # p~(1 + y), p~(y) = p(-y)
    stack = [([(-b if i % 2 else b) << i for i, b in enumerate(flip)], 0, 0)]  # (q, k, c): x in [c, c+1] / 2^k
    while stack:
        q, k, c = stack.pop()
        signs = [b > 0 for b in _shift(q[::-1]) if b]
        v = sum(a != b for a, b in zip(signs, signs[1:]))
        lo, hi = ((2 * e - (1 << k)) / (1 << k) for e in (c, c + 1))
        if v == 1:
            roots.append(_bisect_root(p, f, lo, hi, 1 if signs[-1] else -1))
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
    BISECT_TOL (most signs taken from a float root and its two-sign
    certificate, `_bisect_root`).  T = +-1, where det(a2) vanishes with
    det(a), are roots only where P vanishes, as at T = -1 for N = 1.
    """
    return _real_roots(secular_polynomial(nodes))


def cofactors(matrix, row: int) -> list:
    """Cofactor row A_{row, l} (row is 0-based, 0..N-1): signed minors of the
    float matrix, each determinant taken in exact rational arithmetic (the
    empty minor of a 1x1 matrix gives 1)."""
    rows = _real_rows(matrix, "cofactors")
    N = len(rows)
    if not 0 <= row < N:
        raise ValueError("row out of range")
    out = []
    for l in range(N):
        minor = [[rows[i][j] for j in range(N) if j != l] for i in range(N) if i != row]
        out.append((-1) ** (row + l) * float(exact_det(minor)))
    return out


def _weights(nodes: NodeSet, t) -> tuple:
    """u = C'^{-1} y, C'[j, l] = C(n_l, j) and y_j = s^j with s = -t/(1+t), for
    a rational or float t = m/q (y = (1,) for N = 1), as exact integer pairs
    (num_l, D_l) and one den = (q+m)^{N-1}: u_l = num_l / (D_l den).

    Row l of C'^{-1} lists the forward differences Delta^j f_l(0) over f_l(n_l),
    with f_l(x) = prod_{m != l} (x - n_m).  For any f of degree < N,
    sum_j Delta^j f(0) s^j = sum_{i<N} c_i f(i), where c_i are the coefficients
    of y(x - 1) = sum_j s^j (x - 1)^j; so one c, taken over the common
    denominator (1+t)^{N-1}, serves every row.  The geometric sum gives
    (1+s-sx) y(x-1) = 1 - s^N (x-1)^N, which times (q+m)^N is the two-term
    recurrence q c_i = -m c_{i-1} + [i=0] (q+m)^N - (-m)^N C(N,i) (-1)^{N-i},
    each step an exact division by q.  F(x) = prod_m (x - n_m) gives
    f_l(i) = F(i) / (i - n_l) and vanishes at every node, so only c_{n_l} f_l(n_l)
    (if n_l < N) and G_l = sum c_g F(g) / (g - n_l) over the gaps g of {0..N-1}
    remain: num_l = c_{n_l} D_l + G_l with D_l = f_l(n_l) where G_l != 0, else
    D_l = 1, as on the minimal nodes, which have no gaps: there u = c / den."""
    N = len(nodes)
    m, q = t.as_integer_ratio()  # t = m/q, so s = -m/(q+m)
    c, w, e = [], (q + m) ** N, m**N  # w = -m c_{i-1} + [i=0] (q+m)^N, e = (-1)^i C(N,i) m^N
    for i in range(N):
        c.append((w - e) // q)
        w, e = -m * c[i], -e * (N - i) // (i + 1)
    gaps = [(g, c[g] * math.prod(g - n for n in nodes)) for g in set(range(N)).difference(nodes)]
    u = []
    for n in nodes:
        G = sum(cF // (g - n) for g, cF in gaps)
        D = math.prod(n - k for k in nodes if k != n) if G else 1  # f_l(n_l)
        u.append(((c[n] * D if n < N else 0) + G, D))
    return u, (q + m) ** (N - 1)


def _to_decimal(num: int, den: int) -> Decimal:
    """num/den in the current context, via a 128-bit quotient: Decimal(int) takes quadratic time."""
    shift = 128 + den.bit_length() - num.bit_length()
    return ((num << max(shift, 0)) // (den << max(-shift, 0))) * Decimal(2) ** -shift


@dataclass(frozen=True)
class GateSolution:
    """Solved gate: transmission, ancilla amplitudes, projection weights and p."""

    N: int
    T: float
    nodes: NodeSet
    alphas: tuple
    gammas: tuple
    p: float
    # p to 34 digits, in range where the float p underflows; scan_nodes ranks by it
    p_decimal: Decimal | None = field(default=None, compare=False, repr=False)


def success_probability(nodes: NodeSet, T) -> GateSolution:
    """Weights and post-selection probability of the gate at a root T of det(a).

    a v = 0 with a1 = 1 f^T makes a2 v a constant vector, so v is a multiple
    of a2^{-1} 1 = D_n^{-1} C'^{-1} y with y_j = s^j and s = -T/(1+T), and
    u = C'^{-1} y is exact (`_weights`).  Scaled to a2 v = 1, the weights
    alpha_l gamma_l = v_l / ||v||_1 give every level k < N the amplitude
    lambda_k = +1/||v||_1, and at a root lambda_N = f^T v / ||v||_1 =
    -1/||v||_1, so p = 1/||v||_1^2.  v_l den = num_l / (D_l T^{n_l}) is taken
    to 34 digits in `DECIMAL_CONTEXT`, p alone divides by den, and p and
    each weight are rounded once to a float; p's 34 digits stay as `p_decimal`.

    Needs 0 < |T| < 1; T = -1 is allowed for N = 1 (p = 1), where only y_0 = 1
    enters.  Any other T raises ValueError, and so do photon numbers whose
    power T^n leaves even the decimal exponent range.
    """
    t = BeamSplitter(T).T
    N = len(nodes)
    if not (0.0 < abs(t) < 1.0 or (N == 1 and t == -1.0)):
        raise ValueError("success_probability needs 0 < |T| < 1 (or T = -1 for N = 1)")
    try:
        with decimal.localcontext(DECIMAL_CONTEXT):
            tn = Decimal(t)
            u, den = _weights(nodes, t)
            v = [_to_decimal(num, D) / tn**n for n, (num, D) in zip(nodes, u)]  # v_l den
            total = sum(abs(x) for x in v)
            ratios = [float(x / total) for x in v]
            p = (_to_decimal(den, 1) / total) ** 2
    except ArithmeticError:
        raise ValueError("photon numbers too large: T^n leaves the decimal exponent range") from None
    mags = [math.sqrt(abs(r)) for r in ratios]
    alphas = tuple(math.copysign(m, r) for m, r in zip(mags, ratios))
    return GateSolution(N=N, T=t, nodes=nodes, alphas=alphas, gammas=tuple(mags), p=float(p), p_decimal=p)
