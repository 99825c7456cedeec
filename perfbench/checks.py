"""Output checks whose reference values owe nothing to the nssgate package.

Everything here is stdlib only and is derived from textbook definitions:

- the paper's closed forms T = 1 - 2^{1/N} and p = 1/N^2 for the minimal
  ancilla {0, ..., N-1};
- the two-mode beam splitter as a mode transformation a+ -> T a+ + r b+,
  b+ -> -r a+ + T b+ (real T, r^2 = 1 - T^2), expanded by hand in exact
  rationals to give <k, n|U|k, n>;
- a fraction-free (Bareiss) determinant over Fractions;
- the S polynomials from their three-term recursion
  k S_k = [(x^2-1)(n+k) + 2k-1] S_{k-1} - (k-1) x^2 S_{k-2}, S_{-1} = 0, S_0 = 1,
  and the S-basis product rule det[S_k(n_l)] = V(n) prod_k (x^2-1)^k / k!.

Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

SWEEP_T_TOL = 1e-12
SWEEP_P_TOL = 1e-10
GATE_TOL = 1e-8
IDENTITY_TOL = 1e-9


def optimal_transmission(N: int) -> float:
    """The paper's optimal transmission 1 - 2^{1/N} for the minimal ancilla."""
    return 1.0 - 2.0 ** (1.0 / N)


def check_sweep(doc: dict, n_max: int) -> list:
    """A `sweep --n-min 1 --n-max n_max` JSON document against the closed forms."""
    rows = doc.get("rows", [])
    problems = []
    if [r.get("N") for r in rows] != list(range(1, n_max + 1)):
        problems.append(f"rows cover N = {[r.get('N') for r in rows]}, want 1..{n_max}")
    for r in rows:
        N = r["N"]
        if r["T_im"] != 0.0:
            problems.append(f"N={N}: T has imaginary part {r['T_im']!r}")
        if not abs(r["T_re"] - optimal_transmission(N)) <= SWEEP_T_TOL:
            problems.append(f"N={N}: T = {r['T_re']!r}, closed form {optimal_transmission(N)!r}")
        if not abs(r["p"] * N * N - 1.0) <= SWEEP_P_TOL:
            problems.append(f"N={N}: p N^2 = {r['p'] * N * N!r}, want 1")
    return problems


def fock_amplitude(k: int, n: int, t: Fraction) -> Fraction:
    """<k, n|U|k, n> for the real beam splitter of transmission t, exactly.

    (T a+ + r b+)^k (-r a+ + T b+)^n / sqrt(k! n!) keeps a+^k b+^n when i
    creators come from the first factor's a+ and k-i from the second's, so
    the amplitude is sum_i C(k,i) C(n,k-i) T^{n-k+2i} (-r^2)^{k-i}.
    """
    mr2 = t * t - 1
    total = Fraction(0)
    for i in range(max(0, k - n), k + 1):
        total += math.comb(k, i) * math.comb(n, k - i) * t ** (n - k + 2 * i) * mr2 ** (k - i)
    return total


def level_amplitudes(nodes, weights, t: Fraction) -> list:
    """lambda_k = sum_l w_l <k, n_l|U|k, n_l> for k = 0..N, exactly."""
    N = len(nodes)
    return [sum(w * fock_amplitude(k, n, t) for w, n in zip(weights, nodes)) for k in range(N + 1)]


def check_gate(nodes, T: float, alphas, gammas, p: float) -> list:
    """The sign-shift property of a solved gate, re-derived in exact rationals.

    With ancilla amplitudes alpha_l and projection weights gamma_l the signal
    level k is multiplied by lambda_k; the gate works when lambda_k =
    lambda_0 for k < N, lambda_N = -lambda_0 and p = lambda_0^2.
    """
    weights = [Fraction(float(a)) * Fraction(float(g)) for a, g in zip(alphas, gammas)]
    lam = level_amplitudes(nodes, weights, Fraction(float(T)))
    lam0 = lam[0]
    if lam0 == 0:
        return [f"nodes {list(nodes)}: lambda_0 = 0 at T = {T!r}"]
    problems = []
    for k, lk in enumerate(lam):
        want = -lam0 if k == len(nodes) else lam0
        err = float(abs(lk - want) / abs(lam0))
        if not err <= GATE_TOL:
            problems.append(f"nodes {list(nodes)}: lambda_{k} off by {err:.3g} (relative)")
    p_err = abs(float(lam0 * lam0) / p - 1.0) if p > 0 else math.inf
    if not p_err <= GATE_TOL:
        problems.append(f"nodes {list(nodes)}: p = {p!r} but lambda_0^2 = {float(lam0 * lam0)!r}")
    return problems


def check_signal(coefficients, out_coefficients, prob: float, p: float) -> list:
    """One signal through the Fock sectors: the output must be the input with
    c_N negated (fidelity error <= 1e-8) at the gate's probability p."""
    target = list(coefficients[:-1]) + [-coefficients[-1]]
    overlap = sum(complex(a).conjugate() * complex(b) for a, b in zip(target, out_coefficients))
    problems = []
    fid_err = 1.0 - abs(overlap) ** 2
    if not fid_err <= GATE_TOL:
        problems.append(f"fidelity error {fid_err:.3g}")
    p_err = abs(prob / p - 1.0) if p > 0 else math.inf
    if not p_err <= GATE_TOL:
        problems.append(f"post-selection probability {prob!r} against p = {p!r}")
    return problems


def bareiss_det(rows) -> Fraction:
    """Fraction-free Gaussian elimination over exact rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    sign, prev = 1, Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) / prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1] if n else Fraction(1)


def coefficient_det(nodes, t: Fraction) -> Fraction:
    """det(a1 + a2) with a1[k, l] = <N, n_l|U|N, n_l> and a2[k, l] = <k, n_l|U|k, n_l>."""
    N = len(nodes)
    top = [fock_amplitude(N, n, t) for n in nodes]
    return bareiss_det([[top[l] + fock_amplitude(k, n, t) for l, n in enumerate(nodes)] for k in range(N)])


def check_bracket(nodes, lo: Fraction, hi: Fraction) -> list:
    """det(a) changes sign on [lo, hi], so a real root lies there."""
    d_lo, d_hi = coefficient_det(nodes, lo), coefficient_det(nodes, hi)
    if (d_lo < 0) != (d_hi < 0) and d_lo != 0 and d_hi != 0:
        return []
    return [f"nodes {list(nodes)}: det(a) keeps its sign on [{lo}, {hi}]"]


def s_poly(k: int, x: Fraction, n) -> Fraction:
    """S_k^{(x)}(n) from the three-term recursion, exactly."""
    x2 = x * x
    prev, cur = Fraction(0), Fraction(1)
    for j in range(1, k + 1):
        prev, cur = cur, (((x2 - 1) * (n + j) + 2 * j - 1) * cur - (j - 1) * x2 * prev) / j
    return cur


def s_product_rule(nodes, x: Fraction) -> Fraction:
    """V(n) prod_{k<N} (x^2-1)^k / k!, the S-basis Vandermonde determinant."""
    v = 1
    for j, nj in enumerate(nodes):
        for ni in nodes[:j]:
            v *= nj - ni
    out = Fraction(v)
    for k in range(len(nodes)):
        out *= (x * x - 1) ** k / math.factorial(k)
    return out


def relative_error(got, want) -> float:
    return abs(float(got) - float(want)) / max(abs(float(want)), 1e-300)
