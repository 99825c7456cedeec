"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 fixes the sign of every last-row cofactor A_{N-1,l} of the
minimal-node matrix at the optimal T = 1 - 2^{1/N}.  Both the numeric
cofactors and `cofactor_closed_form` carry the determinant scale
(T^2-1)^{N(N-1)/2}, which for |T| < 1 has sign (-1)^{N(N-1)/2}.  Divided by
that scale, the cofactors alternate as (-1)^l, so

    s_N (-1)^{N-l-1} A_{N-1,l} > 0   with   s_N = (-1)^{N(N-1)/2 + N + 1},

a global sign with the pattern + + - - + + - - ... in N.  This fixed sign
pattern is what turns sum_l |A_{N-1,l}| into |sum_l (-1)^l A_{N-1,l}| and
closes the denominator as N^4 T^2 (T^2-1)^{N(N-1)}.

The numerator closed form N T (T^2-1)^{N(N-1)/2} is the a1 contraction
sum_l a1[N-1,l] A_{N-1,l}.  The a1 and a2 contractions add up to det(a),
which vanishes at the root, so the a2 contraction that enters p is its
negative.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from nssgate.cli import _suite_a, _suite_b, _suite_c, main
from nssgate.determinants import NodeSet, exact_det
from nssgate.fock_oracle import SignalState, apply_gate, bs_sector_unitary
from nssgate.gate_solver import (
    BeamSplitter,
    build_coefficient_matrix,
    cofactors,
    find_transmission,
    optimal_transmission,
    success_probability,
)
from reference import (
    coefficient_matrix_exact,
    cofactor_closed_form,
    denominator_closed_form,
    det_closed_form,
    gram_defect,
    jacobi,
    matrix_sum,
    numerator_closed_form,
    overlap_squared,
    random_signal,
    sign_flipped,
)

SEED = 1905


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {tag} {detail}".rstrip())
    return ok


def _solve_pipeline(N):
    nodes = NodeSet.minimal(N)
    roots = find_transmission(nodes)
    t = min(roots, key=lambda r: abs(r - optimal_transmission(N)))
    return t, success_probability(nodes, t)


def test_criterion_1_scaling_law():
    t0 = time.perf_counter()
    worst_p = worst_t = 0.0
    for N in range(1, 11):
        t, sol = _solve_pipeline(N)
        worst_p = max(worst_p, abs(sol.p - 1.0 / N**2))
        worst_t = max(worst_t, abs(t - optimal_transmission(N)))
    elapsed = time.perf_counter() - t0
    ok = worst_p <= 1e-8 and worst_t <= 1e-10 and elapsed <= 5.0
    _report(1, "scaling law p=1/N^2, T=1-2^(1/N), N=1..10", ok,
            f"(|dp|={worst_p:.2e}, |dT|={worst_t:.2e}, {elapsed:.2f}s)")
    assert worst_p <= 1e-8
    assert worst_t <= 1e-10
    assert elapsed <= 5.0


def test_criterion_2_n2_landmark(capsys):
    code = main(["solve", "--n", "2"])
    out = capsys.readouterr().out
    sol = json.loads(out)["solution"]
    dt = abs(sol["T_re"] - (1 - math.sqrt(2)))
    dp = abs(sol["p"] - 0.25)
    ok = code == 0 and dt <= 1e-10 and dp <= 1e-8 and sol["p"] <= 0.25 + 1e-9
    with capsys.disabled():
        _report(2, "solve --n 2 reports T=1-sqrt(2), p=1/4", ok, f"(|dT|={dt:.2e}, |dp|={dp:.2e})")
    assert ok


def test_criterion_3_determinant_closed_form():
    rng = random.Random(SEED)
    worst = 0.0
    for N in range(1, 11):
        for _ in range(50):
            t = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 950), 1000)
            a1, a2 = coefficient_matrix_exact(NodeSet.minimal(N), t)
            det = float(exact_det([[a1[k][l] + a2[k][l] for l in range(N)] for k in range(N)]))
            want = det_closed_form(N, float(t))
            worst = max(worst, abs(det - want) / max(abs(want), 1e-300))
    ok = worst <= 1e-8
    _report(3, "det(a) matches closed form, 50 random T, N<=10", ok, f"(worst rel={worst:.2e})")
    assert ok


def test_criterion_4_matrix_element_oracle():
    rng = random.Random(SEED)
    worst_el = worst_u = 0.0
    for _ in range(20):
        t = Fraction(rng.choice([-1, 1]) * rng.randrange(30, 990), 1000)
        bs = BeamSplitter(float(t))
        for M in range(0, 21):
            sector = bs_sector_unitary(M, bs)
            worst_u = max(worst_u, gram_defect(sector))
            for k in range(M + 1):
                n = M - k
                jac = float(t) ** (n - k) * jacobi(k, n - k, float(2 * t * t - 1))
                worst_el = max(worst_el, abs(jac - sector[k][k]))
    ok = worst_el <= 1e-10 and worst_u <= 1e-10
    _report(4, "Jacobi-route elements vs sector oracle, k+n<=20", ok,
            f"(worst element={worst_el:.2e}, worst unitarity={worst_u:.2e})")
    assert worst_el <= 1e-10
    assert worst_u <= 1e-10


def test_criterion_5_end_to_end_gate():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    worst_fid = worst_p = 0.0
    for N in range(1, 7):
        _, sol = _solve_pipeline(N)
        for _ in range(100):
            signal = SignalState(random_signal(rng, N + 1))
            out, prob, _ = apply_gate(signal, sol)
            worst_fid = max(worst_fid, 1.0 - overlap_squared(out.coefficients, sign_flipped(signal.coefficients)))
            worst_p = max(worst_p, abs(prob - 1.0 / N**2))
    elapsed = time.perf_counter() - t0
    ok = worst_fid <= 1e-9 and worst_p <= 1e-8 and elapsed <= 10.0
    _report(5, "c_N -> -c_N on random signals, N=1..6", ok,
            f"(1-F={worst_fid:.2e}, |dp|={worst_p:.2e}, {elapsed:.2f}s)")
    assert worst_fid <= 1e-9
    assert worst_p <= 1e-8
    assert elapsed <= 10.0


def test_criterion_6_appendix_suites():
    results = []
    for suite in (_suite_a, _suite_b, _suite_c):
        results.extend(suite(random.Random(SEED)))
    worst = max(r["max_residual"] for r in results)
    exact = next(r for r in results if r["identity"] == "gapped_vandermonde_power_exact")
    ok = all(r["pass"] for r in results) and exact["max_residual"] == 0.0
    _report(6, "appendix identity suites (recursion/expansions/Vandermondians)", ok,
            f"(worst residual={worst:.2e})")
    assert ok


def test_criterion_7_cofactor_closed_forms():
    worst = 0.0
    for N in range(1, 11):
        for t in (optimal_transmission(N), -0.55, 0.4):
            a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
            cof = cofactors(matrix_sum(a1, a2), N - 1)
            for l in range(N):
                want = cofactor_closed_form(N, l, t)
                worst = max(worst, abs(cof[l] - want) / max(abs(want), 1e-300))
    ok = worst <= 1e-8
    _report(7, "cofactor closed forms match numeric cofactors, N<=10", ok, f"(worst rel={worst:.2e})")
    assert ok


def test_criterion_7_sign_positivity():
    # the global sign s_N is the sign of (T^2-1)^{N(N-1)/2} times (-1)^{N+1};
    # the inequality is strict on the closed form and on the exact cofactors
    # of the built matrix, so a single flipped cofactor fails the test
    bad = []
    for N in range(1, 13):
        t = optimal_transmission(N)
        s_n = (-1) ** (N * (N - 1) // 2 + N + 1)
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
        exact = cofactors(matrix_sum(a1, a2), N - 1)
        for l in range(N):
            sign = s_n * (-1) ** (N - l - 1)
            if not (sign * cofactor_closed_form(N, l, t) > 0 and sign * exact[l] > 0):
                bad.append((N, l))
    ok = not bad
    _report(7, "s_N (-1)^(N-l-1) A_{N-1,l} > 0, s_N=(-1)^(N(N-1)/2+N+1), N<=12", ok,
            f"(violated at (N, l)={bad})" if bad else "")
    assert ok, f"cofactor sign pattern fails at (N, l) in {bad}"


def test_criterion_7_numerator_denominator():
    worst_n = worst_d = 0.0
    for N in range(1, 11):
        t = optimal_transmission(N)
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
        cof = cofactors(matrix_sum(a1, a2), N - 1)
        num = math.fsum(c * x for c, x in zip(cof, a2[N - 1]))
        den = sum(map(abs, cof)) ** 2
        want_n = numerator_closed_form(N, t)
        want_d = denominator_closed_form(N, t)
        # the closed form is the a1 contraction; det(a) = 0 at the root makes
        # the a2 contraction its negative
        worst_n = max(worst_n, abs(num + want_n) / abs(want_n))
        worst_d = max(worst_d, abs(den - want_d) / abs(want_d))
    ok = worst_n <= 1e-8 and worst_d <= 1e-8
    _report(7, "numerator/denominator closed forms, N<=10", ok,
            f"(num rel={worst_n:.2e}, den rel={worst_d:.2e})")
    assert worst_n <= 1e-8
    assert worst_d <= 1e-8


def test_criterion_8_row_invariance():
    # every row k of the independently built a2 gives |a2[k] . w|^2 = p,
    # with the gate's weights w_l = alpha_l gamma_l
    worst = 0.0
    for N in range(1, 11):
        t = optimal_transmission(N)
        sol = success_probability(NodeSet.minimal(N), t)
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
        w = [a * g for a, g in zip(sol.alphas, sol.gammas)]
        worst = max(worst, max(abs(math.fsum(x * y for x, y in zip(a2[k], w)) ** 2 - sol.p) for k in range(N)))
    ok = worst <= 1e-9
    _report(8, "p independent of row choice, N<=10", ok, f"(worst |(a2[k].w)^2 - p|={worst:.2e})")
    assert ok
