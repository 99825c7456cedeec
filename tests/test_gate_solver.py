import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nssgate.determinants import NodeSet, dense_det, exact_det
from nssgate.fock_oracle import SignalState, apply_gate
from nssgate.gate_solver import (
    BISECT_TOL,
    BeamSplitter,
    _polymul,
    _real_roots,
    binomial_inverse_rows,
    bs_diagonal_element,
    build_coefficient_matrix,
    cofactors,
    find_transmission,
    optimal_transmission,
    secular_polynomial,
    success_probability,
)
from nssgate.optimizer import scan_nodes
from nssgate.polynomials import spoly_eval_exact
from reference import (
    coefficient_matrix_exact,
    cofactor_closed_form,
    denominator_closed_form,
    det_closed_form,
    jacobi,
    numerator_closed_form,
)

SEED = 31337
# gapped sets whose roots lie below the roundoff of float determinants
GAPPED = (
    (1, 2, 4, 6, 8, 9, 10, 11),
    (1, 3, 4, 6, 7, 9, 10, 11),
    (0, 4, 6, 7, 8, 9, 12, 14, 16),
    (0, 1, 3, 4, 5, 6, 10, 11, 12, 16),
    (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16),
)
DET_TOL = 1e-10  # |det| <= DET_TOL * |T^2-1|^{N(N-1)/2} holds on the small sets tested here


def _exact_a_and_a2(nodes, t):
    """Exact-rational rows of a = a1 + a2 and of a2 at the rational t."""
    a1, a2 = coefficient_matrix_exact(nodes, t)
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a2)], a2


class TestBeamSplitter:
    def test_derived_quantities(self):
        bs = BeamSplitter(0.6)
        assert bs.r == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "T", [0.5 - 0.2j, np.complex128(0.3 + 0.4j), np.complex64(0.5 + 1e-3j)], ids=["complex", "complex128", "complex64"]
    )
    def test_rejects_complex_transmission(self, T):
        with pytest.raises(ValueError, match="real T"):
            BeamSplitter(T)

    def test_zero_imaginary_part_gives_float(self):
        bs = BeamSplitter(0.5 + 0j)
        assert type(bs.T) is float and bs.T == 0.5

    @pytest.mark.parametrize(
        "T, want",
        [(-1, -1.0), (Fraction(3, 5), 0.6), (np.float32(0.5), 0.5), (np.int64(0), 0.0)],
        ids=["int", "Fraction", "float32", "int64"],
    )
    def test_real_number_types_give_float(self, T, want):
        bs = BeamSplitter(T)
        assert type(bs.T) is float and bs.T == want

    @pytest.mark.parametrize("T", ["0.5", b"0.5"], ids=["str", "bytes"])
    def test_rejects_text(self, T):
        with pytest.raises(TypeError):
            BeamSplitter(T)

    def test_rejects_overunity(self):
        with pytest.raises(ValueError):
            BeamSplitter(1.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            BeamSplitter(float("nan"))


class TestDiagonalElement:
    def test_k_zero_is_power(self):
        bs = BeamSplitter(-0.45)
        for n in range(6):
            assert bs_diagonal_element(0, n, bs) == pytest.approx((-0.45) ** n, rel=1e-14)

    def test_one_one(self):
        # <1,1|U|1,1> = 2T^2 - 1 for real T (transmitted-transmitted minus the
        # exchange term), i.e. (T*)^0 P_1^{(0,0)}(2T^2-1)
        for T in (-0.7, 0.3, 0.9):
            assert bs_diagonal_element(1, 1, BeamSplitter(T)) == pytest.approx(2 * T * T - 1, rel=1e-12)
            assert bs_diagonal_element(1, 1, BeamSplitter(T)) == pytest.approx(jacobi(1, 0, 2 * T * T - 1), rel=1e-12)

    def test_matches_jacobi_route(self):
        # (T*)^{n-k} P_k^{(0,n-k)}(2|T|^2-1), moderate orders where the naive
        # route still has digits left
        for T in (Fraction(-2, 5), Fraction(7, 10)):
            for k in range(6):
                for n in range(6):
                    want = float(T) ** (n - k) * jacobi(k, n - k, float(2 * T * T - 1))
                    got = bs_diagonal_element(k, n, BeamSplitter(float(T)))
                    assert got == pytest.approx(want, rel=1e-10)

    def test_matches_exact_fock_expansion(self):
        # against sum_i C(k,i) C(n,k-i) t^{n-k+2i} (t^2-1)^{k-i}, the coefficient
        # of a+^k b+^n in (t a+ + r b+)^k (-r a+ + t b+)^n, summed exactly at the
        # float T: S is rounded once and T^{n-k} is one float power, so the
        # element is good to about 2 ulp (worst measured 2.5e-16)
        for T in (-0.95, -0.7, 1 - math.sqrt(2), 1 - 2 ** (1 / 14), -0.1, 0.3, 0.6, 0.9, 0.99):
            t = Fraction(T)
            bs = BeamSplitter(T)
            for k in range(15):
                for n in range(35):
                    want = sum(
                        math.comb(k, i) * math.comb(n, k - i) * t ** (n - k + 2 * i) * (t * t - 1) ** (k - i) for i in range(k + 1)
                    )
                    got = bs_diagonal_element(k, n, bs)
                    assert abs(Fraction(got) - want) <= Fraction(4.5e-16) * abs(want), (T, k, n)

    def test_pole_at_zero_transmission(self):
        with pytest.raises(ValueError):
            bs_diagonal_element(2, 1, BeamSplitter(0.0))
        # n >= k at T = 0 is finite
        assert bs_diagonal_element(1, 3, BeamSplitter(0.0)) == pytest.approx(0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            bs_diagonal_element(-1, 0, BeamSplitter(0.5))


class TestCoefficientMatrix:
    def test_split_parts(self):
        nodes = NodeSet.minimal(4)
        bs = BeamSplitter(-0.3)
        a1, a2 = build_coefficient_matrix(nodes, bs)
        # a1 columns constant in k
        assert np.allclose(a1, a1[0])
        for kk in range(4):
            for l, n in enumerate(nodes):
                assert a2[kk, l] == pytest.approx(bs_diagonal_element(kk, n, bs).real, rel=1e-12)
                assert a1[kk, l] == pytest.approx(bs_diagonal_element(4, n, bs).real, rel=1e-12)

    def test_rejects_zero_transmission(self):
        with pytest.raises(ValueError):
            build_coefficient_matrix(NodeSet.minimal(2), BeamSplitter(0.0))

    def test_n1_singular_at_minus_one(self):
        a1, a2 = build_coefficient_matrix(NodeSet((0,)), BeamSplitter(-1.0))
        assert abs(dense_det(a1 + a2)) <= 1e-12

    def test_n2_singular_at_silver_point(self):
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(2), BeamSplitter(1 - math.sqrt(2)))
        assert abs(dense_det(a1 + a2)) <= 1e-10

    def test_exact_build_matches_double(self):
        t = Fraction(-1, 4)
        nodes = NodeSet((0, 2, 3))
        a1, a2 = coefficient_matrix_exact(nodes, t)
        f1, f2 = build_coefficient_matrix(nodes, BeamSplitter(float(t)))
        for kk in range(3):
            for l in range(3):
                assert float(a1[kk][l] + a2[kk][l]) == pytest.approx(f1[kk, l] + f2[kk, l], rel=1e-13)


class TestDetClosedForm:
    def test_n2_formula(self):
        for T in (-0.6, 0.4):
            assert det_closed_form(2, T) == pytest.approx((T * T - 1) * (2 - (1 - T) ** 2))

    def test_vanishes_at_analytic_root(self):
        for N in range(1, 11):
            assert det_closed_form(N, optimal_transmission(N)) == pytest.approx(0.0, abs=1e-13)

    def test_n3_value(self):
        assert det_closed_form(3, 0.5) == pytest.approx((-0.75) ** 3 * (2 - 0.125))
        assert det_closed_form(3, 0.5) == pytest.approx(-0.791015625)

    def test_against_exact_determinant(self):
        rng = np.random.default_rng(SEED)
        for N in range(1, 11):
            for _ in range(5):
                t = Fraction(int(rng.choice([-1, 1]) * rng.integers(10, 950)), 1000)
                a1, a2 = coefficient_matrix_exact(NodeSet.minimal(N), t)
                det = float(exact_det([[a1[k][l] + a2[k][l] for l in range(N)] for k in range(N)]))
                assert det == pytest.approx(det_closed_form(N, float(t)), rel=1e-10)


class TestDetExpansion:
    def test_n_plus_one_terms(self):
        # det(a) = det(a2) + sum_m det(a2 with column m replaced by a1)
        rng = np.random.default_rng(SEED)
        for _ in range(12):
            N = int(rng.integers(2, 9))
            vals = sorted(rng.choice(np.arange(0, 2 * N), size=N, replace=False).tolist())
            nodes = NodeSet(tuple(int(v) for v in vals))
            t = Fraction(int(rng.choice([-1, 1]) * rng.integers(50, 900)), 1000)
            a1, a2 = coefficient_matrix_exact(nodes, t)
            full = exact_det([[a1[k][l] + a2[k][l] for l in range(N)] for k in range(N)])
            expansion = exact_det(a2)
            for m in range(N):
                repl = [[a1[k][l] if l == m else a2[k][l] for l in range(N)] for k in range(N)]
                expansion += exact_det(repl)
            assert float(expansion) == pytest.approx(float(full), rel=1e-9, abs=1e-250)

    def test_a2_determinant_minimal(self):
        for N in range(1, 9):
            t = Fraction(-3, 10)
            _, a2 = coefficient_matrix_exact(NodeSet.minimal(N), t)
            want = float((t * t - 1) ** (N * (N - 1) // 2))
            assert float(exact_det(a2)) == pytest.approx(want, rel=1e-10)

    def test_replacement_sum_identity(self):
        # sum_m det(a2: col m -> a1 col m) = (T^2-1)^{N(N-1)/2} [1-(1-T)^N]
        for N in range(1, 9):
            t = Fraction(-7, 20)
            a1, a2 = coefficient_matrix_exact(NodeSet.minimal(N), t)
            total = Fraction(0)
            for m in range(N):
                repl = [[a1[k][l] if l == m else a2[k][l] for l in range(N)] for k in range(N)]
                total += exact_det(repl)
            want = float((t * t - 1) ** (N * (N - 1) // 2)) * (1 - (1 - float(t)) ** N)
            assert float(total) == pytest.approx(want, rel=1e-9)

    def test_numerator_gap_identity(self):
        # sum_k (-1)^{N+k+1} C(N-1,k) S_N(k) = N T^2 (T^2-1)^{N-1}
        rng = np.random.default_rng(SEED)
        for N in range(1, 13):
            t = Fraction(int(rng.choice([-1, 1]) * rng.integers(50, 950)), 1000)
            total = sum(
                (-1) ** (N + k + 1) * math.comb(N - 1, k) * spoly_eval_exact(N, t, k) for k in range(N)
            )
            want = N * float(t) ** 2 * (float(t) ** 2 - 1) ** (N - 1)
            assert float(total) == pytest.approx(want, rel=1e-9)


class TestFindTransmission:
    def test_n1_contains_minus_one(self):
        assert -1.0 in find_transmission(NodeSet((0,)))

    def test_n2_silver_root(self):
        roots = find_transmission(NodeSet.minimal(2))
        assert min(abs(r - (1 - math.sqrt(2))) for r in roots) <= 1e-10

    def test_n5_analytic_root(self):
        roots = find_transmission(NodeSet.minimal(5))
        best = min(roots, key=lambda r: abs(r - optimal_transmission(5)))
        assert best == pytest.approx(1 - 2 ** 0.2, abs=1e-10)
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(5), BeamSplitter(best))
        assert abs(dense_det(a1 + a2)) <= 1e-10

    def test_roots_sorted_and_validated(self):
        for nodes in (NodeSet.minimal(3), NodeSet((0, 2)), NodeSet((1, 2, 4))):
            roots = find_transmission(nodes)
            assert roots == sorted(roots)
            N = len(nodes)
            for t in roots:
                a1, a2 = build_coefficient_matrix(nodes, BeamSplitter(t))
                scale = abs(t * t - 1) ** (N * (N - 1) / 2) if N > 1 else 1.0
                assert abs(dense_det(a1 + a2)) <= DET_TOL * max(scale, 1e-300)

    @pytest.mark.parametrize(
        "nodes", [tuple(range(N)) for N in range(1, 11)] + [(0, 2), (1, 2, 4), (0, 2, 3, 7)] + list(GAPPED[:3]), ids=str
    )
    def test_roots_change_the_exact_determinant_sign(self, nodes):
        # exact det(a) from the matrix elements, independent of the secular polynomial
        nodes = NodeSet(nodes)

        def det(t):
            return exact_det(_exact_a_and_a2(nodes, Fraction(t))[0])

        roots = find_transmission(nodes)
        assert roots
        for t in roots:
            lo, hi = det(t - 1e-12), det(t + 1e-12)
            assert det(t) == 0 or (lo < 0) != (hi < 0), t


class TestSecularPolynomial:
    def test_matrix_determinant_lemma_exact(self):
        # det(a1 + a2) = det(a2) P(t) / t^N in rationals, P = secular_polynomial / N!
        rng = np.random.default_rng(SEED)
        for i in range(64):
            N = 1 + i % 8
            nodes = NodeSet(tuple(sorted(int(v) for v in rng.choice(N + 5, size=N, replace=False))))
            t = Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 1000)), 1000)
            a, a2 = _exact_a_and_a2(nodes, t)
            P = sum(c * t**k for k, c in enumerate(secular_polynomial(nodes))) / math.factorial(N)
            assert exact_det(a) == exact_det(a2) * P / t**N, (nodes, t)

    @pytest.mark.parametrize("nodes", [tuple(range(14))] + list(GAPPED), ids=str)
    def test_roots_bracketed_within_half_bisect_tol(self, nodes):
        # the exact sign change of P that certifies each root lies within the final bisection interval
        coeffs = secular_polynomial(NodeSet(nodes))

        def P(t):
            return sum(c * Fraction(t) ** k for k, c in enumerate(coeffs))

        roots = find_transmission(NodeSet(nodes))
        assert roots
        for t in roots:
            d = BISECT_TOL / 2 + 4 * math.ulp(t)
            assert P(t) == 0 or (P(t - d) < 0) != (P(t + d) < 0), t

    def test_minimal_nodes_give_the_paper_polynomial(self):
        for N in range(1, 15):
            coeffs = secular_polynomial(NodeSet.minimal(N))
            bracket = [2 * (k == 0) - math.comb(N, k) * (-1) ** k for k in range(N + 1)]
            assert coeffs == [0] * N + [math.factorial(N) * c for c in bracket]


def _sturm_count(coeffs):
    """Distinct real roots in [-1, 1] of the integer polynomial divided by its
    largest power of t, by a Sturm sequence in exact rationals."""
    p = [Fraction(c) for c in coeffs]
    p = p[next(i for i, c in enumerate(p) if c) :]
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        a, b = list(seq[-2]), seq[-1]
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            for i, c in enumerate(b):
                a[len(a) - len(b) + i] -= f * c
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
        seq.append([-c for c in a])

    def variations(x):
        vals = [v for v in (sum(c * x**i for i, c in enumerate(s)) for s in seq) if v]
        return sum((u < 0) != (w < 0) for u, w in zip(vals, vals[1:]))

    # V(a) - V(b) counts the distinct roots in (a, b]
    return variations(-1) - variations(1) + (sum(c * (-1) ** i for i, c in enumerate(p)) == 0)


class TestRealRoots:
    @pytest.mark.parametrize(
        "factors, want",
        [
            (([-599, 2000], [-2999, 10000]), [0.2995, 0.2999]),  # 4e-4 apart, between two points of a 1e-3 grid
            (([-1, 2_000_000],), [5e-7]),
            (([-1, 4], [-1, 4], [-1, 2_000_000]), [5e-7, 0.25]),  # 1/4 is a bisection midpoint
            (([-1, 3], [-1, 3], [1, 5]), [-0.2]),  # the double root has no sign change
        ],
        ids=["close_pair", "near_zero", "midpoint_double_root", "even_multiplicity"],
    )
    def test_synthetic_polynomials(self, factors, want):
        got = _real_roots(functools.reduce(_polymul, factors))
        assert len(got) == len(want)
        for t, w in zip(got, want):
            assert t == pytest.approx(w, rel=1e-12, abs=0)

    def test_finds_every_root(self):
        # completeness: as many roots as P / t^m has distinct real roots in [-1, 1]
        sets = (
            [tuple(range(N)) for N in range(1, 15)]
            + [s for N in range(2, 6) for s in itertools.combinations(range(N + 4), N)]
            + list(GAPPED)
        )
        for nodes in sets:
            nodes = NodeSet(nodes)
            assert len(find_transmission(nodes)) == _sturm_count(secular_polynomial(nodes)), nodes


class TestCofactors:
    def test_n1_convention(self):
        a1, a2 = build_coefficient_matrix(NodeSet((0,)), BeamSplitter(-1.0))
        assert cofactors(a1 + a2, 0).tolist() == [1.0]

    def test_n2_minors(self):
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(2), BeamSplitter(-0.5))
        a = a1 + a2
        got = cofactors(a, 1)
        assert got[0] == pytest.approx(-a[0, 1], rel=1e-12)
        assert got[1] == pytest.approx(a[0, 0], rel=1e-12)

    def test_rejects_complex_matrix(self):
        with pytest.raises(ValueError):
            cofactors(np.array([[1j, 0], [0, 2.0]]), 0)

    def test_laplace_expansion(self):
        # sum_l a[m, l] A[k, l] = delta_km det(a)
        rng = np.random.default_rng(SEED)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            a = rng.normal(size=(n, n))
            det = dense_det(a)
            for k in range(n):
                cof = cofactors(a, k)
                for m in range(n):
                    want = det if m == k else 0.0
                    assert float(a[m] @ cof) == pytest.approx(want, rel=1e-8, abs=1e-9 * abs(det))

    def test_laplace_on_gate_matrix(self):
        N = 4
        t = optimal_transmission(N)
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
        a = a1 + a2
        det = dense_det(a)
        cof = cofactors(a, N - 1)
        scale = float(np.max(np.abs(cof)))
        for row in range(N):
            want = det if row == N - 1 else 0.0
            assert float(a[row] @ cof) == pytest.approx(want, abs=1e-8 * scale)

    def test_closed_form_n4_at_optimum(self):
        N = 4
        t = optimal_transmission(N)
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
        cof = cofactors(a1 + a2, N - 1)
        for l in range(N):
            assert cof[l] == pytest.approx(cofactor_closed_form(N, l, t), rel=1e-8)

    def test_closed_form_general_T(self):
        # away from the optimum the second (bracket) term contributes
        N = 5
        for t in (-0.6, 0.35):
            a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
            cof = cofactors(a1 + a2, N - 1)
            for l in range(N):
                assert cof[l] == pytest.approx(cofactor_closed_form(N, l, t), rel=1e-8)

    def test_closed_form_signs_alternate_in_l(self):
        for N in range(2, 13):
            t = optimal_transmission(N)
            vals = [cofactor_closed_form(N, l, t) for l in range(N)]
            for l in range(N - 1):
                assert vals[l] * vals[l + 1] < 0

    def test_closed_form_n1_limit_convention(self):
        # A = 1 for N=1; the closed form at T -> -1 gives -T = 1
        assert cofactor_closed_form(1, 0, -1.0 + 1e-12) == pytest.approx(1.0, rel=1e-6)

    def test_closed_form_rejects_poles(self):
        with pytest.raises(ValueError):
            cofactor_closed_form(3, 0, 0.0)
        with pytest.raises(ValueError):
            cofactor_closed_form(3, 0, -1.0)
        with pytest.raises(ValueError):
            cofactor_closed_form(3, 5, 0.3)


def _exact_null_vector(nodes, t):
    """v = D_n^{-1} C'^{-1} y in rationals, y_j = s^j, s = -t/(1+t) (y = (1,) for N = 1)."""
    s = -t / (1 + t) if len(nodes) > 1 else Fraction(0)
    return [sum(c * s**j for j, c in enumerate(M)) / D / t**n for n, (M, D) in zip(nodes, binomial_inverse_rows(nodes))]


def _exact_p(nodes, t):
    """1/||a2^{-1} 1||_1^2 from a2 alone: Cramer's rule on the exact matrix."""
    _, a2 = coefficient_matrix_exact(nodes, Fraction(t))
    det = exact_det(a2)
    v = [exact_det([[1 if j == l else x for j, x in enumerate(row)] for row in a2]) / det for l in range(len(nodes))]
    return 1 / sum(abs(x) for x in v) ** 2


class TestSuccessProbability:
    def test_n1_deterministic(self):
        sol = success_probability(NodeSet((0,)), -1.0)
        assert sol.p == pytest.approx(1.0, abs=1e-12)

    def test_n2_quarter(self):
        sol = success_probability(NodeSet.minimal(2), 1 - math.sqrt(2))
        assert sol.p == pytest.approx(0.25, abs=1e-9)

    def test_scaling_law(self):
        for N in range(3, 15):
            sol = success_probability(NodeSet.minimal(N), optimal_transmission(N))
            assert sol.p * N**2 == pytest.approx(1.0, abs=1e-14)

    def test_weight_normalizations(self):
        N = 6
        sol = success_probability(NodeSet.minimal(N), optimal_transmission(N))
        assert sum(abs(a) ** 2 for a in sol.alphas) == pytest.approx(1.0, abs=1e-12)
        assert sum(g * g for g in sol.gammas) == pytest.approx(1.0, abs=1e-12)
        for a, g in zip(sol.alphas, sol.gammas):
            assert abs(a) == pytest.approx(g, abs=1e-12)
            assert g >= 0.0

    def test_row_invariance(self):
        # every row of the independently built a2 gives the same amplitude:
        # |a2[k] . w|^2 = p with w_l = alpha_l gamma_l
        for N in (2, 5, 8, 10):
            t = optimal_transmission(N)
            sol = success_probability(NodeSet.minimal(N), t)
            a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
            w = np.array(sol.alphas) * np.array(sol.gammas)
            for k in range(N):
                assert float(a2[k] @ w) ** 2 == pytest.approx(sol.p, abs=1e-9)

    def test_degenerate_matrix_rejected(self):
        # at T = 1 the minimal matrix is rank one for N >= 3
        with pytest.raises(ValueError):
            success_probability(NodeSet.minimal(4), 1.0)

    @pytest.mark.parametrize("t", [0.0, 1.0, -1.0, 1.5, 0.3 + 0.1j])
    def test_rejects_transmission_outside_the_open_disc(self, t):
        with pytest.raises(ValueError):
            success_probability(NodeSet.minimal(2), t)

    def test_binomial_inverse_is_exact(self):
        # sum_j M_l[j] C(n_k, j) = D_l delta_lk, in integers
        for nodes in (NodeSet.minimal(5), NodeSet((1, 3, 4, 9)), NodeSet(GAPPED[4])):
            rows = binomial_inverse_rows(nodes)
            assert len(rows) == len(nodes) and all(len(M) == len(nodes) for M, _ in rows)
            for (M, D), n in zip(rows, nodes):
                for nk in nodes:
                    assert sum(c * math.comb(nk, j) for j, c in enumerate(M)) == (D if nk == n else 0)

    def test_null_vector_exact(self):
        # a2 v = 1 and a v = P(t)/t^N 1 in rationals, so a1 v = -1 wherever P(t) = 0
        rng = np.random.default_rng(SEED)
        for i in range(64):
            N = 1 + i % 8
            nodes = NodeSet(tuple(sorted(int(v) for v in rng.choice(N + 5, size=N, replace=False))))
            t = Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 1000)), 1000)
            a1, a2 = coefficient_matrix_exact(nodes, t)
            v = _exact_null_vector(nodes, t)
            P = sum(c * t**k for k, c in enumerate(secular_polynomial(nodes))) / math.factorial(N)
            for r1, r2 in zip(a1, a2):
                assert sum(x * y for x, y in zip(r2, v)) == 1, (nodes, t)
                assert sum(x * y for x, y in zip(r1, v)) == P / t**N - 1, (nodes, t)
        # the one rational root: N = 1 at t = -1
        a1, _ = coefficient_matrix_exact(NodeSet((3,)), Fraction(-1))
        assert a1[0][0] * _exact_null_vector(NodeSet((3,)), Fraction(-1))[0] == -1

    @pytest.mark.parametrize("nodes", [tuple(range(N)) for N in range(1, 15)] + list(GAPPED) + [(0, 2), (1, 2, 4), (0, 2, 3, 7)], ids=str)
    def test_p_matches_exact_rational_p(self, nodes):
        nodes = NodeSet(nodes)
        for t in find_transmission(nodes):
            want = float(_exact_p(nodes, t))
            assert success_probability(nodes, t).p == pytest.approx(want, rel=1e-13, abs=0), t

    @pytest.mark.parametrize("nodes", [tuple(range(N)) for N in range(1, 15)] + list(GAPPED), ids=str)
    def test_sign_convention(self, nodes):
        # lambda_k = +sqrt(p) for k < N and lambda_N = -sqrt(p), at every root;
        # each diagonal element is good to ~2 ulp, which leaves the float sum
        # over the weighted elements: worst 2.5e-11, on the gapped N = 14 set
        report = scan_nodes(NodeSet(nodes))
        assert report.entries
        N = len(nodes)
        signal = SignalState(tuple([1 / math.sqrt(N + 1)] * (N + 1)))
        for e in report.entries:
            _, _, lam = apply_gate(signal, e.solution)
            want = np.array([1.0] * N + [-1.0])
            assert np.max(np.abs(lam / math.sqrt(e.p) - want)) <= 1e-10, e.T


class TestClosedFormRatio:
    def test_n1_conventions(self):
        assert numerator_closed_form(1, -1.0) == pytest.approx(-1.0)
        assert denominator_closed_form(1, -1.0) == pytest.approx(1.0)

    def test_n2(self):
        t = 1 - math.sqrt(2)
        assert numerator_closed_form(2, t) == pytest.approx(2 * t * (t * t - 1))
        assert denominator_closed_form(2, t) == pytest.approx(16 * t * t * (t * t - 1) ** 2)
        assert numerator_closed_form(2, t) ** 2 / denominator_closed_form(2, t) == pytest.approx(0.25, rel=1e-12)

    def test_ratio_is_inverse_square(self):
        for N in (3, 6, 10):
            t = optimal_transmission(N)
            ratio = numerator_closed_form(N, t) ** 2 / denominator_closed_form(N, t)
            assert ratio == pytest.approx(1.0 / N**2, rel=1e-12)

    def test_a2_contraction_is_negated_closed_form(self):
        # the closed form is the a1 contraction sum_l a1[N-1,l] A_{N-1,l}; since
        # det(a) = 0 at the root, the a2 contraction is its negative; the
        # denominator agrees to machine precision
        for N in range(1, 9):
            t = optimal_transmission(N)
            a1, a2 = build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))
            cof = cofactors(a1 + a2, N - 1)
            num = float(np.asarray(cof) @ a2[N - 1])
            den = float(np.sum(np.abs(cof))) ** 2
            assert num == pytest.approx(-numerator_closed_form(N, t), rel=1e-8)
            assert den == pytest.approx(denominator_closed_form(N, t), rel=1e-8)
