import functools
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from nssgate import gate_solver
from nssgate.determinants import NodeSet, dense_det, exact_det
from nssgate.fock_oracle import gate_amplitudes
from nssgate.gate_solver import (
    BISECT_TOL,
    BeamSplitter,
    _real_roots,
    _weights,
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
    _polymul,
    bisect_root_reference,
    coefficient_matrix_exact,
    cofactor_closed_form,
    denominator_closed_form,
    det_closed_form,
    jacobi,
    matrix_sum,
    numerator_closed_form,
    secular_polynomial_reference,
    sign_flipped,
    weights_reference,
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
    return matrix_sum(a1, a2), a2


class TestBeamSplitter:
    def test_derived_quantities(self):
        bs = BeamSplitter(0.6)
        assert bs.r == pytest.approx(0.8)

    # a numpy type is built in the test, which skips where numpy is missing
    @pytest.mark.parametrize(
        "numpy_type, T",
        [(None, 0.5 - 0.2j), ("complex128", 0.3 + 0.4j), ("complex64", 0.5 + 1e-3j)],
        ids=["complex", "complex128", "complex64"],
    )
    def test_rejects_complex_transmission(self, numpy_type, T):
        if numpy_type:
            T = getattr(pytest.importorskip("numpy", exc_type=ImportError), numpy_type)(T)
        with pytest.raises(ValueError, match="real T"):
            BeamSplitter(T)

    def test_zero_imaginary_part_gives_float(self):
        bs = BeamSplitter(0.5 + 0j)
        assert type(bs.T) is float and bs.T == 0.5

    @pytest.mark.parametrize(
        "numpy_type, T, want",
        [(None, -1, -1.0), (None, Fraction(3, 5), 0.6), ("float32", 0.5, 0.5), ("int64", 0, 0.0)],
        ids=["int", "Fraction", "float32", "int64"],
    )
    def test_real_number_types_give_float(self, numpy_type, T, want):
        if numpy_type:
            T = getattr(pytest.importorskip("numpy", exc_type=ImportError), numpy_type)(T)
        bs = BeamSplitter(T)
        assert type(bs.T) is float and bs.T == want

    @pytest.mark.parametrize("T", ["0.5", b"0.5"], ids=["str", "bytes"])
    def test_rejects_text(self, T):
        with pytest.raises(TypeError):
            BeamSplitter(T)

    def test_rejects_overunity(self):
        with pytest.raises(ValueError):
            BeamSplitter(1.5)

    @pytest.mark.parametrize(
        "T",
        [
            1 + 1e-12,
            -1 - 1e-12,
            math.nextafter(1.0, 2.0),
            10**400,
            Fraction(-(10**400)),
            10**5000,
            -(10**5000),
            Fraction(10**5000, 3),
            Fraction(10**17 + 1, 10**17),
            Fraction(-(10**17 + 1), 10**17),
        ],
        ids=[
            "1e-12",
            "-1e-12",
            "ulp",
            "int-1e400",
            "Fraction-1e400",
            "int-1e5000",
            "int--1e5000",
            "Fraction-1e5000",
            "Fraction-1+1e-17",
            "Fraction--1-1e-17",
        ],
    )
    def test_rejects_any_excess_over_unity(self, T):
        # with r clamped to 0, such a T would make diagonal elements above 1;
        # |T| is bounded before T is rounded to a float, which reads 1 + 1e-17
        # as 1 and has no value past 1e308, and the message holds no repr of
        # an int of over 4300 digits
        for make in (BeamSplitter, functools.partial(success_probability, NodeSet((0, 1)))):
            with pytest.raises(ValueError, match=r"^\|T\| must not exceed 1"):
                make(T)

    @pytest.mark.parametrize("T", [float("nan"), Decimal("NaN"), Decimal("sNaN")], ids=["float", "Decimal", "Decimal-signaling"])
    def test_rejects_nan(self, T):
        # a Decimal NaN signals InvalidOperation when compared, instead of comparing false
        with pytest.raises(ValueError, match=r"^\|T\| must not exceed 1"):
            BeamSplitter(T)


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
        # float T: the element is the exact product rounded once
        for T in (-0.95, -0.7, 1 - math.sqrt(2), 1 - 2 ** (1 / 14), -0.1, 0.3, 0.6, 0.9, 0.99):
            t = Fraction(T)
            bs = BeamSplitter(T)
            for k in range(15):
                for n in range(35):
                    want = sum(
                        math.comb(k, i) * math.comb(n, k - i) * t ** (n - k + 2 * i) * (t * t - 1) ** (k - i) for i in range(k + 1)
                    )
                    got = bs_diagonal_element(k, n, bs)
                    assert abs(Fraction(got) - want) <= Fraction(1, 2**53) * abs(want), (T, k, n)

    def test_past_the_float_range_of_t_powers(self):
        # at minimal N = 140, |T|^{n-k} for these n < k overflows a float, while
        # the element, one of a unitary, is finite: the exact one, rounded
        T = optimal_transmission(140)
        t = Fraction(T)
        for k, n in ((136, 0), (139, 0), (140, 1), (140, 3)):
            want = sum(math.comb(k, i) * math.comb(n, k - i) * t ** (n - k + 2 * i) * (t * t - 1) ** (k - i) for i in range(k + 1))
            got = bs_diagonal_element(k, n, BeamSplitter(T))
            assert math.isfinite(got) and got == float(want), (k, n)

    def test_pole_at_zero_transmission(self):
        with pytest.raises(ValueError):
            bs_diagonal_element(2, 1, BeamSplitter(0.0))
        # n >= k at T = 0 is finite; at n == k the modes swap, |k, k> -> (-1)^k |k, k>
        assert bs_diagonal_element(1, 3, BeamSplitter(0.0)) == pytest.approx(0.0)
        for k in range(5):
            assert bs_diagonal_element(k, k, BeamSplitter(0.0)) == (-1) ** k

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            bs_diagonal_element(-1, 0, BeamSplitter(0.5))


class TestCoefficientMatrix:
    def test_split_parts(self):
        nodes = NodeSet.minimal(4)
        bs = BeamSplitter(-0.3)
        a1, a2 = build_coefficient_matrix(nodes, bs)
        # a1 columns constant in k
        assert all(row == pytest.approx(a1[0]) for row in a1)
        for kk in range(4):
            for l, n in enumerate(nodes):
                assert a2[kk][l] == pytest.approx(bs_diagonal_element(kk, n, bs).real, rel=1e-12)
                assert a1[kk][l] == pytest.approx(bs_diagonal_element(4, n, bs).real, rel=1e-12)

    def test_elements_are_bs_diagonal_element(self):
        # each node's spoly_column gives, element by element, the bits of the
        # single-element path: at the roots of minimal N = 1..40 and of the gapped
        # N = 14 set, and at four more T on that set and on minimal N = 14
        cases = [(NodeSet.minimal(N), find_transmission(NodeSet.minimal(N))) for N in range(1, 41)]
        extra = [0.3, -0.7, 0.99, 1 - math.sqrt(2)]
        cases += [(NodeSet(GAPPED[-1]), find_transmission(NodeSet(GAPPED[-1])) + extra), (NodeSet.minimal(14), extra)]
        for nodes, ts in cases:
            N = len(nodes)
            for T in ts:
                bs = BeamSplitter(T)
                a1, a2 = build_coefficient_matrix(nodes, bs)
                want = [[bs_diagonal_element(k, n, bs).hex() for n in nodes] for k in range(N + 1)]
                assert [[v.hex() for v in row] for row in a2] == want[:N], (nodes, T)
                assert [[v.hex() for v in row] for row in a1] == want[N:] * N, (nodes, T)

    def test_rejects_zero_transmission(self):
        with pytest.raises(ValueError):
            build_coefficient_matrix(NodeSet.minimal(2), BeamSplitter(0.0))

    def test_n1_singular_at_minus_one(self):
        a1, a2 = build_coefficient_matrix(NodeSet((0,)), BeamSplitter(-1.0))
        assert abs(dense_det(matrix_sum(a1, a2))) <= 1e-12

    def test_n2_singular_at_silver_point(self):
        a1, a2 = build_coefficient_matrix(NodeSet.minimal(2), BeamSplitter(1 - math.sqrt(2)))
        assert abs(dense_det(matrix_sum(a1, a2))) <= 1e-10

    def test_exact_build_matches_double(self):
        # every element is the float of the exact one, whose S comes from the
        # Fraction recursion of `coefficient_matrix_exact`, not the package's
        # S sum: at the roots of minimal sets (T < 0; n < k in a1 and below
        # the diagonal of a2), at T = 0.3 and on one gapped set
        cases = [(NodeSet((0, 2, 3)), [-0.25, 0.3])]
        cases += [(NodeSet.minimal(N), find_transmission(NodeSet.minimal(N)) + [0.3]) for N in (1, 2, 5, 14, 50)]
        for nodes, ts in cases:
            for T in ts:
                a1, a2 = coefficient_matrix_exact(nodes, T)
                f1, f2 = build_coefficient_matrix(nodes, BeamSplitter(T))
                assert f1 == [[float(v) for v in row] for row in a1], (nodes, T)
                assert f2 == [[float(v) for v in row] for row in a2], (nodes, T)


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
        rng = random.Random(SEED)
        for N in range(1, 11):
            for _ in range(5):
                t = Fraction(rng.choice([-1, 1]) * rng.randrange(10, 950), 1000)
                a1, a2 = coefficient_matrix_exact(NodeSet.minimal(N), t)
                det = float(exact_det([[a1[k][l] + a2[k][l] for l in range(N)] for k in range(N)]))
                assert det == pytest.approx(det_closed_form(N, float(t)), rel=1e-10)


class TestDetExpansion:
    def test_n_plus_one_terms(self):
        # det(a) = det(a2) + sum_m det(a2 with column m replaced by a1)
        rng = random.Random(SEED)
        for _ in range(12):
            N = rng.randrange(2, 9)
            nodes = NodeSet(tuple(sorted(rng.sample(range(2 * N), N))))
            t = Fraction(rng.choice([-1, 1]) * rng.randrange(50, 900), 1000)
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
        rng = random.Random(SEED)
        for N in range(1, 13):
            t = Fraction(rng.choice([-1, 1]) * rng.randrange(50, 950), 1000)
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
        assert abs(dense_det(matrix_sum(a1, a2))) <= 1e-10

    def test_roots_sorted_and_validated(self):
        for nodes in (NodeSet.minimal(3), NodeSet((0, 2)), NodeSet((1, 2, 4))):
            roots = find_transmission(nodes)
            assert roots == sorted(roots)
            N = len(nodes)
            for t in roots:
                a1, a2 = build_coefficient_matrix(nodes, BeamSplitter(t))
                scale = abs(t * t - 1) ** (N * (N - 1) / 2) if N > 1 else 1.0
                assert abs(dense_det(matrix_sum(a1, a2))) <= DET_TOL * max(scale, 1e-300)

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
        rng = random.Random(SEED)
        for i in range(64):
            N = 1 + i % 8
            nodes = NodeSet(tuple(sorted(rng.sample(range(N + 5), N))))
            t = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 1000), 1000)
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
        for N in [*range(1, 15), 100, 300, 1000]:
            coeffs = secular_polynomial(NodeSet.minimal(N))
            bracket = [2 * (k == 0) - math.comb(N, k) * (-1) ** k for k in range(N + 1)]
            assert coeffs == [0] * N + [math.factorial(N) * c for c in bracket]

    def test_shifted_pairs_factor(self):
        # 2! P of {m, m+1} is -[(m+2)T^2 - m] [(m+1)T^2 - 2T - (m+1)], coefficient by coefficient
        for m in range(1001):
            want = [-c for c in _polymul([-m, 0, m + 2], [-(m + 1), -2, m + 1])]
            assert secular_polynomial(NodeSet((m, m + 1))) == want, m

    def test_shifted_pairs_best_gate(self):
        # the best gate of {m, m+1} is T = -sqrt(m/(m+2)) with p = [|T|^m (1+|T|)/2]^2
        for m in range(1, 41):
            best = scan_nodes(NodeSet((m, m + 1))).best.solution
            t = math.sqrt(m / (m + 2))
            assert best.T == pytest.approx(-t, rel=1e-13, abs=0), m
            assert best.p == pytest.approx((t**m * (1 + t) / 2) ** 2, rel=1e-13, abs=0), m

    def test_every_node_set_has_a_gate(self):
        # with m the length of the set's initial run 0..m-1 and m < N, N! P has its
        # lowest power at t^m with coefficient -|prod_l (m - n_l)| < 0, while
        # N! P(1) = 2 N! > 0, so P has a root in (0, 1); the minimal set's is 1 - 2^{1/N}
        rng = random.Random(SEED)
        sets = [s for N in range(1, 8) for s in itertools.combinations(range(N + 6), N)]
        for _ in range(200):
            N = rng.randrange(9, 120)
            sets.append(tuple(sorted(rng.sample(range(3 * N), N))))
        sets += [tuple(range(200)), tuple(range(500))]
        for nodes in sets:
            N, coeffs = len(nodes), secular_polynomial(NodeSet(nodes))
            assert sum(coeffs) == 2 * math.factorial(N), nodes
            m = next((i for i, n in enumerate(nodes) if n != i), N)
            if m < N:
                assert not any(coeffs[:m]), nodes
                assert coeffs[m] == -abs(math.prod(m - n for n in nodes)), nodes

    def test_scan_always_has_a_best_gate(self):
        # every N = 1..5 set in 0..N+3: a non-minimal set has a root in (0, 1)
        for N in range(1, 6):
            for nodes in itertools.combinations(range(N + 4), N):
                report = scan_nodes(NodeSet(nodes))
                assert report.best is not None, nodes
                if nodes != tuple(range(N)):
                    assert any(0 < e.solution.T < 1 for e in report.entries), nodes

    def test_equals_the_binomial_sum_reference(self):
        # every N = 1..8 set in 0..N+3, and seeded larger sets
        rng = random.Random(SEED)
        sets = [s for N in range(1, 9) for s in itertools.combinations(range(N + 4), N)]
        sets += [tuple(sorted(rng.sample(range(3 * N), N))) for N in (40, 120, 300)]
        for nodes in sets:
            got = secular_polynomial(NodeSet(nodes))
            assert got == secular_polynomial_reference(NodeSet(nodes)), nodes
            assert all(type(c) is int for c in got), nodes


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


SYNTHETIC = [
    (([-599, 2000], [-2999, 10000]), [0.2995, 0.2999]),  # 4e-4 apart, between two points of a 1e-3 grid
    (([-1, 2_000_000],), [5e-7]),
    (([-1, 4], [-1, 4], [-1, 2_000_000]), [5e-7, 0.25]),  # 1/4 is a bisection midpoint
    (([-1, 3], [-1, 3], [1, 5]), [-0.2]),  # the double root has no sign change
    (([-3, 8],), [0.375]),  # _bisect_root lands on the root exactly
    (([-1, 3],) * 3, [1 / 3]),  # the triple root is kept by its odd v once the interval is narrow
]
SYNTHETIC_IDS = ["close_pair", "near_zero", "midpoint_double_root", "even_multiplicity", "exact_hit", "triple_root"]


class TestRealRoots:
    @pytest.mark.parametrize("factors, want", SYNTHETIC, ids=SYNTHETIC_IDS)
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


# five node sets each for N = 20, 40 and 80, drawn once (seeded) from 0..3N-1 and
# frozen, since TestCertifiedRefinement makes claims about these very sets
WIDE_SETS = (
    (1, 2, 4, 8, 14, 15, 16, 21, 24, 25, 27, 29, 30, 33, 37, 44, 49, 53, 56, 57),
    (1, 5, 6, 7, 10, 13, 17, 20, 27, 31, 32, 34, 36, 38, 40, 41, 45, 49, 54, 56),
    (1, 3, 4, 10, 13, 18, 19, 21, 22, 24, 28, 39, 43, 44, 46, 48, 50, 55, 56, 57),
    (0, 3, 5, 10, 14, 19, 24, 25, 29, 35, 37, 40, 46, 48, 51, 52, 54, 55, 56, 58),
    (3, 5, 6, 7, 9, 11, 21, 22, 24, 26, 28, 29, 40, 42, 45, 52, 53, 57, 58, 59),
    (
        *(3, 8, 12, 13, 17, 22, 23, 24, 29, 30, 32, 35, 38, 40, 41, 47, 49, 50, 53, 55),
        *(57, 60, 66, 67, 70, 73, 74, 80, 81, 87, 88, 92, 94, 107, 113, 114, 115, 117, 118, 119),
    ),
    (
        *(2, 3, 9, 10, 13, 14, 15, 16, 19, 21, 23, 31, 32, 40, 41, 44, 51, 61, 63, 64),
        *(66, 71, 77, 82, 83, 85, 88, 89, 92, 96, 98, 99, 100, 105, 107, 108, 110, 111, 115, 116),
    ),
    (
        *(1, 4, 5, 12, 13, 16, 17, 25, 26, 30, 32, 36, 38, 41, 42, 43, 46, 50, 51, 53),
        *(55, 57, 58, 63, 64, 73, 76, 77, 90, 95, 97, 99, 102, 103, 104, 106, 109, 110, 112, 114),
    ),
    (
        *(4, 7, 16, 17, 20, 23, 28, 33, 34, 37, 40, 43, 49, 52, 55, 56, 57, 62, 63, 65),
        *(67, 69, 73, 74, 78, 79, 82, 83, 93, 94, 96, 97, 102, 104, 105, 108, 111, 113, 116, 118),
    ),
    (
        *(7, 10, 12, 13, 17, 19, 23, 24, 25, 29, 30, 34, 39, 40, 43, 44, 45, 48, 50, 51),
        *(54, 58, 59, 64, 65, 68, 71, 73, 78, 84, 90, 91, 94, 96, 103, 109, 112, 114, 116, 119),
    ),
    (
        *(2, 3, 5, 8, 18, 20, 21, 23, 24, 25, 26, 28, 32, 38, 41, 52, 55, 56, 60, 61),
        *(65, 66, 68, 69, 73, 74, 78, 80, 84, 88, 90, 92, 95, 96, 101, 110, 112, 118, 119, 122),
        *(125, 128, 135, 138, 141, 142, 144, 145, 146, 149, 150, 157, 158, 160, 163, 176, 177, 180, 181, 184),
        *(186, 187, 197, 199, 203, 210, 211, 212, 215, 217, 219, 220, 221, 222, 223, 227, 228, 231, 234, 237),
    ),
    (
        *(11, 12, 16, 19, 23, 26, 29, 32, 35, 37, 40, 45, 46, 47, 48, 49, 50, 53, 63, 64),
        *(65, 66, 67, 68, 72, 75, 76, 77, 83, 87, 89, 90, 92, 102, 103, 104, 121, 126, 127, 128),
        *(129, 130, 134, 135, 138, 143, 145, 149, 150, 152, 157, 160, 162, 165, 171, 172, 175, 177, 180, 181),
        *(183, 184, 188, 195, 197, 198, 202, 203, 206, 207, 208, 209, 212, 213, 214, 225, 228, 229, 230, 238),
    ),
    (
        *(0, 4, 12, 15, 19, 20, 25, 27, 34, 37, 38, 42, 43, 46, 60, 63, 64, 65, 66, 69),
        *(70, 72, 75, 77, 78, 82, 89, 103, 104, 107, 108, 109, 118, 120, 124, 125, 127, 129, 132, 133),
        *(134, 136, 137, 138, 140, 144, 145, 147, 150, 157, 158, 159, 164, 165, 168, 171, 175, 179, 182, 185),
        *(188, 189, 191, 192, 193, 198, 199, 200, 204, 205, 211, 212, 214, 224, 225, 230, 231, 233, 237, 238),
    ),
    (
        *(0, 3, 5, 7, 8, 14, 18, 23, 30, 31, 37, 38, 40, 41, 42, 51, 52, 58, 63, 66),
        *(67, 69, 70, 71, 73, 79, 80, 81, 82, 84, 85, 86, 88, 92, 97, 98, 101, 108, 109, 110),
        *(111, 115, 116, 117, 119, 123, 124, 126, 128, 131, 136, 139, 143, 144, 145, 148, 152, 154, 155, 158),
        *(160, 169, 175, 176, 192, 196, 197, 199, 200, 201, 205, 213, 219, 220, 222, 223, 227, 231, 236, 239),
    ),
    (
        *(9, 10, 17, 19, 20, 21, 27, 28, 30, 31, 37, 40, 47, 51, 54, 58, 60, 61, 65, 66),
        *(67, 68, 71, 72, 73, 76, 81, 84, 88, 89, 94, 95, 101, 102, 103, 108, 109, 110, 117, 119),
        *(126, 130, 131, 133, 138, 143, 149, 152, 153, 156, 157, 158, 159, 163, 165, 166, 168, 169, 171, 174),
        *(176, 188, 189, 190, 196, 197, 202, 206, 208, 210, 211, 212, 213, 218, 221, 223, 224, 228, 234, 237),
    ),
)
# the N = 40 wide set that CI solves: its one root takes the uncertified path
WIDE_40 = WIDE_SETS[5]


def _reference_roots(coeffs, monkeypatch):
    """`_real_roots` with every isolated root bisected by `bisect_root_reference`."""
    with monkeypatch.context() as mp:
        mp.setattr(gate_solver, "_bisect_root", lambda p, f, lo, hi, slo: bisect_root_reference(p, lo, hi, slo))
        return _real_roots(coeffs)


def _uncertified(nodes, monkeypatch):
    """The float roots x of `find_transmission(nodes)` whose exact signs at
    x -+ BISECT_TOL |x| do not bracket the root inside its isolating interval."""
    coeffs = secular_polynomial(NodeSet(nodes))
    float_root, calls = gate_solver._float_root, []

    def spy(f, lo, hi):
        calls.append((lo, hi, float_root(f, lo, hi)))
        return calls[-1][2]

    def sign(t):
        m, q = t.as_integer_ratio()
        value = 0
        for k, c in enumerate(reversed(coeffs)):  # Horner: q^d P(m/q) at the end, q > 0
            value = value * m + c * q**k
        return (value > 0) - (value < 0)

    with monkeypatch.context() as mp:
        mp.setattr(gate_solver, "_float_root", spy)
        _real_roots(coeffs)  # what find_transmission(NodeSet(nodes)) runs
    out = []
    for lo, hi, x in calls:
        L, H = x - BISECT_TOL * abs(x), x + BISECT_TOL * abs(x)
        if not (lo < L and H < hi and sign(L) * sign(H) == -1):
            out.append(x)
    return out


class TestCertifiedRefinement:
    """Each isolated root is refined in floats and certified by two exact signs;
    the bisection replays the exact-sign brackets, so the roots are those of
    an exact sign at every midpoint, bit for bit."""

    def test_roots_equal_the_exact_bisection(self, monkeypatch):
        sets = [s for N in range(1, 9) for s in itertools.combinations(range(N + 4), N)]
        sets += [tuple(range(N)) for N in range(1, 61)] + list(WIDE_SETS)
        for nodes in sets:
            coeffs = secular_polynomial(NodeSet(nodes))
            assert find_transmission(NodeSet(nodes)) == _reference_roots(coeffs, monkeypatch), nodes

    @pytest.mark.parametrize("factors", [f for f, _ in SYNTHETIC], ids=SYNTHETIC_IDS)
    def test_synthetic_roots_equal_the_exact_bisection(self, factors, monkeypatch):
        coeffs = functools.reduce(_polymul, factors)
        assert _real_roots(coeffs) == _reference_roots(coeffs, monkeypatch)

    def test_wide_sets_take_the_uncertified_path(self, monkeypatch):
        # the float image of P cancels at these degrees, so the full exact loop runs
        for nodes in WIDE_SETS:
            assert _uncertified(nodes, monkeypatch), nodes

    def test_minimal_roots_are_certified(self, monkeypatch):
        # past N = 1030 the float image's low coefficients must stay out of the
        # subnormal range for Newton's root to certify
        for N in [*range(1, 61), 1040]:
            assert not _uncertified(tuple(range(N)), monkeypatch), N

    @pytest.mark.parametrize("wrong", ["lo_neighbour", "outside", "midpoint"])
    def test_a_wrong_float_root_leaves_the_roots_unchanged(self, wrong, monkeypatch):
        points = {
            "lo_neighbour": lambda lo, hi: math.nextafter(lo, hi),
            "outside": lambda lo, hi: hi + (hi - lo),
            "midpoint": lambda lo, hi: 0.5 * (lo + hi),  # inside, so its two exact signs are taken
        }
        sets = [tuple(range(N)) for N in range(1, 21)] + [s for N in range(2, 6) for s in itertools.combinations(range(N + 4), N)]
        want = {nodes: find_transmission(NodeSet(nodes)) for nodes in sets + list(GAPPED)}
        monkeypatch.setattr(gate_solver, "_float_root", lambda f, lo, hi: points[wrong](lo, hi))
        for nodes, roots in want.items():
            assert find_transmission(NodeSet(nodes)) == roots, nodes
        for factors, _ in SYNTHETIC:
            coeffs = functools.reduce(_polymul, factors)
            assert _real_roots(coeffs) == _reference_roots(coeffs, monkeypatch)

    @pytest.mark.parametrize("x", [0.2, 0.6])
    def test_a_float_root_outside_the_interval_is_not_certified(self, x, monkeypatch):
        # roots 1/5, 2/5 and 3/5 in three isolating intervals: P changes sign from
        # slo to -slo across 3/5 as across the root 1/5 of (0, 1/4), and across 1/5
        # as across the root 3/5 of (1/2, 1)
        coeffs = functools.reduce(_polymul, ([-1, 5], [-2, 5], [-3, 5]))
        want = _reference_roots(coeffs, monkeypatch)
        monkeypatch.setattr(gate_solver, "_float_root", lambda f, lo, hi: x)
        assert _real_roots(coeffs) == want

    def test_few_exact_signs_per_root(self, monkeypatch):
        # the minimal sets, and the 428 bisected roots of every N = 1..5 set in
        # 0..N+3, which take 3 to 5 exact signs each
        counts = []  # exact signs made by each bisection, after the endpoint checks at T = +-1
        sign, bisect = gate_solver._exact_sign, gate_solver._bisect_root

        def counting_sign(coeffs, t):
            if counts:
                counts[-1] += 1
            return sign(coeffs, t)

        def counting_bisect(*args):
            counts.append(0)
            return bisect(*args)

        monkeypatch.setattr(gate_solver, "_exact_sign", counting_sign)
        monkeypatch.setattr(gate_solver, "_bisect_root", counting_bisect)
        sets = [tuple(range(N)) for N in range(2, 15)]
        sets += [s for N in range(1, 6) for s in itertools.combinations(range(N + 4), N)]
        for nodes in sets:
            counts.clear()
            find_transmission(NodeSet(nodes))
            assert counts or nodes == (0,), nodes  # the one root of {0} is the endpoint T = -1
            assert max(counts, default=0) <= 8, (nodes, counts)


class TestCofactors:
    def test_n1_convention(self):
        a1, a2 = build_coefficient_matrix(NodeSet((0,)), BeamSplitter(-1.0))
        assert cofactors(matrix_sum(a1, a2), 0) == [1.0]

    def test_n2_minors(self):
        a = matrix_sum(*build_coefficient_matrix(NodeSet.minimal(2), BeamSplitter(-0.5)))
        got = cofactors(a, 1)
        assert got[0] == pytest.approx(-a[0][1], rel=1e-12)
        assert got[1] == pytest.approx(a[0][0], rel=1e-12)

    def test_rejects_complex_matrix(self):
        with pytest.raises(ValueError):
            cofactors([[1j, 0], [0, 2.0]], 0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
    def test_rejects_non_finite_entries(self, bad):
        # one ValueError, not the OverflowError of an infinity's integer ratio
        with pytest.raises(ValueError, match="finite"):
            cofactors([[1.0, 0.0], [bad, 1.0]], 0)

    def test_laplace_expansion(self):
        # sum_l a[m, l] A[k, l] = delta_km det(a)
        rng = random.Random(SEED)
        for _ in range(8):
            n = rng.randrange(2, 8)
            a = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]
            det = dense_det(a)
            for k in range(n):
                cof = cofactors(a, k)
                for m in range(n):
                    want = det if m == k else 0.0
                    assert math.fsum(x * c for x, c in zip(a[m], cof)) == pytest.approx(want, rel=1e-8, abs=1e-9 * abs(det))

    def test_laplace_on_gate_matrix(self):
        N = 4
        t = optimal_transmission(N)
        a = matrix_sum(*build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t)))
        det = dense_det(a)
        cof = cofactors(a, N - 1)
        scale = max(map(abs, cof))
        for row in range(N):
            want = det if row == N - 1 else 0.0
            assert math.fsum(x * c for x, c in zip(a[row], cof)) == pytest.approx(want, abs=1e-8 * scale)

    def test_closed_form_n4_at_optimum(self):
        N = 4
        t = optimal_transmission(N)
        cof = cofactors(matrix_sum(*build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))), N - 1)
        for l in range(N):
            assert cof[l] == pytest.approx(cofactor_closed_form(N, l, t), rel=1e-8)

    def test_closed_form_general_T(self):
        # away from the optimum the second (bracket) term contributes
        N = 5
        for t in (-0.6, 0.35):
            cof = cofactors(matrix_sum(*build_coefficient_matrix(NodeSet.minimal(N), BeamSplitter(t))), N - 1)
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
    """v = D_n^{-1} C'^{-1} y in rationals, y_j = s^j, s = -t/(1+t) (y = (1,) for N = 1),
    from the weights that success_probability rounds."""
    u, den = _weights(nodes, t)
    return [Fraction(num, D * den) / Fraction(t) ** n for n, (num, D) in zip(nodes, u)]


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

    @pytest.mark.parametrize("N", [20, 50, 100, 130])
    def test_scaling_law_past_the_cap(self, N):
        sol = success_probability(NodeSet.minimal(N), optimal_transmission(N))
        assert abs(sol.p * N**2 - 1) <= 1e-14

    @pytest.mark.parametrize("N", [137, 138, 140, 141, 150, 300])
    def test_p_where_t_powers_leave_the_float_range(self, N):
        # |T|^{N-1} is subnormal from N = 136 on; v = a2^{-1} 1 is evaluated in
        # decimal, so p stays the float of the exact-rational p at the same T
        nodes, t = NodeSet.minimal(N), optimal_transmission(N)
        want = float(1 / sum(abs(x) for x in _exact_null_vector(nodes, t)) ** 2)
        p = success_probability(nodes, t).p
        assert abs(p - want) <= 2.3e-16 * want
        assert abs(p * N**2 - 1) <= 1e-14

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
            w = [a * g for a, g in zip(sol.alphas, sol.gammas)]
            for k in range(N):
                assert math.fsum(x * y for x, y in zip(a2[k], w)) ** 2 == pytest.approx(sol.p, abs=1e-9)

    def test_degenerate_matrix_rejected(self):
        # at T = 1 the minimal matrix is rank one for N >= 3
        with pytest.raises(ValueError):
            success_probability(NodeSet.minimal(4), 1.0)

    @pytest.mark.parametrize("t", [0.0, 1.0, -1.0, 1.5, 0.3 + 0.1j])
    def test_rejects_transmission_outside_the_open_disc(self, t):
        with pytest.raises(ValueError):
            success_probability(NodeSet.minimal(2), t)

    @pytest.mark.parametrize("t", [Fraction(-3, 7), Fraction(1, 1000), Fraction(-999, 1000), 0.3, optimal_transmission(9)], ids=str)
    def test_weights_solve_the_binomial_system(self, t):
        # sum_l C(n_l, j) u_l = s^j for j = 0..N-1, in rationals
        s = -Fraction(t) / (1 + Fraction(t))
        # (4..7): every photon number >= N, so no node has its own term; (1..5): a gap at 0
        for nodes in (NodeSet.minimal(5), NodeSet((1, 3, 4, 9)), NodeSet(GAPPED[4]), NodeSet((4, 5, 6, 7)), NodeSet((1, 2, 3, 4, 5))):
            pairs, den = _weights(nodes, t)
            assert len(pairs) == len(nodes) and all(type(a) is int and type(b) is int for a, b in pairs)
            u = [Fraction(a, b * den) for a, b in pairs]
            for j in range(len(nodes)):
                assert sum(math.comb(n, j) * x for n, x in zip(nodes, u)) == s**j, (nodes, j)

    def test_weights_equal_the_full_sum_reference(self):
        # the sum over the node and the gaps of {0..N-1}, with c from its
        # two-term recurrence, gives the same rationals as the sum over
        # every i < N with c by Horner's rule: every N = 1..8 set in 0..N+3 at
        # each of its roots, and seeded gapped sets and minimal N = 300; the
        # float T = -0.999 and 1 - 2^{1/N} on all but the gapped N = 300 set,
        # where the reference's N^2 divisions of 16000-bit integers take 4.5 s on 2 CPUs
        rng = random.Random(SEED)
        small = [s for N in range(1, 9) for s in itertools.combinations(range(N + 4), N)]
        large = [tuple(sorted(rng.sample(range(3 * N), N))) for N in (40, 120, 300)]
        for nodes in map(NodeSet, small + large + [tuple(range(300))]):
            roots = find_transmission(nodes) if len(nodes) <= 8 else []
            floats = [-0.999, optimal_transmission(len(nodes))] if nodes.values != large[-1] else []
            for t in [Fraction(-3, 7), Fraction(2, 9), *floats, *roots]:
                (u, den), (ref, ref_den) = _weights(nodes, t), weights_reference(nodes, t)
                assert den == ref_den and [Fraction(*x) for x in u] == [Fraction(*x) for x in ref], (nodes, t)
                if nodes == NodeSet.minimal(len(nodes)):  # no gaps, so no f_l(n_l) is formed
                    assert all(D == 1 for _, D in u), (nodes, t)

    def test_null_vector_exact(self):
        # a2 v = 1 and a v = P(t)/t^N 1 in rationals, so a1 v = -1 wherever P(t) = 0
        rng = random.Random(SEED)
        for i in range(64):
            N = 1 + i % 8
            nodes = NodeSet(tuple(sorted(rng.sample(range(N + 5), N))))
            t = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 1000), 1000)
            a1, a2 = coefficient_matrix_exact(nodes, t)
            v = _exact_null_vector(nodes, t)
            P = sum(c * t**k for k, c in enumerate(secular_polynomial(nodes))) / math.factorial(N)
            for r1, r2 in zip(a1, a2):
                assert sum(x * y for x, y in zip(r2, v)) == 1, (nodes, t)
                assert sum(x * y for x, y in zip(r1, v)) == P / t**N - 1, (nodes, t)
        # the one rational root: N = 1 at t = -1
        a1, _ = coefficient_matrix_exact(NodeSet((3,)), Fraction(-1))
        assert a1[0][0] * _exact_null_vector(NodeSet((3,)), Fraction(-1))[0] == -1

    # (0, 3, 400) and (1, 5, 200, 201): photon numbers far above N, so gap terms on nodes without an own term
    @pytest.mark.parametrize(
        "nodes",
        [tuple(range(N)) for N in range(1, 15)] + list(GAPPED) + [(0, 2), (1, 2, 4), (0, 2, 3, 7), (0, 3, 400), (1, 5, 200, 201)],
        ids=str,
    )
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
        want = sign_flipped((1.0,) * (len(nodes) + 1))
        for e in report.entries:
            lam = gate_amplitudes(e.solution)
            assert max(abs(x / math.sqrt(e.solution.p) - y) for x, y in zip(lam, want)) <= 1e-10, e.solution.T


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
            cof = cofactors(matrix_sum(a1, a2), N - 1)
            num = math.fsum(c * x for c, x in zip(cof, a2[N - 1]))
            den = sum(map(abs, cof)) ** 2
            assert num == pytest.approx(-numerator_closed_form(N, t), rel=1e-8)
            assert den == pytest.approx(denominator_closed_form(N, t), rel=1e-8)
