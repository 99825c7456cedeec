import math
import random
from fractions import Fraction

import pytest

from nssgate.gate_solver import BeamSplitter, bs_diagonal_element
from nssgate.polynomials import (
    binomial,
    gapped_binomial_expand,
    oneq_coefficient,
    spoly_column,
    spoly_eval,
    spoly_eval_exact,
    spoly_scaled,
    symmetric_s,
)
from reference import (
    SPoly,
    elementary_sigma,
    jacobi,
    oneq_coefficient_reference,
    partial_binomial_sum,
    spoly_column_exact,
    weight_sequence,
    weight_sequence_resummed,
)

SEED = 20240817


def test_jacobi_order_zero_is_one():
    for beta in (-5, -1, 0, 3, 17):
        for x in (-1.0, -0.3, 0.0, 0.9):
            assert jacobi(0, beta, x) == 1.0


def test_jacobi_order_one_hand_expansion():
    # P_1^{(0,n-1)}(2T^2-1) = 1 + (n+1)(T^2-1), from expanding the sum at k=1
    for n in range(6):
        for T in (-0.7, 0.2, 0.5):
            want = 1 + (n + 1) * (T * T - 1)
            assert jacobi(1, n - 1, 2 * T * T - 1) == pytest.approx(want, rel=1e-13)


def test_jacobi_matches_spoly_at_silver_ratio_point():
    x = 1 - math.sqrt(2)
    got = jacobi(2, 0, 2 * x * x - 1)
    assert got == pytest.approx(spoly_eval(2, x, 2), rel=1e-12)


def test_jacobi_rejects_negative_order():
    with pytest.raises(ValueError):
        jacobi(-1, 0, 0.5)


def test_spoly_special_parameter_values():
    for k in range(0, 15):
        for n in (0, 1, 7, 23):
            assert spoly_eval(k, 1.0, n) == pytest.approx(1.0, abs=1e-12)
            assert spoly_eval(k, -1.0, n) == pytest.approx(1.0, abs=1e-12)
            # at x = 0 the value is (-1)^k C(n,k): P_k^{(0,n-k)}(-1) carries the
            # alternating sign, consistent with the three-term recursion
            assert spoly_eval(k, 0.0, n) == pytest.approx((-1) ** k * math.comb(n, k), rel=1e-12)


def test_spoly_example_against_jacobi():
    assert spoly_eval(3, 0.5, 7) == pytest.approx(jacobi(3, 4, -0.5), rel=1e-12)


def test_spoly_matches_jacobi_on_grid():
    # k <= 20, n in [0, 40], 50-point x grid in (-1,1) excluding 0
    xs = [Fraction(i, 51) for i in range(-50, 51, 2) if i != 0]
    assert len(xs) == 50
    for x in xs:
        arg = 2 * x * x - 1
        for k in range(0, 21, 2):
            for n in range(0, 41, 3):
                ref = jacobi(k, n - k, arg)
                got = spoly_eval(k, float(x), n)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_spoly_negative_n_against_exact_jacobi():
    # the generalized-binomial form extends to n < 0 (used via beta = n-k+1 < 0)
    for n in (-1, -3, -10):
        for k in (1, 4, 9):
            x = Fraction(3, 10)
            ref = jacobi(k, n - k, 2 * x * x - 1)
            assert spoly_eval(k, float(x), n) == pytest.approx(ref, rel=1e-10)


def test_binomial_is_falling_factorial_over_factorial():
    for a in range(-12, 13):
        for m in range(-1, 13):
            want = Fraction(math.prod(a - i for i in range(m)), math.factorial(m)) if m >= 0 else 0
            got = binomial(a, m)
            assert type(got) is int and got == want


@pytest.mark.parametrize(
    "x", [0, 1, -1, Fraction(3, 10), Fraction(-3, 10), Fraction(999, 1000), 0.3, -0.7, "int64(-1)"]
)
def test_spoly_exact_equals_exact_recursion(x):
    # S_0 = 1, S_1 = (x^2-1)(n+1) + 1, then the three-term recursion, all in
    # Fractions; k runs to 60, past every n >= 0 here (the terms past j = n vanish)
    if x == "int64(-1)":
        x = pytest.importorskip("numpy", exc_type=ImportError).int64(-1)
    for n in (-10, -3, -1, 0, 1, 7, 30, 40, 59):
        for k, want in enumerate(spoly_column_exact(60, x, n)):
            assert spoly_eval_exact(k, x, n) == want


@pytest.mark.parametrize(
    "x", [0.3, -0.7, 0.999, -1e-3, 1 - 2 ** (1 / 14), Fraction(3, 10), Fraction(-999, 1000), Fraction(1, 3)]
)
def test_spoly_eval_is_the_exact_value_rounded_once(x):
    # one correctly rounded quotient: the same bits as float(Fraction), sign of 0 included
    for k in range(0, 41, 4):
        for n in (-7, -1, 0, 3, 20, 45):
            assert spoly_eval(k, x, n).hex() == float(spoly_eval_exact(k, x, n)).hex(), (k, n)


def test_spoly_rejects_non_integer_photon_number():
    with pytest.raises(TypeError):
        spoly_eval_exact(3, Fraction(1, 2), Fraction(5, 2))
    with pytest.raises(TypeError):
        spoly_eval(3, 0.5, 2.5)
    for f in (spoly_eval, spoly_eval_exact):
        with pytest.raises(TypeError):
            f(3, 0.5, 2.0)  # an integral float is not a photon number either
    for f in (spoly_scaled, spoly_column):
        for n in (Fraction(5, 2), 2.5, 2.0):
            with pytest.raises(TypeError):
                f(3, 1, 2, n)
        with pytest.raises(TypeError):
            f(3.0, 1, 2, 2)


def test_spoly_rejects_negative_order():
    for f in (spoly_eval, spoly_eval_exact):
        with pytest.raises(ValueError):
            f(-1, 0.5, 3)
    for f in (spoly_scaled, spoly_column):
        with pytest.raises(ValueError):
            f(-1, 1, 2, 3)


def test_spoly_column_is_spoly_scaled():
    # the recurrence gives each integer of the sum: at x = 0 and +-1, negative a,
    # b of 1, 7, 999 and 1000, n < 0 and 0 <= n < K (the sum's terms past j = n
    # vanish), and K = 0 and 1
    rng = random.Random(SEED)
    cases = [(K, a, b, n) for K in (0, 1, 2, 9) for a, b in ((0, 1), (1, 1), (-1, 1), (-3, 7)) for n in (-4, 0, 1, 5)]
    for _ in range(300):
        b = rng.choice((1, 7, 999, 1000))
        cases.append((rng.randrange(0, 30), rng.randrange(-b, b + 1), b, rng.randrange(-20, 40)))
    for K, a, b, n in cases:
        assert spoly_column(K, a, b, n) == [spoly_scaled(k, a, b, n) for k in range(K + 1)], (K, a, b, n)


def test_numpy_integer_order_and_photon_number():
    # np.int64 k and n give the Python-int or float results of plain ints; numpy
    # arithmetic on them would return np.int64 or raise OverflowError
    np = pytest.importorskip("numpy", exc_type=ImportError)
    bs = BeamSplitter(0.3)
    for k in (5, 12, 40):
        for kk, n in ((np.int64(k), 20), (k, np.int64(20)), (np.int64(k), np.int64(20))):
            got = spoly_scaled(kk, 3, 10, n)
            assert type(got) is int and got == spoly_scaled(k, 3, 10, 20)
            got = spoly_column(kk, 3, 10, n)
            assert all(type(v) is int for v in got) and got == spoly_column(k, 3, 10, 20)
            got = spoly_eval(kk, 0.3, n)
            assert type(got) is float and got == spoly_eval(k, 0.3, 20)
            got = spoly_eval_exact(kk, Fraction(3, 10), n)
            assert type(got.numerator) is type(got.denominator) is int
            assert got == spoly_eval_exact(k, Fraction(3, 10), 20)
            got = bs_diagonal_element(kk, n - 15, bs)
            assert type(got) is float and got == bs_diagonal_element(k, 5, bs)


def _recursion_residual(k: int, x, n: int) -> int:
    """k S_k - [(x^2-1)(n+k) + 2k-1] S_{k-1} + (k-1) x^2 S_{k-2}, times b^{2k}:
    an integer on s_j = b^{2j} S_j (`spoly_scaled`) at x = a/b, 0 exactly."""
    a, b = Fraction(x).as_integer_ratio()
    a2, b2 = a * a, b * b
    s2, s1, s0 = (spoly_scaled(j, a, b, n) for j in (k - 2, k - 1, k))
    return k * s0 - ((a2 - b2) * (n + k) + (2 * k - 1) * b2) * s1 + (k - 1) * a2 * b2 * s2


def test_recursion_trivial_cases():
    # x = 1: S_k = 1 for every k
    assert [spoly_scaled(k, 1, 1, 5) for k in range(3)] == [1, 1, 1]
    assert _recursion_residual(2, 1, 5) == 0
    # x = 0: S_k = (-1)^k C(n,k), so S_1(4) = -4 feeds forward to S_2(4) = 6
    assert [spoly_scaled(k, 0, 1, 4) for k in range(3)] == [1, -4, 6]
    assert _recursion_residual(2, 0, 4) == 0
    assert _recursion_residual(5, Fraction(3, 10), 9) == 0


def test_recursion_random_points():
    # 100 random (x, n), k = 2..20; also the boundary parameters 0, +-1
    rng = random.Random(SEED)
    xs = [Fraction(0), Fraction(1), Fraction(-1)]
    xs += [Fraction(rng.randrange(-999, 1000), 1000) for _ in range(100)]
    for x in xs:
        n = rng.randrange(0, 35)
        for k in range(2, 21):
            assert _recursion_residual(k, x, n) == 0, (k, x, n)


def test_elementary_sigma_values():
    assert elementary_sigma(0, 0) == 1
    # (n+1)(n+2) = n^2 + 3n + 2
    assert (elementary_sigma(2, 0), elementary_sigma(2, 1), elementary_sigma(2, 2)) == (1, 3, 2)
    assert elementary_sigma(3, 2) == 11
    with pytest.raises(ValueError):
        elementary_sigma(2, 3)


def test_elementary_sigma_product_identity():
    for m in range(0, 8):
        for n in (-4, 0, 1, 5, 12):
            lhs = sum(n**p * elementary_sigma(m, m - p) for p in range(m + 1))
            rhs = math.prod(n + i for i in range(1, m + 1))
            assert lhs == rhs


def test_spoly_coefficients_leading_term():
    for k in range(0, 9):
        for x in (-0.8, 0.3, 0.5):
            sp = SPoly.from_order(k, x)
            assert sp.leading == pytest.approx((x * x - 1) ** k / math.factorial(k), rel=1e-12)


def test_spoly_coefficients_evaluate_like_jacobi():
    for k in range(0, 9):
        x = Fraction(2, 5)
        sp = SPoly.from_order(k, float(x))
        for n in range(0, 15):
            ref = jacobi(k, n - k, 2 * x * x - 1)
            # coefficient route stays in doubles; the c_kp alternate, so a few
            # digits go to cancellation
            assert sp(n) == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_symmetric_s_examples():
    # p = N specialization: C(N,j) x^{2(N-j)}
    for N in range(1, 7):
        for j in range(N + 1):
            x = 0.6
            assert symmetric_s(x, N, j, N) == pytest.approx(math.comb(N, j) * x ** (2 * (N - j)), rel=1e-12)
    # j = p: (1-x^2)^{N-p}
    assert symmetric_s(0.5, 2, 2, 3) == pytest.approx(0.75)
    assert symmetric_s(0.5, 2, 1, 3) == pytest.approx(0.375)


@pytest.mark.parametrize("p", [-1, -3, 4])
def test_symmetric_s_rejects_p_out_of_range(p):
    with pytest.raises(ValueError, match=r"need 0 <= p <= N"):
        symmetric_s(0.5, p, 0, 3)


def test_symmetric_s_follows_the_type_of_x():
    # a float x gives the bits of the float formula, C(p,j) rounded to a
    # float first and 0.0 (never -0.0) where C(p,j) = 0; a Fraction x the
    # exact coefficient
    def float_formula(x, p, j, N):
        b = math.comb(p, j)
        return 0.0 if b == 0 else float(b) * x ** (2 * (p - j)) * (1.0 - x * x) ** (N - p)

    for v in (-949, -500, -1, 0, 3, 370, 600, 949):
        x = Fraction(v, 1000)
        for N in range(1, 9):
            for p in range(N + 1):
                for j in range(N + 1):
                    got = symmetric_s(float(x), p, j, N)
                    assert got.hex() == float_formula(float(x), p, j, N).hex(), (x, p, j, N)
                    want = math.comb(p, j) * x ** (2 * (p - j)) * (1 - x * x) ** (N - p) if j <= p else 0
                    assert symmetric_s(x, p, j, N) == want and type(symmetric_s(x, p, j, N)) is Fraction


def test_binomial_expansion_over_s_basis():
    # (x^2-1)^N C(l,p) = sum_j (-1)^{N-j} s_{N-j}(x;p;N) S_j(l), exactly at x = a/b
    rng = random.Random(SEED)
    for N in range(1, 9):
        x = Fraction(rng.randrange(-949, 950), 1000)
        for p in range(N + 1):
            for l in range(2 * N + 1):
                lhs = (x * x - 1) ** N * math.comb(l, p)
                rhs = sum((-1) ** (N - j) * symmetric_s(x, p, j, N) * spoly_eval_exact(j, x, l) for j in range(N + 1))
                assert lhs == rhs, (N, p, l, x)


def test_one_gap_expansion_over_s_basis():
    # the same with the gap-q coefficient, unscaled from its integer
    # (N+1) C(N,q) b^{2(N-j)} s_{N-j}^{(q)}(a/b), and the expansion from its
    # integer (N+1) C(N,q) C(l,N+1)/(l-q), exactly at x = a/b
    rng = random.Random(SEED)
    for N in range(1, 9):
        x = Fraction(rng.randrange(-949, 950), 1000)
        a, b = x.as_integer_ratio()
        for q in range(N + 1):
            scale = [(N + 1) * math.comb(N, q) * b ** (2 * (N - j)) for j in range(N + 1)]
            s = [Fraction(oneq_coefficient(a, b, q, j, N), scale[j]) for j in range(N + 1)]
            for l in range(2 * N + 3):
                lhs = (x * x - 1) ** N * Fraction(gapped_binomial_expand(N + 1, q, l), (N + 1) * math.comb(N, q))
                rhs = sum((-1) ** (N - j) * s[j] * spoly_eval_exact(j, x, l) for j in range(N + 1))
                assert lhs == rhs, (N, q, l, x)


def test_oneq_coefficient_equals_the_term_by_term_sum():
    # Horner over r gives the integer of the sum with a power in each term, at
    # x = 0 and +-1, negative a, every q and j, and N = 0
    rng = random.Random(SEED)
    xs = [(0, 1), (1, 1), (-1, 1)] + [(rng.randrange(-999, 1000), 1000) for _ in range(20)]
    for a, b in xs:
        for N in range(0, 9):
            for q in range(N + 1):
                for j in range(N + 1):
                    assert oneq_coefficient(a, b, q, j, N) == oneq_coefficient_reference(a, b, q, j, N), (a, b, q, j, N)


def test_gapped_binomial_examples():
    # p C(p-1,q) times 1, 1 and -1/6
    assert gapped_binomial_expand(1, 0, 5) == 1
    assert gapped_binomial_expand(2, 0, 3) == 2
    assert gapped_binomial_expand(3, 1, 1) == -1
    with pytest.raises(ValueError):
        gapped_binomial_expand(3, 3, 1)
    with pytest.raises(ValueError):
        gapped_binomial_expand(0, 0, 1)


def test_gapped_binomial_matches_product_form():
    for p in range(1, 9):
        for q in range(p):
            for l in range(-3, 2 * p + 3):
                prod = Fraction(math.prod(l - k for k in range(p) if k != q), math.factorial(p))
                assert Fraction(gapped_binomial_expand(p, q, l), p * math.comb(p - 1, q)) == prod


def test_gapped_binomial_expand_is_an_integer_on_the_product_scale():
    # the sum times p! is p C(p-1,q) prod_{k != q} (l-k), in integers, at every l
    # in -3..2p+2, the removable point l = q and negative l included
    for p in range(1, 9):
        for q in range(p):
            for l in range(-3, 2 * p + 3):
                got = gapped_binomial_expand(p, q, l)
                assert type(got) is int, (p, q, l)
                assert got * math.factorial(p) == p * math.comb(p - 1, q) * math.prod(l - k for k in range(p) if k != q)


def test_weight_sequence_generating_function():
    for N in range(1, 13):
        T = 1 - 2 ** (1 / N)
        for l in range(N):
            a = weight_sequence(l, N, T)
            b = weight_sequence_resummed(l, N, T)
            assert a == pytest.approx(b, rel=1e-10)
            assert a >= 0.0  # non-negativity at the optimal T


def test_partial_binomial_sum_nonnegative():
    for N in range(1, 21):
        for j in range(N + 1):
            for T in (-1.0 / N + (1.0 + 1.0 / N) * i / 39 for i in range(40)):
                assert partial_binomial_sum(j, N, T) >= -1e-12
