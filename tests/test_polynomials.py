import math
from fractions import Fraction

import numpy as np
import pytest

from nssgate.polynomials import (
    binomial,
    gapped_binomial_expand,
    oneq_coefficient,
    spoly_eval,
    spoly_eval_exact,
    spoly_recursion_step,
    symmetric_s,
)
from reference import (
    SPoly,
    elementary_sigma,
    jacobi,
    partial_binomial_sum,
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


@pytest.mark.parametrize("x", [0, 1, -1, Fraction(3, 10), Fraction(-3, 10), Fraction(999, 1000), 0.3, -0.7])
def test_spoly_exact_equals_exact_recursion(x):
    # S_0 = 1, S_1 = (x^2-1)(n+1) + 1, then the three-term recursion, all in Fractions
    x2 = Fraction(x) ** 2
    for n in (-10, -3, -1, 0, 1, 7, 30, 40):
        prev, cur = Fraction(0), Fraction(1)
        for k in range(21):
            if k > 0:
                prev, cur = cur, (((x2 - 1) * (n + k) + 2 * k - 1) * cur - (k - 1) * x2 * prev) / k
            assert spoly_eval_exact(k, x, n) == cur


def test_spoly_rejects_non_integer_photon_number():
    with pytest.raises(TypeError):
        spoly_eval_exact(3, Fraction(1, 2), Fraction(5, 2))
    with pytest.raises(TypeError):
        spoly_eval(3, 0.5, 2.5)


def test_recursion_trivial_cases():
    assert spoly_recursion_step(2, 1.0, 5, 1.0, 1.0) == pytest.approx(1.0)
    # x = 0: S_k = (-1)^k C(n,k), so S_1(4) = -4 feeds forward to S_2(4) = 6
    assert spoly_recursion_step(2, 0.0, 4, -4.0, 1.0) == pytest.approx(6.0)
    assert spoly_recursion_step(5, 0.3, 9, spoly_eval(4, 0.3, 9), spoly_eval(3, 0.3, 9)) == pytest.approx(
        spoly_eval(5, 0.3, 9), rel=1e-10
    )
    with pytest.raises(ValueError):
        spoly_recursion_step(1, 0.5, 3, 1.0, 1.0)


def test_recursion_random_points():
    # 100 random (x, n), k = 2..20; also the boundary parameters 0, +-1
    rng = np.random.default_rng(SEED)
    xs = [Fraction(0), Fraction(1), Fraction(-1)]
    xs += [Fraction(int(rng.integers(-999, 1000)), 1000) for _ in range(100)]
    for x in xs:
        n = int(rng.integers(0, 35))
        prev2 = float(spoly_eval_exact(0, x, n))
        prev1 = float(spoly_eval_exact(1, x, n))
        for k in range(2, 21):
            ref = float(spoly_eval_exact(k, x, n))
            got = spoly_recursion_step(k, float(x), n, prev1, prev2)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-250)
            prev2, prev1 = prev1, ref


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
    with pytest.raises(ValueError):
        symmetric_s(0.5, 4, 0, 3)


def test_binomial_expansion_over_s_basis():
    # (x^2-1)^N C(l,p) = sum_j (-1)^{N-j} s_{N-j}(x;p;N) S_j(l)
    rng = np.random.default_rng(SEED)
    for N in range(1, 9):
        x = float(Fraction(int(rng.integers(-949, 950)), 1000))
        for p in range(N + 1):
            for l in range(2 * N + 1):
                lhs = (x * x - 1) ** N * math.comb(l, p)
                rhs = sum((-1) ** (N - j) * symmetric_s(x, p, j, N) * spoly_eval(j, x, l) for j in range(N + 1))
                assert abs(lhs - rhs) <= 1e-9


def test_one_gap_expansion_over_s_basis():
    rng = np.random.default_rng(SEED)
    for N in range(1, 9):
        x = float(Fraction(int(rng.integers(-949, 950)), 1000))
        for q in range(N + 1):
            for l in range(2 * N + 3):
                lhs = (x * x - 1) ** N * gapped_binomial_expand(N + 1, q, l)
                rhs = sum(
                    (-1) ** (N - j) * oneq_coefficient(x, q, j, N) * spoly_eval(j, x, l) for j in range(N + 1)
                )
                assert abs(lhs - rhs) <= 1e-9


def test_gapped_binomial_examples():
    assert gapped_binomial_expand(1, 0, 5) == pytest.approx(1.0)
    assert gapped_binomial_expand(2, 0, 3) == pytest.approx(1.0)
    assert gapped_binomial_expand(3, 1, 1) == pytest.approx(-1.0 / 6.0)
    with pytest.raises(ValueError):
        gapped_binomial_expand(3, 3, 1)
    with pytest.raises(ValueError):
        gapped_binomial_expand(0, 0, 1)


def test_gapped_binomial_matches_product_form():
    for p in range(1, 9):
        for q in range(p):
            for l in range(-3, 2 * p + 3):
                prod = math.prod(l - k for k in range(p) if k != q) / math.factorial(p)
                assert gapped_binomial_expand(p, q, l) == pytest.approx(prod, abs=1e-10)


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
            for T in np.linspace(-1.0 / N, 1.0, 40):
                assert partial_binomial_sum(j, N, float(T)) >= -1e-12
