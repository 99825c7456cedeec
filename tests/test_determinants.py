import itertools
import math
import random
from fractions import Fraction

import pytest

from nssgate.determinants import (
    NodeSet,
    dense_det,
    exact_det,
    gapped_vandermonde,
    gapped_vandermonde_S,
    spoly_det,
    spoly_matrix,
    vandermonde_S,
    vandermonde_power,
)
from nssgate.gate_solver import cofactors
from nssgate.polynomials import spoly_eval, spoly_eval_exact
from reference import matrix_sum

SEED = 977


class TestNodeSet:
    def test_valid(self):
        ns = NodeSet((0, 2, 5))
        assert list(ns) == [0, 2, 5]
        assert len(ns) == 3

    def test_minimal(self):
        assert NodeSet.minimal(4).values == (0, 1, 2, 3)

    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValueError):
            NodeSet((0, 1, 1))
        with pytest.raises(ValueError):
            NodeSet((2, 1))
        with pytest.raises(ValueError):
            NodeSet((-1, 0))
        with pytest.raises(ValueError):
            NodeSet(())

    @pytest.mark.parametrize("values", [(0, 1.5, 2.9), (0, 1.0), ("0", "1"), (Fraction(1), 2)], ids=str)
    def test_rejects_non_integers(self, values):
        # a photon number is never truncated to an integer
        with pytest.raises(TypeError):
            NodeSet(values)

    def test_numpy_integers(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        ns = NodeSet((np.int64(0), np.int32(3)))
        assert ns.values == (0, 3) and all(type(v) is int for v in ns)


NUMERIC_STRINGS = {
    "spoly_eval": lambda: spoly_eval(2, "0.5", 2),
    "spoly_eval_exact": lambda: spoly_eval_exact(2, "0.5", 2),
    "exact_det": lambda: exact_det([["1/2"]]),
    "dense_det_bytes": lambda: dense_det([[b"2"]]),
    "dense_det_bytearray": lambda: dense_det([[bytearray(b"2")]]),
    "dense_det_memoryview": lambda: dense_det([[memoryview(b"2")]]),
    "vandermonde_S": lambda: vandermonde_S(NodeSet((0, 1)), "0.5"),
    "spoly_matrix": lambda: spoly_matrix(NodeSet((0, 1)), "0.5"),
    "cofactors": lambda: cofactors([["1", "2"], ["3", "4"]], 0),
    "cofactors_memoryview": lambda: cofactors([[memoryview(b"1"), 2], [3, 4]], 0),
}


@pytest.mark.parametrize("call", NUMERIC_STRINGS.values(), ids=NUMERIC_STRINGS)
def test_numeric_strings_are_not_numbers(call):
    # as in NodeSet, BeamSplitter and SignalState: a string is never parsed as a number
    with pytest.raises(TypeError):
        call()


class TestDenseDet:
    def test_identity(self):
        assert dense_det([[float(i == j) for j in range(3)] for i in range(3)]) == pytest.approx(1.0)

    def test_swap(self):
        assert dense_det([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(-1.0)

    def test_empty_is_one(self):
        assert dense_det([]) == 1.0

    def test_vandermonde_example(self):
        m = [[n**k for n in (0, 1, 2)] for k in range(3)]
        assert dense_det(m) == pytest.approx(2.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            dense_det([[0.0] * 3] * 2)

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="real matrix"):
            dense_det([[1j, 0], [0, 2.0]])

    def test_no_dimension_cap(self):
        # upper triangular with the rows reversed: det = (-1)^(n(n-1)/2) prod(diag)
        n = 80
        diag = [1.0 + i / (n - 1) for i in range(n)]
        u = [[0.0] * i + [diag[i]] + [0.5] * (n - 1 - i) for i in range(n)]
        want = (-1) ** (n * (n - 1) // 2) * math.prod(diag)
        assert dense_det(u[::-1]) == pytest.approx(want, rel=1e-12)

    def test_is_the_exact_determinant_rounded_once(self):
        # random rows, a zero column, a repeated row, and small integers whose
        # pivot candidates tie
        rng = random.Random(SEED)
        for i in range(520):
            n = i % 13
            if i % 4 < 3:
                m = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]
            else:
                m = [[float(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
            if i % 4 == 1 and n:
                col = rng.randrange(n)
                for row in m:
                    row[col] = 0.0
            if i % 4 == 2 and n > 1:
                m[rng.randrange(n)] = list(m[rng.randrange(n)])
            assert dense_det(m) == float(exact_det(m)), m

    def test_matches_exact_on_random_integer_matrices(self):
        rng = random.Random(SEED)
        for _ in range(20):
            n = rng.randrange(1, 7)
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert dense_det(m) == pytest.approx(float(exact_det(m)), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("det", [dense_det, exact_det])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
def test_non_finite_entries_raise_one_value_error(det, bad):
    # not the OverflowError or ValueError of an infinity's or a NaN's integer ratio,
    # nor an infinite or NaN determinant
    with pytest.raises(ValueError, match="finite"):
        det([[1.0, 0.0], [bad, 1.0]])


def _leibniz(m):
    """Permutation-sum determinant in Fractions, the reference for exact_det."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod((Fraction(m[i][j]) for i, j in enumerate(perm)), start=Fraction(1))
    return total


class TestExactDet:
    def test_empty_is_one(self):
        det = exact_det([])
        assert det == 1 and type(det) is Fraction

    @pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[]]], ids=["nonsquare", "ragged", "empty-row"])
    def test_rejects_nonsquare(self, rows):
        with pytest.raises(ValueError, match="square"):
            exact_det(rows)

    def test_zero_leading_entry_swaps_rows(self):
        assert exact_det([[0, 1], [1, 0]]) == -1
        assert exact_det([[0, 2, 0], [3, 0, 0], [0, 0, 5]]) == -30
        assert exact_det([[0, Fraction(1, 3)], [Fraction(2, 7), 5]]) == Fraction(-2, 21)

    def test_singular_rational_is_zero(self):
        r = [Fraction(1, 3), Fraction(2, 7), 0.5]
        det = exact_det([r, [2 * v for v in r], [Fraction(1, 5), 0.25, 3]])
        assert det == 0 and type(det) is Fraction

    def test_integer_input_returns_fraction(self):
        det = exact_det([[2, 1], [1, 3]])
        assert det == 5 and type(det) is Fraction

    def test_int64_array_input_returns_fraction(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        det = exact_det(np.array([[2, 1], [1, 3]], dtype=np.int64))
        assert det == 5 and type(det) is Fraction
        # numpy integers become Python ints, so no product wraps around in int64
        assert exact_det(np.array([[2**40, 1], [1, 2**40]], dtype=np.int64)) == 2**80 - 1

    def test_matches_leibniz_on_mixed_denominators(self):
        # rows mix thirds, sevenths, ... with binary floats and zeros, so the
        # row scales differ and some leading entries vanish
        rng = random.Random(SEED)
        for n in range(1, 7):
            for _ in range(4):
                rows = []
                for _ in range(n):
                    row = []
                    for _ in range(n):
                        kind = rng.randrange(0, 4)
                        if kind == 0:
                            row.append(0)
                        elif kind == 1:
                            row.append(rng.gauss(0, 1))
                        else:
                            q = rng.choice([3, 5, 6, 7, 9, 11, 13])
                            row.append(Fraction(rng.randrange(-20, 21), q))
                    rows.append(row)
                assert exact_det(rows) == _leibniz(rows), rows


def test_vandermonde_power_examples():
    assert vandermonde_power(NodeSet((0, 1))) == 1
    assert vandermonde_power(NodeSet((0, 1, 2))) == 2
    assert vandermonde_power(NodeSet((0, 2, 5))) == 30


def test_vandermonde_power_minimal_is_factorial_product():
    for N in range(1, 9):
        assert vandermonde_power(NodeSet.minimal(N)) == math.prod(math.factorial(k) for k in range(N))


def test_vandermonde_S_minimal_nodes():
    # at N = 40 and 60, V_N and prod k! each overflow a float; their ratio 1 does not
    for N in (*range(1, 8), 40, 60):
        x = 0.37
        want = (x * x - 1.0) ** (N * (N - 1) // 2)
        assert vandermonde_S(NodeSet.minimal(N), x) == pytest.approx(want, rel=1e-12)


def test_vandermonde_S_float_x_is_the_exact_value_rounded_once():
    # V_N / prod k! leaves the float range here though the value, 2.7e-9, does not
    nodes = NodeSet(tuple(range(0, 400, 10)))
    got = vandermonde_S(nodes, 0.95)
    assert type(got) is float
    assert got == pytest.approx(float(vandermonde_S(nodes, Fraction(0.95))), rel=1e-12)


def test_vandermonde_S_single_node():
    assert vandermonde_S(NodeSet((5,)), 0.3) == pytest.approx(1.0)


def test_vandermonde_S_explicit_determinant():
    nodes = NodeSet((0, 1, 3))
    x = 0.5
    det = dense_det(spoly_matrix(nodes, x))
    assert vandermonde_S(nodes, x) == pytest.approx(det, rel=1e-10)


def test_vandermonde_S_product_rule_random():
    # 50 random x values, N <= 10; determinant in exact arithmetic because the
    # product value is exponentially smaller than the matrix entries.  The
    # closed form follows the type of x: exact at a Fraction, and at a float
    # within 1e-12 of the exact determinant at that float, unscaled from spoly_det
    rng = random.Random(SEED)
    for _ in range(50):
        N = rng.randrange(1, 11)
        nodes = NodeSet(tuple(sorted(rng.sample(range(2 * N + 3), N))))
        x = Fraction(rng.randrange(-949, 950), 1000)
        assert vandermonde_S(nodes, x) == exact_det(spoly_matrix(nodes, x, exact=True)), (nodes, x)
        xf = float(x)
        a, b = xf.as_integer_ratio()
        assert type(vandermonde_S(nodes, xf)) is float
        det = Fraction(spoly_det(nodes, a, b), b ** (N * (N - 1)))
        assert vandermonde_S(nodes, xf) == pytest.approx(float(det), rel=1e-12), (nodes, x)


def _product_rule_exact(nodes, x) -> Fraction:
    """V(n) prod_k (x^2-1)^k / k! in Fractions."""
    u = Fraction(x) ** 2 - 1
    return vandermonde_power(nodes) * math.prod(u**k / math.factorial(k) for k in range(len(nodes)))


def test_spoly_det_equals_the_matrix_determinant_and_the_product_rule():
    # Bareiss on the integer rows gives b^{N(N-1)} times the determinant of the
    # element-wise exact matrix, and divided by it the closed form exactly:
    # every N = 1..6 set in 0..N+3, at x = 0 and +-1 (singular rows for N > 1),
    # thirds, a sample point of the suites and a binary float; then N = 10
    rng = random.Random(SEED)
    small = [s for N in range(1, 7) for s in itertools.combinations(range(N + 4), N)]
    large = [tuple(sorted(rng.sample(range(22), 10))) for _ in range(8)]
    for nodes in map(NodeSet, small + large):
        for x in (0, 1, -1, Fraction(1, 3), Fraction(-949, 1000), 0.37):
            a, b = x.as_integer_ratio()
            scale = b ** (len(nodes) * (len(nodes) - 1))
            det = spoly_det(nodes, a, b)
            assert type(det) is int, (nodes, x)
            assert det == scale * exact_det(spoly_matrix(nodes, x, exact=True)), (nodes, x)
            assert Fraction(det, scale) == _product_rule_exact(nodes, x) == vandermonde_S(nodes, Fraction(x)), (nodes, x)


def test_spoly_det_is_the_scaled_exact_determinant():
    # spoly_det(nodes, a, b) = b^{N(N-1)} det[S_k^{(a/b)}(n_l)] for a/b in lowest
    # terms or not, negative a included: a seeded family of N = 1..8 sets in
    # 0..2N+2, with a single node and x = +-1 (0 for N >= 2) in each size
    rng = random.Random(SEED + 1)
    for N in range(1, 9):
        for _ in range(12):
            nodes = NodeSet(tuple(sorted(rng.sample(range(2 * N + 3), N))))
            b = rng.randrange(1, 40)
            for a in (rng.randrange(-3 * b, 3 * b + 1), b, -b):
                want = b ** (N * (N - 1)) * exact_det(spoly_matrix(nodes, Fraction(a, b), exact=True))
                assert spoly_det(nodes, a, b) == want, (nodes, a, b)
                if abs(a) == b:
                    assert spoly_det(nodes, a, b) == (N == 1), (nodes, a, b)
    for n in (0, 1, 7):
        for a, b in ((-5, 3), (1, 1), (-1, 1), (0, 1)):
            assert spoly_det(NodeSet((n,)), a, b) == 1


def test_gapped_examples():
    assert gapped_vandermonde(2, 0) == 1
    assert gapped_vandermonde(4, 1) == 6
    assert vandermonde_power(NodeSet((0, 2, 3))) == 6
    assert gapped_vandermonde(5, 2) == 72
    with pytest.raises(ValueError):
        gapped_vandermonde(4, 4)


def test_gapped_S_rejects_gap_out_of_range():
    for N, gap in ((4, 4), (4, -1), (1, 1)):
        with pytest.raises(ValueError, match="gap"):
            gapped_vandermonde_S(N, gap, 3, 10)

def test_gapped_power_exact_all_gaps():
    for N in range(2, 11):
        for gap in range(N):
            nodes = NodeSet(tuple(v for v in range(N) if v != gap))
            assert vandermonde_power(nodes) == gapped_vandermonde(N, gap)


def test_gapped_s_basis_random_x():
    # both sides on spoly_det's scale b^{(N-1)(N-2)}, N - 1 nodes
    rng = random.Random(SEED)
    for N in range(2, 11):
        for gap in range(N):
            x = Fraction(rng.randrange(-949, 950), 1000)
            a, b = x.as_integer_ratio()
            nodes = NodeSet(tuple(v for v in range(N) if v != gap))
            det = b ** ((N - 1) * (N - 2)) * exact_det(spoly_matrix(nodes, x, exact=True))
            assert gapped_vandermonde_S(N, gap, a, b) == spoly_det(nodes, a, b) == det, (N, gap, x)


def test_column_splitting_lemma():
    # columns are constant-column + variable-column; the determinant expands
    # into only N+1 nonvanishing terms (two constant columns are proportional)
    rng = random.Random(SEED)
    for _ in range(30):
        N = rng.randrange(2, 9)
        var = [[rng.gauss(0, 1) for _ in range(N)] for _ in range(N)]
        const = [rng.gauss(0, 1) for _ in range(N)]
        full = dense_det(matrix_sum(var, [const] * N))
        expansion = dense_det(var)
        for m in range(N):
            expansion += dense_det([[const[j] if j == m else x for j, x in enumerate(row)] for row in var])
        assert full == pytest.approx(expansion, rel=1e-9, abs=1e-12)
