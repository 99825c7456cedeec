import math
from fractions import Fraction

import numpy as np
import pytest

from nssgate.determinants import (
    NodeSet,
    dense_det,
    exact_det,
    gapped_vandermonde,
    spoly_matrix,
    vandermonde_S,
    vandermonde_power,
)

SEED = 977


class TestNodeSet:
    def test_valid(self):
        ns = NodeSet((0, 2, 5))
        assert list(ns) == [0, 2, 5]
        assert len(ns) == 3
        assert ns.total == 7

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
        ns = NodeSet((np.int64(0), np.int32(3)))
        assert ns.values == (0, 3) and all(type(v) is int for v in ns)


class TestDenseDet:
    def test_identity(self):
        assert dense_det(np.eye(3)) == pytest.approx(1.0)

    def test_swap(self):
        assert dense_det([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(-1.0)

    def test_empty_is_one(self):
        assert dense_det(np.zeros((0, 0))) == 1.0

    def test_vandermonde_example(self):
        m = [[n**k for n in (0, 1, 2)] for k in range(3)]
        assert dense_det(np.array(m, dtype=float)) == pytest.approx(2.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            dense_det(np.zeros((2, 3)))

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="real matrix"):
            dense_det(np.array([[1j, 0], [0, 2.0]]))

    def test_no_dimension_cap(self):
        # upper triangular with the rows reversed: det = (-1)^(n(n-1)/2) prod(diag)
        n = 80
        u = np.triu(np.full((n, n), 0.5)) + np.diag(np.linspace(0.5, 1.5, n))
        want = (-1) ** (n * (n - 1) // 2) * float(np.prod(np.diag(u)))
        assert dense_det(u[::-1]) == pytest.approx(want, rel=1e-12)

    def test_matches_exact_on_random_integer_matrices(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.integers(-9, 10, size=(n, n))
            assert dense_det(m.astype(float)) == pytest.approx(float(exact_det(m.tolist())), rel=1e-10, abs=1e-10)


def test_vandermonde_power_examples():
    assert vandermonde_power(NodeSet((0, 1))) == 1
    assert vandermonde_power(NodeSet((0, 1, 2))) == 2
    assert vandermonde_power(NodeSet((0, 2, 5))) == 30


def test_vandermonde_power_minimal_is_factorial_product():
    for N in range(1, 9):
        assert vandermonde_power(NodeSet.minimal(N)) == math.prod(math.factorial(k) for k in range(N))


def test_vandermonde_S_minimal_nodes():
    for N in range(1, 8):
        x = 0.37
        want = (x * x - 1.0) ** (N * (N - 1) // 2)
        assert vandermonde_S(NodeSet.minimal(N), x) == pytest.approx(want, rel=1e-12)


def test_vandermonde_S_single_node():
    assert vandermonde_S(NodeSet((5,)), 0.3) == pytest.approx(1.0)


def test_vandermonde_S_explicit_determinant():
    nodes = NodeSet((0, 1, 3))
    x = 0.5
    det = dense_det(spoly_matrix(nodes, x))
    assert vandermonde_S(nodes, x) == pytest.approx(det, rel=1e-10)


def test_vandermonde_S_product_rule_random():
    # 50 random x values, N <= 10; determinant in exact arithmetic because the
    # product value is exponentially smaller than the matrix entries
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        N = int(rng.integers(1, 11))
        vals = sorted(rng.choice(np.arange(0, 2 * N + 3), size=N, replace=False).tolist())
        nodes = NodeSet(tuple(int(v) for v in vals))
        x = Fraction(int(rng.integers(-949, 950)), 1000)
        det = float(exact_det(spoly_matrix(nodes, x, exact=True)))
        assert det == pytest.approx(vandermonde_S(nodes, float(x)), rel=1e-9)


def test_gapped_examples():
    assert gapped_vandermonde(2, 0).power == 1
    assert gapped_vandermonde(4, 1).power == 6
    assert vandermonde_power(NodeSet((0, 2, 3))) == 6
    assert gapped_vandermonde(5, 2).power == 72
    with pytest.raises(ValueError):
        gapped_vandermonde(4, 4)


def test_gapped_power_exact_all_gaps():
    for N in range(2, 11):
        for gap in range(N):
            nodes = NodeSet(tuple(v for v in range(N) if v != gap))
            assert vandermonde_power(nodes) == gapped_vandermonde(N, gap).power


def test_gapped_s_basis_random_x():
    rng = np.random.default_rng(SEED)
    for N in range(2, 11):
        for gap in range(N):
            x = Fraction(int(rng.integers(-949, 950)), 1000)
            nodes = NodeSet(tuple(v for v in range(N) if v != gap))
            det = float(exact_det(spoly_matrix(nodes, x, exact=True)))
            assert det == pytest.approx(gapped_vandermonde(N, gap).s_basis(float(x)), rel=1e-10)


def test_column_splitting_lemma():
    # columns are constant-column + variable-column; the determinant expands
    # into only N+1 nonvanishing terms (two constant columns are proportional)
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        N = int(rng.integers(2, 9))
        var = rng.normal(size=(N, N))
        const = np.outer(np.ones(N), rng.normal(size=N))
        full = dense_det(var + const)
        expansion = dense_det(var)
        for m in range(N):
            repl = var.copy()
            repl[:, m] = const[:, m]
            expansion += dense_det(repl)
        assert full == pytest.approx(expansion, rel=1e-9, abs=1e-12)
