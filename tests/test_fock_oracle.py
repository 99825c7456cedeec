import itertools
import math

import numpy as np
import pytest

from nssgate.determinants import NodeSet
from nssgate.fock_oracle import (
    SECTOR_CAP,
    SignalState,
    apply_gate,
    bs_sector_unitary,
    fidelity,
    target_state,
)
from nssgate.gate_solver import (
    BeamSplitter,
    bs_diagonal_element,
    optimal_transmission,
    success_probability,
)
from nssgate.optimizer import scan_nodes

SEED = 4242


def _solve(N):
    return success_probability(NodeSet.minimal(N), optimal_transmission(N))


def _expanded_sector(M, bs):
    """Reference sector unitary: (T a+ + r b+)^k (-r a+ + T b+)^{M-k} |0>,
    normalised, expanded binomially over the Fock basis with float factorials."""
    T, r = bs.T, bs.r
    fact = [float(math.factorial(i)) for i in range(M + 1)]
    u = np.zeros((M + 1, M + 1))
    for k in range(M + 1):
        nb = M - k
        norm_in = math.sqrt(fact[k] * fact[nb])
        for kp in range(M + 1):
            acc = 0.0
            for i in range(max(0, kp - nb), min(k, kp) + 1):
                j = kp - i
                acc += math.comb(k, i) * T**i * r ** (k - i) * math.comb(nb, j) * (-r) ** j * T ** (nb - j)
            u[kp, k] = acc * math.sqrt(fact[kp] * fact[M - kp]) / norm_in
    return u


def _full_lambda_error(sol):
    """max_k |lambda_k - (+sqrt p, ..., +sqrt p, -sqrt p)_k| / sqrt p on the
    full=True path."""
    c = np.ones(sol.N + 1) / math.sqrt(sol.N + 1)
    _, _, lam = apply_gate(SignalState(tuple(c)), sol, full=True)
    want = np.full(sol.N + 1, math.sqrt(sol.p))
    want[-1] = -want[-1]
    return float(np.max(np.abs(lam - want))) / math.sqrt(sol.p)


class TestSignalState:
    def test_valid(self):
        s = SignalState((1.0, 0.0))
        assert s.N == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SignalState((1.0, 1.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SignalState((float("nan"), 0.0))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            SignalState((1.0,))


class TestSectorUnitary:
    def test_vacuum(self):
        u = bs_sector_unitary(0, BeamSplitter(0.5))
        assert u.shape == (1, 1)
        assert u[0, 0] == pytest.approx(1.0)

    def test_single_photon(self):
        T = 0.6
        u = bs_sector_unitary(1, BeamSplitter(T))
        r = math.sqrt(1 - T * T)
        assert np.allclose(u, [[T, r], [-r, T]])
        # diagonal: <1,0|U|1,0> = T and <0,1|U|0,1> = T
        assert u[1, 1] == pytest.approx(bs_diagonal_element(1, 0, BeamSplitter(T)).real)
        assert u[0, 0] == pytest.approx(bs_diagonal_element(0, 1, BeamSplitter(T)).real)

    def test_diagonal_matches_diagonal_element(self):
        # entry (k, n) is row kp = k, column k of the sector M = k + n.  The
        # float recursion is good to the worst measured 1.0e-13 absolute (at
        # M <= 34), so the bound is 1e-12 of the unit norm
        bs = BeamSplitter(1 - math.sqrt(2))
        for M in range(SECTOR_CAP + 1):
            u = bs_sector_unitary(M, bs)
            for k in range(M + 1):
                assert u[k, k] == pytest.approx(bs_diagonal_element(k, M - k, bs), rel=0, abs=1e-12), (k, M - k)

    def test_unitarity(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            T = float(rng.uniform(-0.99, 0.99))
            if abs(T) < 1e-3:
                T = 0.5
            for M in (1, 5, 12, 24):
                u = bs_sector_unitary(M, BeamSplitter(T))
                assert np.max(np.abs(u.T.conj() @ u - np.eye(M + 1))) <= 1e-10

    def test_matches_factorial_expansion(self):
        # the ladder recursion against the binomial expansion; worst measured
        # difference 2.4e-12 over 41 values of T in [-0.99, 0.99]
        for T in (-0.99, -0.69, -0.1487, 1 - math.sqrt(2), 0.3, 0.69, 0.99):
            bs = BeamSplitter(T)
            for M in range(SECTOR_CAP + 1):
                diff = np.max(np.abs(bs_sector_unitary(M, bs) - _expanded_sector(M, bs)))
                assert diff <= 5e-12, (T, M, diff)

    def test_unitarity_defect_up_to_cap(self):
        # worst measured 4.0e-12 on this grid, at large |T| and M near the cap
        for T in np.linspace(-0.99, 0.99, 41):
            bs = BeamSplitter(float(T))
            for M in range(SECTOR_CAP + 1):
                u = bs_sector_unitary(M, bs)
                assert np.max(np.abs(u.T @ u - np.eye(M + 1))) <= 1e-11, (T, M)

    def test_rejects_beyond_cap(self):
        with pytest.raises(ValueError):
            bs_sector_unitary(SECTOR_CAP + 1, BeamSplitter(0.5))
        with pytest.raises(ValueError):
            bs_sector_unitary(-1, BeamSplitter(0.5))


class TestApplyGate:
    def test_n1_deterministic(self):
        sol = _solve(1)
        s = SignalState((0.8, 0.6))
        out, p, lam = apply_gate(s, sol)
        assert p == pytest.approx(1.0, abs=1e-10)
        assert fidelity(out, SignalState((0.8, -0.6))) == pytest.approx(1.0, abs=1e-12)

    def test_n2_quarter_probability(self):
        sol = _solve(2)
        s = SignalState((0.5, 0.5, math.sqrt(0.5)))
        out, p, lam = apply_gate(s, sol)
        assert p == pytest.approx(0.25, abs=1e-9)
        assert fidelity(out, target_state(s)) == pytest.approx(1.0, abs=1e-10)
        # all |lambda_k| equal, last one sign-flipped
        assert np.allclose(np.abs(lam), abs(lam[0]), atol=1e-10)
        assert lam[2] == pytest.approx(-lam[0], abs=1e-9)

    def test_random_signals_n4(self):
        sol = _solve(4)
        rng = np.random.default_rng(SEED)
        for _ in range(25):
            c = rng.normal(size=5) + 1j * rng.normal(size=5)
            c /= np.linalg.norm(c)
            s = SignalState(tuple(c))
            out, p, _ = apply_gate(s, sol)
            assert fidelity(out, target_state(s)) >= 1 - 1e-9
            assert p == pytest.approx(1 / 16, abs=1e-8)

    def test_full_projection_matches_diagonal_sum(self):
        # photon-number selection rule: the complete sector expansion reduces
        # to the diagonal-only amplitudes
        for N in (1, 2, 3, 5):
            sol = _solve(N)
            c = np.ones(N + 1) / math.sqrt(N + 1)
            s = SignalState(tuple(c))
            _, p_diag, lam_diag = apply_gate(s, sol)
            _, p_full, lam_full = apply_gate(s, sol, full=True)
            assert np.max(np.abs(lam_diag - lam_full)) <= 1e-12
            assert p_diag == pytest.approx(p_full, abs=1e-12)

    def test_full_projection_on_every_small_node_set(self):
        # the best gate of every node set with N = 2..6 in 0..N+3 (456 gates);
        # worst measured 4.1e-12 relative to sqrt p
        gates = 0
        for N in range(2, 7):
            for nodes in itertools.combinations(range(N + 4), N):
                best = scan_nodes(NodeSet(nodes)).best
                assert _full_lambda_error(best.solution) <= 1e-10, nodes
                gates += 1
        assert gates == 456

    def test_full_projection_on_gapped_n14(self):
        # photon sectors up to M = 30; measured 1.9e-9 relative to sqrt p
        best = scan_nodes(NodeSet((1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16))).best
        assert _full_lambda_error(best.solution) <= 2.5e-9

    def test_gate_is_diagonal_on_basis_states(self):
        sol = _solve(3)
        for k in range(4):
            c = np.zeros(4)
            c[k] = 1.0
            out, p, _ = apply_gate(SignalState(tuple(c)), sol)
            amps = np.abs(np.array(out.coefficients))
            assert amps[k] == pytest.approx(1.0, abs=1e-12)
            assert np.sum(amps) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        sol = _solve(2)
        with pytest.raises(ValueError):
            apply_gate(SignalState((1.0, 0.0)), sol)


def test_target_and_fidelity_helpers():
    s = SignalState((0.6, 0.8))
    t = target_state(s)
    assert t.coefficients == (0.6 + 0j, -0.8 + 0j)
    assert fidelity(s, s) == pytest.approx(1.0)
    assert fidelity(s, t) == pytest.approx((0.36 - 0.64) ** 2)
