import itertools
import math
import random

import pytest

from nssgate.determinants import NodeSet
from nssgate.fock_oracle import (
    SECTOR_CAP,
    SignalState,
    _post_select,
    apply_gate,
    bs_sector_unitary,
    gate_amplitudes,
)
from nssgate.gate_solver import (
    BeamSplitter,
    bs_diagonal_element,
    optimal_transmission,
    success_probability,
)
from nssgate.optimizer import scan_nodes
from reference import gram_defect, overlap_squared, random_signal, sectors_reference, sign_flipped

SEED = 4242
# 0, +-1, +-0.99 j/40 for j = 1..40, and six more, among them the paper's N = 2 root
REFERENCE_TS = (
    (0.0, 1.0, -1.0)
    + tuple(s * 0.99 * j / 40 for j in range(1, 41) for s in (1, -1))
    + (-0.7, -0.2929, 0.05, 0.3, 0.95, 1 - math.sqrt(2))
)
GAPPED_14 = (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16)


def _solve(N):
    return success_probability(NodeSet.minimal(N), optimal_transmission(N))


def _expanded_sector(M, bs):
    """Reference sector unitary: (T a+ + r b+)^k (-r a+ + T b+)^{M-k} |0>,
    normalised, expanded binomially over the Fock basis with float factorials,
    as M + 1 rows u[kp][k]."""
    T, r = bs.T, bs.r
    fact = [float(math.factorial(i)) for i in range(M + 1)]
    u = [[0.0] * (M + 1) for _ in range(M + 1)]
    for k in range(M + 1):
        nb = M - k
        norm_in = math.sqrt(fact[k] * fact[nb])
        for kp in range(M + 1):
            acc = 0.0
            for i in range(max(0, kp - nb), min(k, kp) + 1):
                j = kp - i
                acc += math.comb(k, i) * T**i * r ** (k - i) * math.comb(nb, j) * (-r) ** j * T ** (nb - j)
            u[kp][k] = acc * math.sqrt(fact[kp] * fact[M - kp]) / norm_in
    return u


@pytest.fixture(scope="module")
def small_gates():
    """The best gate of every node set with N = 2..6 in 0..N+3 (456 gates)."""
    return [scan_nodes(NodeSet(nodes)).best.solution for N in range(2, 7) for nodes in itertools.combinations(range(N + 4), N)]


def _lambda_reference(sol):
    """lambda_k summed over the nodes, in order from int 0, of <k, n|U|k, n> read
    off the whole sectors of `sectors_reference`, as a list."""
    w = [a * g for a, g in zip(sol.alphas, sol.gammas)]
    sectors = sectors_reference(sol.N + max(sol.nodes), BeamSplitter(sol.T))
    return [sum(wl * sectors[k + n][k][k] for wl, n in zip(w, sol.nodes)) for k in range(sol.N + 1)]


def _lambda_error(sol, full):
    """max_k |lambda_k - (+sqrt p, ..., +sqrt p, -sqrt p)_k| / sqrt p."""
    lam, q = gate_amplitudes(sol, full), math.sqrt(sol.p)
    return max(abs(x - y) for x, y in zip(lam, [q] * sol.N + [-q])) / q


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

    @pytest.mark.parametrize("coefficients", [(1e200, 0.0), (complex(1e300, 1e300), 0.0)], ids=repr)
    def test_rejects_amplitudes_past_the_float_range(self, coefficients):
        # |c|^2 overflows: the norm is infinite, not an OverflowError
        with pytest.raises(ValueError, match="normalized"):
            SignalState(coefficients)

    @pytest.mark.parametrize("coefficients", [("1", "0"), (1.0, "0j"), "10"], ids=repr)
    def test_rejects_strings(self, coefficients):
        # complex("1") parses, so a string amplitude would pass as a number
        with pytest.raises(TypeError, match="str"):
            SignalState(coefficients)

    @pytest.mark.parametrize("coefficients", [b"\x01\x00", bytearray(b"\x01\x00")], ids=repr)
    def test_rejects_bytes(self, coefficients):
        # iterating bytes yields ints, so b"\x01\x00" would read as the state (1, 0)
        with pytest.raises(TypeError, match="bytes"):
            SignalState(coefficients)

    def test_takes_a_bool_amplitude_as_an_int(self):
        # as NodeSet and BeamSplitter do
        assert SignalState((True, False)).coefficients == (1 + 0j, 0j)


class TestSectorUnitary:
    def test_vacuum(self):
        u = bs_sector_unitary(0, BeamSplitter(0.5))
        assert len(u) == len(u[0]) == 1
        assert u[0][0] == pytest.approx(1.0)

    def test_single_photon(self):
        T = 0.6
        u = bs_sector_unitary(1, BeamSplitter(T))
        r = math.sqrt(1 - T * T)
        assert u == [pytest.approx([T, r]), pytest.approx([-r, T])]
        # diagonal: <1,0|U|1,0> = T and <0,1|U|0,1> = T
        assert u[1][1] == pytest.approx(bs_diagonal_element(1, 0, BeamSplitter(T)).real)
        assert u[0][0] == pytest.approx(bs_diagonal_element(0, 1, BeamSplitter(T)).real)

    def test_diagonal_matches_diagonal_element(self):
        # entry (k, n) is row kp = k, column k of the sector M = k + n.  The
        # float recursion is good to the worst measured 1.0e-13 absolute (at
        # M <= 34), so the bound is 1e-12 of the unit norm
        bs = BeamSplitter(1 - math.sqrt(2))
        for M in range(SECTOR_CAP + 1):
            u = bs_sector_unitary(M, bs)
            for k in range(M + 1):
                assert u[k][k] == pytest.approx(bs_diagonal_element(k, M - k, bs), rel=0, abs=1e-12), (k, M - k)

    def test_unitarity(self):
        rng = random.Random(SEED)
        for _ in range(20):
            T = rng.uniform(-0.99, 0.99)
            if abs(T) < 1e-3:
                T = 0.5
            for M in (1, 5, 12, 24):
                assert gram_defect(bs_sector_unitary(M, BeamSplitter(T))) <= 1e-10

    def test_matches_factorial_expansion(self):
        # the ladder recursion against the binomial expansion; worst measured
        # difference 2.4e-12 over 41 values of T in [-0.99, 0.99]
        for T in (-0.99, -0.69, -0.1487, 1 - math.sqrt(2), 0.3, 0.69, 0.99):
            bs = BeamSplitter(T)
            for M in range(SECTOR_CAP + 1):
                rows = zip(bs_sector_unitary(M, bs), _expanded_sector(M, bs))
                diff = max(abs(x - y) for u, v in rows for x, y in zip(u, v))
                assert diff <= 5e-12, (T, M, diff)

    def test_unitarity_defect_up_to_cap(self):
        # worst measured 4.0e-12 on this grid, at large |T| and M near the cap
        for T in (0.99 * j / 20 for j in range(-20, 21)):
            bs = BeamSplitter(T)
            for M in range(SECTOR_CAP + 1):
                assert gram_defect(bs_sector_unitary(M, bs)) <= 1e-11, (T, M)

    def test_equals_the_whole_sectors(self):
        # each column walked from column 0 of a lower sector takes the divisions
        # and products of the whole-sector recursion in the same order, so it is
        # equal to that column; at T = 0 and +-1 some exact zeros differ in sign
        for T in REFERENCE_TS:
            bs = BeamSplitter(T)
            want = sectors_reference(SECTOR_CAP, bs)
            for M in range(SECTOR_CAP + 1):
                assert bs_sector_unitary(M, bs) == want[M], (T, M)

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
        assert overlap_squared(out.coefficients, (0.8, -0.6)) == pytest.approx(1.0, abs=1e-12)

    def test_n2_quarter_probability(self):
        sol = _solve(2)
        s = SignalState((0.5, 0.5, math.sqrt(0.5)))
        out, p, lam = apply_gate(s, sol)
        assert p == pytest.approx(0.25, abs=1e-9)
        assert overlap_squared(out.coefficients, sign_flipped(s.coefficients)) == pytest.approx(1.0, abs=1e-10)
        # all |lambda_k| equal, last one sign-flipped
        assert max(abs(abs(x) - abs(lam[0])) for x in lam) <= 1e-10
        assert lam[2] == pytest.approx(-lam[0], abs=1e-9)

    def test_random_signals_n4(self):
        sol = _solve(4)
        rng = random.Random(SEED)
        for _ in range(25):
            s = SignalState(random_signal(rng, 5))
            out, p, _ = apply_gate(s, sol)
            assert overlap_squared(out.coefficients, sign_flipped(s.coefficients)) >= 1 - 1e-9
            assert p == pytest.approx(1 / 16, abs=1e-8)

    def test_full_projection_matches_diagonal_sum(self):
        # photon-number selection rule: the complete sector expansion reduces
        # to the diagonal-only amplitudes
        for N in (1, 2, 3, 5):
            sol = _solve(N)
            s = SignalState((1 / math.sqrt(N + 1),) * (N + 1))
            _, p_diag, lam_diag = apply_gate(s, sol)
            _, p_full, lam_full = apply_gate(s, sol, full=True)
            assert max(abs(x - y) for x, y in zip(lam_diag, lam_full)) <= 1e-12
            assert p_diag == pytest.approx(p_full, abs=1e-12)

    def test_full_projection_on_every_small_node_set(self, small_gates):
        # worst measured 4.1e-12 relative to sqrt p
        assert len(small_gates) == 456
        for sol in small_gates:
            assert _lambda_error(sol, full=True) <= 1e-10, sol.nodes

    def test_full_projection_on_gapped_n14(self):
        # photon sectors up to M = 30; measured 1.9e-9 relative to sqrt p
        best = scan_nodes(NodeSet(GAPPED_14)).best
        assert _lambda_error(best.solution, full=True) <= 2.5e-9

    def test_full_projection_equals_the_whole_sectors(self, small_gates):
        # the column walk takes each element's divisions and products in the
        # order of the whole-sector recursion, so lambda is the same float; the
        # minimal gates add N = 1 and N > 6, and (0, 32) walks to the cap
        extra = [scan_nodes(NodeSet(nodes)).best.solution for nodes in (GAPPED_14, (0, 32))]
        for sol in [*small_gates, *map(_solve, range(1, 18)), *extra]:
            assert list(gate_amplitudes(sol, full=True)) == _lambda_reference(sol), sol.nodes

    def test_full_projection_up_to_the_cap(self):
        # N + max n is the top sector: 34 for (0, 32), one past the cap for (0, 33);
        # measured 1.3e-12 relative to sqrt p at the cap
        sol = scan_nodes(NodeSet((0, 32))).best.solution
        assert _lambda_error(sol, full=True) <= 1e-10
        sol = scan_nodes(NodeSet((0, 33))).best.solution
        with pytest.raises(ValueError, match="M=35"):
            gate_amplitudes(sol, full=True)

    def test_gate_is_diagonal_on_basis_states(self):
        sol = _solve(3)
        for k in range(4):
            out, p, _ = apply_gate(SignalState(tuple(float(j == k) for j in range(4))), sol)
            amps = [abs(c) for c in out.coefficients]
            assert amps[k] == pytest.approx(1.0, abs=1e-12)
            assert sum(amps) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("N", [20, 50, 100, 136])
    def test_default_path_past_fourteen(self, N):
        # the exact diagonal elements have no N limit; measured 3.2e-15 at
        # N = 20, 4.5e-15 at N = 50, 1.5e-14 at N = 100 and 2.0e-14 at N = 136
        # relative to sqrt p (about 0.4 s and 1.2 s for the last two)
        assert _lambda_error(_solve(N), full=False) <= 1e-12

    def test_post_select_reuses_the_amplitudes(self):
        sol = _solve(5)
        lam = gate_amplitudes(sol)
        rng = random.Random(SEED)
        for _ in range(5):
            s = SignalState(random_signal(rng, 6))
            out, p = _post_select(s, lam)
            want_out, want_p, want_lam = apply_gate(s, sol)
            assert out == want_out and p == want_p and lam == want_lam

    def test_dimension_mismatch_rejected(self):
        sol = _solve(2)
        with pytest.raises(ValueError):
            apply_gate(SignalState((1.0, 0.0)), sol)

    @pytest.mark.parametrize("full", [False, True])
    def test_amplitudes_are_a_tuple_of_floats(self, full):
        lam = gate_amplitudes(scan_nodes(NodeSet((0, 2, 3, 5, 6, 9))).best.solution, full)
        assert type(lam) is tuple and len(lam) == 7 and all(type(x) is float for x in lam)

    # the last two overflow as squares and as a sum of two finite squares
    @pytest.mark.parametrize("lam", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 1.0), (1e200, 1e200), (1.5e154, 1.5e154)], ids=repr)
    def test_post_select_rejects_a_probability_not_finite_and_positive(self, lam):
        # one ValueError, not a RuntimeWarning and then a complaint about the norm
        with pytest.raises(ValueError, match="finite and positive"):
            _post_select(SignalState((math.sqrt(0.5), math.sqrt(0.5))), lam)



def test_target_and_fidelity_helpers():
    # the one-signal judge the tests above use: the sign-flipped target and |<a|b>|^2
    s = SignalState((0.6, 0.8))
    t = sign_flipped(s.coefficients)
    assert t == (0.6, -0.8)
    assert overlap_squared(s.coefficients, s.coefficients) == pytest.approx(1.0)
    assert overlap_squared(s.coefficients, t) == pytest.approx((0.36 - 0.64) ** 2)


def test_fidelity_rejects_a_dimension_mismatch():
    # zipping the two states would drop the third level and give 1.0
    with pytest.raises(ValueError):
        overlap_squared((1.0, 0.0), (1.0, 0.0, 0.0))
