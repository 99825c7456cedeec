"""Two-mode Fock-space beam-splitter simulator.

Independent of the secular polynomial and the exact weights of
`gate_solver`: the columns of the sector unitaries U_M of a+ -> T a+ + r b+,
b+ -> -r a+ + T b+ are walked one creation operator per photon, column 0 of
U_M from column 0 of U_{M-1} and column k of U_M from column k-1 of
U_{M-1}, and the gate is verified end to end by projecting the ancilla back
onto its input photon number.  A diagonal element <k, n|U|k, n> needs only
column 0 of U_n and k raising steps, so the gate walks no other column.
Serves as the oracle for the diagonal matrix elements and for the sign-flip
rule c_N -> -c_N.  Each function that walks or contracts imports numpy when
called, so importing this module (as `nssgate` does) loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gate_solver import BeamSplitter, GateSolution, build_coefficient_matrix

__all__ = [
    "SECTOR_CAP",
    "SignalState",
    "bs_sector_unitary",
    "gate_amplitudes",
    "post_select",
    "apply_gate",
    "target_state",
    "fidelity",
]

# Largest photon sector built: the recursion's unitarity defect max|U^T U - 1|
# is <= 4.0e-12 for every M <= 34 at 41 values of |T| <= 0.99, 6.0e-10 at M = 50.
SECTOR_CAP = 34


@dataclass(frozen=True)
class SignalState:
    """(N+1)-dimensional signal state with amplitudes c_0..c_N."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("signal needs at least two levels")
        norm = sum(abs(c) ** 2 for c in coeffs)
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails this too
            raise ValueError("signal state must be normalized")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def N(self) -> int:
        return len(self.coefficients) - 1


def _walk(starts, top: int, bs: BeamSplitter):
    """Yield, for i = 0, 1, ..., column i of U_{n+i} for each start n with n + i <= top.

    Column 0 of U_m is (-r a+ + T b+) on column 0 of U_{m-1} over sqrt(m), and
    column i of U_{n+i} is (T a+ + r b+) on column i-1 of U_{n+i-1} over sqrt(i).
    The starts must increase, so the rows still going are a prefix; entry j of a
    row is level j of the signal mode, zero-padded to top + 1 entries.
    """
    import numpy as np
    if top < 0:
        raise ValueError("photon number must be non-negative")
    if top > SECTOR_CAP:
        raise ValueError(f"sector M={top} exceeds cap {SECTOR_CAP}")
    sq = np.sqrt(np.arange(1.0, top + 1))  # sqrt(j+1) for j = 0..top-1
    tsq, rsq = bs.T * sq, bs.r * sq
    # a+ |j, m-1-j> = sqrt(j+1) |j+1, m-1-j> and b+ |j, m-1-j> = sqrt(m-j) |j, m-j>
    chain = [np.ones(1)]
    for m in range(1, starts[-1] + 1):
        v = chain[-1] / sq[m - 1]
        col = np.zeros(m + 1)
        col[1:] = -rsq[:m] * v
        col[:-1] += tsq[m - 1 :: -1] * v
        chain.append(col)
    rows = np.zeros((len(starts), top + 1))
    for l, n in enumerate(starts):
        rows[l, : n + 1] = chain[n]
    # row l of rb holds the r b+ factor r sqrt(n+i-j) of entry j on the step from
    # U_{n+i-1} at S-i+j (S is the last step), and zero for j > n+i-1
    S = top - starts[0]
    padded = np.concatenate((np.zeros(S), rsq[::-1], np.zeros(top + 1)))
    rb = padded[(top - np.asarray(starts))[:, None] + np.arange(S + top + 1)]
    live = len(starts)
    yield rows
    for i in range(1, S + 1):
        while starts[live - 1] + i > top:
            live -= 1
        v = rows[:live] / sq[i - 1]
        rows = np.zeros(v.shape)
        rows[:, 1:] = tsq * v[:, :-1]
        rows += rb[:live, S - i : S - i + top + 1] * v
        yield rows


def bs_sector_unitary(M: int, bs: BeamSplitter) -> np.ndarray:
    """The real sector unitary u[kp, k] = <kp, M-kp| U |k, M-k>, of size M+1."""
    import numpy as np
    # column k is walked from column 0 of U_{M-k}: the last row still going after k steps
    return np.stack([rows[-1] for rows in _walk(range(M + 1), M, bs)], axis=1)


def gate_amplitudes(sol: GateSolution, full: bool = False) -> np.ndarray:
    """lambda_0..lambda_N: post-selected, signal level k comes out times lambda_k.

    By default the weights alpha_l gamma_l contract the rows of
    `build_coefficient_matrix` (a2 for k < N, a1 for k = N), for any N.  With
    full=True each diagonal element <k, n|U|k, n> is entry k of column k of
    the sector unitary U_{n+k}, walked from column 0 of U_n by k raising steps
    for all the nodes at once (photon-number selection-rule check); the
    sectors go up to N + max n <= SECTOR_CAP.
    """
    import numpy as np
    bs = BeamSplitter(sol.T)
    w = [a * g for a, g in zip(sol.alphas, sol.gammas)]
    if full:
        # post-selected on ancilla photon number n, the signal keeps level k:
        # diag[l, k] = <k, n_l|U|k, n_l>, entry k of column k of U_{n_l+k}
        walk = _walk(sol.nodes.values, sol.N + max(sol.nodes), bs)
        diag = np.stack([rows[:, k] for k, rows in zip(range(sol.N + 1), walk)], axis=1)
        return sum(wl * d for wl, d in zip(w, diag))
    a1, a2 = build_coefficient_matrix(sol.nodes, bs)
    return np.append(a2 @ w, a1[0] @ w)


def post_select(signal: SignalState, lam: np.ndarray):
    """(output SignalState, acceptance probability) of the signal through a
    gate with per-level amplitudes lam (`gate_amplitudes`)."""
    import numpy as np
    if len(lam) != signal.N + 1:
        raise ValueError("signal dimension does not match the gate order")
    out_raw = np.array(signal.coefficients) * lam
    prob = float(np.sum(np.abs(out_raw) ** 2))
    if prob <= 0.0:
        raise ValueError("post-selection never succeeds for this input")
    return SignalState(tuple(out_raw / math.sqrt(prob))), prob


def apply_gate(signal: SignalState, sol: GateSolution, full: bool = False):
    """Send the signal through the solved gate and post-select.

    Returns (output SignalState, probability, per-level amplitudes lambda_k).
    The gate works when all |lambda_k| coincide and lambda_N = -lambda_k for
    k < N; the acceptance probability is then |lambda_0|^2.  For many signals
    through one gate, call `gate_amplitudes` once and `post_select` per signal.
    """
    lam = gate_amplitudes(sol, full)
    return (*post_select(signal, lam), lam)


def target_state(signal: SignalState) -> SignalState:
    """The ideal gate output (c_0, ..., c_{N-1}, -c_N)."""
    c = list(signal.coefficients)
    c[-1] = -c[-1]
    return SignalState(tuple(c))


def fidelity(a: SignalState, b: SignalState) -> float:
    """|<a|b>|^2 (global phase dropped) of two states of the same dimension."""
    if a.N != b.N:
        raise ValueError("the two states differ in dimension")
    ov = sum(x.conjugate() * y for x, y in zip(a.coefficients, b.coefficients))
    return abs(ov) ** 2
