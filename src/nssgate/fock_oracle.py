"""Two-mode Fock-space beam-splitter simulator.

Independent of the secular polynomial and the exact weights of
`gate_solver`: the sector unitaries U_0..U_M of a+ -> T a+ + r b+,
b+ -> -r a+ + T b+ are built in one pass, one creation operator per photon,
and the gate is verified end to end by projecting the ancilla back onto its
input photon number.  Serves as the oracle for the diagonal matrix elements
and for the sign-flip rule c_N -> -c_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _sectors(top: int, bs: BeamSplitter) -> list:
    """[U_0, ..., U_top]: column k of U_M is (T a+ + r b+) on column k-1 of U_{M-1}
    over sqrt(k), and column 0 is (-r a+ + T b+) on column 0 over sqrt(M)."""
    if top < 0:
        raise ValueError("photon number must be non-negative")
    if top > SECTOR_CAP:
        raise ValueError(f"sector M={top} exceeds cap {SECTOR_CAP}")
    sq = np.sqrt(np.arange(1.0, top + 1))  # sqrt(j+1) for j = 0..top-1
    tsq, rsq = bs.T * sq, bs.r * sq
    us = [np.ones((1, 1))]
    for M in range(1, top + 1):
        # the column of U_{M-1} each column of U_M starts from, over sqrt(M), sqrt(1), ..., sqrt(M)
        prev = np.empty((M, M + 1))
        prev[:, 0] = us[-1][:, 0] / sq[M - 1]
        prev[:, 1:] = us[-1] / sq[:M]
        u = np.zeros((M + 1, M + 1))
        # a+ |j, M-1-j> = sqrt(j+1) |j+1, M-1-j> and b+ |j, M-1-j> = sqrt(M-j) |j, M-j>
        u[1:, 0] = -rsq[:M] * prev[:, 0]  # column 0: (-r a+ + T b+)
        u[:-1, 0] += tsq[M - 1 :: -1] * prev[:, 0]
        u[1:, 1:] = tsq[:M, None] * prev[:, 1:]  # columns 1..M: (T a+ + r b+)
        u[:-1, 1:] += rsq[M - 1 :: -1, None] * prev[:, 1:]
        us.append(u)
    return us


def bs_sector_unitary(M: int, bs: BeamSplitter) -> np.ndarray:
    """The real sector unitary u[kp, k] = <kp, M-kp| U |k, M-k>, of size M+1."""
    return _sectors(M, bs)[M]


def gate_amplitudes(sol: GateSolution, full: bool = False) -> np.ndarray:
    """lambda_0..lambda_N: post-selected, signal level k comes out times lambda_k.

    By default the weights alpha_l gamma_l contract the rows of
    `build_coefficient_matrix` (a2 for k < N, a1 for k = N), for any N.  With
    full=True each diagonal element comes from the sector unitaries, built
    once up to N + max n <= SECTOR_CAP (photon-number selection-rule check).
    """
    bs = BeamSplitter(sol.T)
    w = [a * g for a, g in zip(sol.alphas, sol.gammas)]
    if full:
        # post-selected on ancilla photon number n, the signal keeps level k
        sectors = _sectors(sol.N + max(sol.nodes), bs)
        return np.array([sum(wl * sectors[k + n][k, k] for wl, n in zip(w, sol.nodes)) for k in range(sol.N + 1)])
    a1, a2 = build_coefficient_matrix(sol.nodes, bs)
    return np.append(a2 @ w, a1[0] @ w)


def post_select(signal: SignalState, lam: np.ndarray):
    """(output SignalState, acceptance probability) of the signal through a
    gate with per-level amplitudes lam (`gate_amplitudes`)."""
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
    """|<a|b>|^2 (global phase dropped)."""
    ov = sum(x.conjugate() * y for x, y in zip(a.coefficients, b.coefficients))
    return abs(ov) ** 2
