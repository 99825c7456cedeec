"""Brute-force two-mode Fock-space beam-splitter simulator.

Independent of the secular polynomial and the binomial inverse of
`gate_solver`: sector unitaries are built by expanding
(T a+ + r b+)^k (-r a+ + T b+)^{M-k} over the Fock basis for the real
transmission T, and the gate is verified end to end by projecting the
ancilla back onto its input photon number.  Serves as the oracle for the
diagonal matrix elements and for the sign-flip rule c_N -> -c_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gate_solver import BeamSplitter, GateSolution, bs_diagonal_element

__all__ = [
    "FACTORIAL_CAP",
    "SignalState",
    "bs_sector_unitary",
    "apply_gate",
    "target_state",
    "fidelity",
]

FACTORIAL_CAP = 34
_FACT = [float(math.factorial(i)) for i in range(FACTORIAL_CAP + 1)]


@dataclass(frozen=True)
class SignalState:
    """(N+1)-dimensional signal state with amplitudes c_0..c_N."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("signal needs at least two levels")
        norm = sum(abs(c) ** 2 for c in coeffs)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("signal state must be normalized")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def N(self) -> int:
        return len(self.coefficients) - 1


def bs_sector_unitary(M: int, bs: BeamSplitter) -> np.ndarray:
    """Expand the mode transformation a+ -> T a+ + r b+, b+ -> -r a+ + T b+
    combinatorially within the M-photon sector.

    Returns the real (M+1) x (M+1) array u[kp, k] = <kp, M-kp| U |k, M-k>."""
    if M < 0:
        raise ValueError("photon number must be non-negative")
    if M > FACTORIAL_CAP:
        raise ValueError(f"sector M={M} exceeds cap {FACTORIAL_CAP}")
    T = bs.T
    r = bs.r
    u = np.zeros((M + 1, M + 1))
    for k in range(M + 1):
        nb = M - k
        norm_in = math.sqrt(_FACT[k] * _FACT[nb])
        for kp in range(M + 1):
            acc = 0.0
            for i in range(max(0, kp - nb), min(k, kp) + 1):
                j = kp - i
                acc += math.comb(k, i) * T**i * r ** (k - i) * math.comb(nb, j) * (-r) ** j * T ** (nb - j)
            u[kp, k] = acc * math.sqrt(_FACT[kp] * _FACT[M - kp]) / norm_in
    return u


def _per_level_amplitudes(sol: GateSolution, N: int, full: bool) -> np.ndarray:
    bs = BeamSplitter(sol.T)
    weights = [a * g for a, g in zip(sol.alphas, sol.gammas)]
    lam = np.zeros(N + 1)
    for k in range(N + 1):
        acc = 0.0
        for w, n in zip(weights, sol.nodes):
            if full:
                # post-selected on ancilla photon number n, the signal keeps level k
                acc += w * bs_sector_unitary(k + n, bs)[k, k]
            else:
                acc += w * bs_diagonal_element(k, n, bs)
        lam[k] = acc
    return lam


def apply_gate(signal: SignalState, sol: GateSolution, full: bool = False):
    """Send the signal through the solved gate and post-select.

    Returns (output SignalState, probability, per-level amplitudes lambda_k).
    The gate works when all |lambda_k| coincide and lambda_N = -lambda_k for
    k < N; the acceptance probability is then |lambda_0|^2.  With full=True
    the amplitudes are accumulated from the complete sector unitaries instead
    of the diagonal-element formula (photon-number selection-rule check).
    """
    N = signal.N
    if N != sol.N:
        raise ValueError("signal dimension does not match the gate order")
    top = N + max(sol.nodes)
    if top > FACTORIAL_CAP:
        raise ValueError(f"requires sector M={top} beyond cap {FACTORIAL_CAP}")
    lam = _per_level_amplitudes(sol, N, full)
    out_raw = np.array(signal.coefficients) * lam
    prob = float(np.sum(np.abs(out_raw) ** 2))
    if prob <= 0.0:
        raise ValueError("post-selection never succeeds for this input")
    out = out_raw / math.sqrt(prob)
    return SignalState(tuple(out)), prob, lam


def target_state(signal: SignalState) -> SignalState:
    """The ideal gate output (c_0, ..., c_{N-1}, -c_N)."""
    c = list(signal.coefficients)
    c[-1] = -c[-1]
    return SignalState(tuple(c))


def fidelity(a: SignalState, b: SignalState) -> float:
    """|<a|b>|^2 (global phase dropped)."""
    ov = sum(x.conjugate() * y for x, y in zip(a.coefficients, b.coefficients))
    return abs(ov) ** 2
