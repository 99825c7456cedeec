"""Two-mode Fock-space beam-splitter simulator.

A gate's amplitude lambda_k is its weights alpha_l gamma_l from `gate_solver`
contracted with the diagonal elements <k, n|U|k, n>.  The default path, which
`nssgate verify` runs, takes the elements from `build_coefficient_matrix`, the
solver's own exact S-polynomial elements; only the full=True walk forms them
apart from `gate_solver`, walking the columns of the sector unitaries U_M of
a+ -> T a+ + r b+, b+ -> -r a+ + T b+ one creation operator per photon.  The
column-0 chain goes once from column 0 of U_{m-1} to column 0 of U_m, and each
start is then raised alone: column k of U_M is k raising steps from column 0
of U_{M-k}, so a diagonal element needs only column 0 of U_n and k raising
steps.  Both paths run on plain floats and check the sign-flip rule c_N -> -c_N.
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
    "apply_gate",
]

# Largest photon sector built: the recursion's unitarity defect max|U^T U - 1|
# is <= 4.0e-12 for every M <= 34 at 41 values of |T| <= 0.99, 6.0e-10 at M = 50.
SECTOR_CAP = 34


@dataclass(frozen=True)
class SignalState:
    """(N+1)-dimensional signal state with amplitudes c_0..c_N.  A str amplitude or a
    bytes or bytearray container raises TypeError, as the beam splitter's T does; a
    bool amplitude is an int, as in NodeSet and BeamSplitter."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        if isinstance(self.coefficients, (bytes, bytearray)) or any(isinstance(c, str) for c in coeffs):
            raise TypeError("the signal takes numbers, not str or bytes")  # complex() would parse a str
        coeffs = tuple(complex(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("signal needs at least two levels")
        norm = sum(c.real * c.real + c.imag * c.imag for c in coeffs)  # inf past the float range
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails this too
            raise ValueError("signal state must be normalized")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def N(self) -> int:
        return len(self.coefficients) - 1


def _ladder(col: list, s: float, up: list, down: list) -> list:
    """One step of the recursion on a column: every entry over s, then entry
    p is up[p] times entry p-1 plus down[p] times entry p (entry -1 is zero),
    the division, products and sum of the whole-sector recursion
    (`tests/reference.py`), so each entry is the same float.  zip stops at
    the shortest of the four."""
    v = [0.0]
    v += [x / s for x in col]
    return [a * x + b * y for a, x, b, y in zip(up, v, down, v[1:])]


def _chain(top: int, width: int, last: int, bs: BeamSplitter) -> tuple:
    """(cols, roots, up, down) for sectors up to top, in plain floats: cols[m]
    is entries 0..width-1 of column 0 of U_m for m = 0..last (entry j is
    level j of the signal mode), roots[j] = sqrt(j) for j = 0..top, and entry
    j of up and entry top - m + j of down are the factors T sqrt(j) and
    r sqrt(m-j) of a raising step into sector m.

    Column 0 of U_m is (-r a+ + T b+) on column 0 of U_{m-1} over sqrt(m), and
    column i of U_{m+i} is (T a+ + r b+) on column i-1 of U_{m+i-1} over
    sqrt(i).  Entry j of a column takes entries j-1 and j of the one before,
    so the first width entries need no others.
    """
    if top < 0:
        raise ValueError("photon number must be non-negative")
    if top > SECTOR_CAP:
        raise ValueError(f"sector M={top} exceeds cap {SECTOR_CAP}")
    roots = [math.sqrt(j) for j in range(top + 1)]
    pad = [0.0] * width
    # a+ |j-1, m-j> = sqrt(j) |j, m-j> and b+ |j, m-1-j> = sqrt(m-j) |j, m-j>, so the
    # chain's factors are -r sqrt(j) and T sqrt(m-j); each down is zero past j = m
    t, r = bs.T, bs.r
    t_up, r_up = [t * q for q in roots], [r * q for q in roots]
    neg_r_up, t_down = [-x for x in r_up], t_up[::-1] + pad
    cols = [[1.0, *pad[1:]]]
    for m in range(1, last + 1):
        cols.append(_ladder(cols[-1], roots[m], neg_r_up, t_down[top - m :]))
    return cols, roots, t_up, r_up[::-1] + pad


def bs_sector_unitary(M: int, bs: BeamSplitter) -> list:
    """The real sector unitary as M+1 rows, u[kp][k] = <kp, M-kp| U |k, M-k>."""
    cols, roots, up, down = _chain(M, M + 1, M, bs)
    for m in range(M + 1):  # column 0 of U_m, raised M - m times, is column M - m of U_M
        for i in range(1, M - m + 1):
            cols[m] = _ladder(cols[m], roots[i], up, down[M - m - i :])
    return [list(row) for row in zip(*reversed(cols))]


def gate_amplitudes(sol: GateSolution, full: bool = False) -> tuple:
    """lambda_0..lambda_N as a tuple of floats: post-selected, signal level k
    comes out times lambda_k.

    By default each lambda_k is the `math.fsum` of the weights alpha_l gamma_l
    times row k of `build_coefficient_matrix` (a2 for k < N, a1 for k = N), for
    any N.  With full=True each diagonal element <k, n|U|k, n> is entry k of
    column k of the sector unitary U_{n+k}, walked from column 0 of U_n by k
    raising steps on entries k..N only, one node at a time (photon-number
    selection-rule check); the sectors go up to N + max n <= SECTOR_CAP, and
    each lambda_k sums its nodes in order from int 0.
    """
    bs = BeamSplitter(sol.T)
    w = [a * g for a, g in zip(sol.alphas, sol.gammas)]
    if full:
        N, top = sol.N, sol.N + max(sol.nodes)
        cols, roots, up, down = _chain(top, N + 1, max(sol.nodes), bs)
        lam, steps = [0] * (N + 1), [(k, roots[k], up[k:]) for k in range(1, N + 1)]
        for n, wl in zip(sol.nodes, w):
            # post-selected on ancilla photon number n, the signal keeps level k:
            # <k, n|U|k, n> leads the column after step k, which holds entries k..N;
            # its p-th entry, level k + p of sector n + k, takes the b+ factor r sqrt(n - p)
            col, dn = cols[n], down[top - n :]
            lam[0] += wl * col[0]
            for k, s, u in steps:
                col = [a * (x / s) + b * (y / s) for a, b, x, y in zip(u, dn, col, col[1:])]
                lam[k] += wl * col[0]
        return tuple(lam)
    a1, a2 = build_coefficient_matrix(sol.nodes, bs)
    return tuple(math.fsum(wl * x for wl, x in zip(w, row)) for row in (*a2, a1[0]))


def _post_select(signal: SignalState, lam: tuple) -> tuple:
    """(output SignalState, acceptance probability) of the signal through a
    gate with per-level amplitudes lam (`gate_amplitudes`).  The probability
    is the `math.fsum` of the squared real and imaginary parts of c_k lambda_k,
    and each c_k lambda_k is divided by the square root of that probability."""
    if len(lam) != signal.N + 1:
        raise ValueError("signal dimension does not match the gate order")
    out = [c * l for c, l in zip(signal.coefficients, lam)]
    try:
        prob = math.fsum(x * x for z in out for x in (z.real, z.imag))
    except OverflowError:  # finite squares whose sum is past the float range
        prob = math.inf
    if not 0.0 < prob < math.inf:  # NaN fails this too
        raise ValueError(f"post-selection probability must be finite and positive, got {prob}")
    norm = math.sqrt(prob)
    return SignalState(tuple(z / norm for z in out)), prob


def apply_gate(signal: SignalState, sol: GateSolution, full: bool = False):
    """Send the signal through the solved gate and post-select.

    Returns (output SignalState, probability, per-level amplitudes lambda_k).
    The gate works when all |lambda_k| coincide and lambda_N = -lambda_k for
    k < N; the acceptance probability is then |lambda_0|^2.  The worst case
    over every signal is read off lambda alone (`nssgate verify`).
    """
    lam = gate_amplitudes(sol, full)
    return (*_post_select(signal, lam), lam)

