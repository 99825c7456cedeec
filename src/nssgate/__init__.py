"""Conditional generalized nonlinear-sign-shift gates in linear optics.

Solver for the transmission coefficient, ancilla weights and success
probability of the conditional gate c_N -> -c_N, together with an independent
Fock-space oracle and the polynomial/determinant identities the closed forms
rest on (T = 1 - 2^{1/N}, p_max = 1/N^2 for minimal ancillas).
"""

from .determinants import NodeSet, vandermonde_S, vandermonde_power
from .fock_oracle import SignalState, apply_gate, bs_sector_unitary, fidelity, target_state
from .gate_solver import (
    BeamSplitter,
    GateSolution,
    bs_diagonal_element,
    find_transmission,
    optimal_transmission,
    success_probability,
)
from .optimizer import ScanReport, scan_nodes, sweep
from .polynomials import spoly_eval

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NodeSet",
    "vandermonde_S",
    "vandermonde_power",
    "SignalState",
    "apply_gate",
    "bs_sector_unitary",
    "fidelity",
    "target_state",
    "BeamSplitter",
    "GateSolution",
    "bs_diagonal_element",
    "find_transmission",
    "optimal_transmission",
    "success_probability",
    "ScanReport",
    "scan_nodes",
    "sweep",
    "spoly_eval",
]
