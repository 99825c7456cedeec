import os
import subprocess
import sys
from pathlib import Path

import pytest

import nssgate

MODULES = ["nssgate"] + [f"nssgate.{m}" for m in ("cli", "determinants", "fock_oracle", "gate_solver", "optimizer", "polynomials")]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    # a star import raises AttributeError for a name in __all__ that the module lacks
    exec(f"from {module} import *", {})


# Each runs in a child in which `import numpy` raises ImportError
NO_NUMPY_CALLS = {
    "cli": (
        "for argv in (['solve', '--n', '14'], ['solve', '--nodes', '0,2,3,5,6,9', '--format', 'csv'],\n"
        "             ['sweep', '--n-min', '1', '--n-max', '30'], ['identities', '--suite', 'all', '--seed', str(2**40)],\n"
        "             ['verify', '--n', '8', '--trials', '5'], ['verify', '--n', '40', '--trials', '3', '--seed', '1']):\n"
        "    assert cli.main(argv) == 0, argv"
    ),
    "fock_oracle": (
        "for nodes in ((0, 1), (0, 2, 3, 5, 6, 9), (1, 3, 4, 5, 7, 8, 10, 11), (0, 32)):\n"
        "    sol = scan_nodes(NodeSet(nodes)).best.solution\n"
        "    signal = fock_oracle.SignalState((1,) + (0,) * len(nodes))\n"
        "    for full in (False, True):\n"
        "        out, p, lam = fock_oracle.apply_gate(signal, sol, full=full)\n"
        "        assert fock_oracle.post_select(signal, lam) == (out, p)\n"
        "assert len(fock_oracle.bs_sector_unitary(34, BeamSplitter(0.5))) == 35"
    ),
    "matrices": (
        "nodes = NodeSet((0, 1, 3))\n"
        "exact, floats = (determinants.spoly_matrix(nodes, Fraction(1, 2), exact=e) for e in (True, False))\n"
        "assert floats == [[float(v) for v in row] for row in exact]\n"
        "assert abs(determinants.dense_det(floats) - float(determinants.exact_det(exact))) <= 1e-15\n"
        "a1, a2 = gate_solver.build_coefficient_matrix(nodes, BeamSplitter(-0.5))\n"
        "assert len(gate_solver.cofactors([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a2)], 2)) == 3"
    ),
}


@pytest.mark.parametrize("calls", NO_NUMPY_CALLS.values(), ids=NO_NUMPY_CALLS)
def test_runs_without_numpy(calls):
    # the package has no runtime dependency: a fresh interpreter in which
    # numpy cannot be imported (None in sys.modules) imports the package from
    # the directory this process imported it from and runs the calls
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('numpy imported')\n"
        "from fractions import Fraction\n"
        "from nssgate import cli, determinants, fock_oracle, gate_solver\n"
        "from nssgate.determinants import NodeSet\n"
        "from nssgate.gate_solver import BeamSplitter\n"
        "from nssgate.optimizer import scan_nodes\n"
        f"{calls}\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(nssgate.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
