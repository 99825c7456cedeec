import os
import subprocess
import sys
from pathlib import Path

import pytest

import nssgate

TESTS = Path(__file__).parent
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
        "             ['verify', '--n', '8'], ['verify', '--n', '40']):\n"
        "    assert cli.main(argv) == 0, argv"
    ),
    "fock_oracle": (
        "for nodes in ((0, 1), (0, 2, 3, 5, 6, 9), (1, 3, 4, 5, 7, 8, 10, 11), (0, 32)):\n"
        "    sol = scan_nodes(NodeSet(nodes)).best.solution\n"
        "    signal = fock_oracle.SignalState((1,) + (0,) * len(nodes))\n"
        "    for full in (False, True):\n"
        "        out, p, lam = fock_oracle.apply_gate(signal, sol, full=full)\n"
        "        assert fock_oracle._post_select(signal, lam) == (out, p)\n"
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


def _run_without_numpy(body: str) -> subprocess.CompletedProcess:
    """Run body in a fresh interpreter in which numpy cannot be imported (None
    in sys.modules), with the directory this process imported the package
    from and the tests' directory on its path."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('numpy imported')\n"
        f"{body}\n"
    )
    dirs = [str(Path(nssgate.__file__).parents[1]), str(TESTS), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, dirs))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("calls", NO_NUMPY_CALLS.values(), ids=NO_NUMPY_CALLS)
def test_runs_without_numpy(calls):
    # the package has no runtime dependency: with numpy blocked, it imports and runs the calls
    child = _run_without_numpy(
        "from fractions import Fraction\n"
        "from nssgate import cli, determinants, fock_oracle, gate_solver\n"
        "from nssgate.determinants import NodeSet\n"
        "from nssgate.gate_solver import BeamSplitter\n"
        "from nssgate.optimizer import scan_nodes\n"
        f"{calls}"
    )
    assert child.returncode == 0, child.stderr


def test_test_modules_import_without_numpy():
    # the tests run on the standard library: only the checks on numpy-typed
    # inputs import numpy, inside the test through pytest.importorskip, so
    # every test module loads with numpy blocked
    modules = sorted(path.stem for path in TESTS.glob("*.py"))
    assert "test_package" in modules and "reference" in modules
    child = _run_without_numpy(f"import importlib\nfor name in {modules!r}:\n    importlib.import_module(name)")
    assert child.returncode == 0, child.stderr
