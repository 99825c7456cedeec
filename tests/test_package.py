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


def _check_numpy_in_child(argvs: list, loaded: bool, then: str = "") -> None:
    """A fresh interpreter imports the package from the directory this process
    imported it from, runs cli.main on each argv and then the statement `then`,
    and exits non-zero unless 'numpy' in sys.modules is `loaded`."""
    code = (
        "import sys\n"
        "import nssgate\n"
        "from nssgate import cli, fock_oracle\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "assert codes == [0] * len(codes), codes\n"
        f"{then}\n"
        f"sys.exit(None if ('numpy' in sys.modules) == {loaded} else 'numpy in sys.modules: {not loaded}')\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(nssgate.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr


def test_solve_and_sweep_never_import_numpy():
    # the exact solver needs only ints, Fraction and decimal, and numpy's import is most of a solve's time
    argvs = [["solve", "--n", "14"], ["solve", "--nodes", "0,2,3,5,6,9", "--format", "csv"], ["sweep", "--n-min", "1", "--n-max", "30"]]
    _check_numpy_in_child(argvs, loaded=False)
    # verify draws its signals from numpy's generator, so the check above cannot pass by breaking it
    _check_numpy_in_child([["verify", "--n", "2", "--trials", "3"]], loaded=True)


def test_identities_never_imports_numpy():
    # every identity compares ints or Fractions, on instances drawn from random.Random
    argvs = [["identities", "--suite", "all", "--seed", seed] for seed in ("0", str(2**40))]
    _check_numpy_in_child(argvs + [["identities", "--suite", suite] for suite in "abc"], loaded=False)
    # spoly_matrix returns Fraction rows on its exact path, and a numpy array only on the float one
    for exact, loaded in ((True, False), (False, True)):
        call = f"from fractions import Fraction; from nssgate.determinants import NodeSet, spoly_matrix; spoly_matrix(NodeSet((0, 1, 3)), Fraction(1, 2), exact={exact})"
        _check_numpy_in_child([], loaded=loaded, then=call)


def test_full_walk_never_imports_numpy():
    # the ladder walk and the post-selection run on plain floats; the default
    # amplitudes contract build_coefficient_matrix's arrays, so they are the control
    for full, loaded in ((True, False), (False, True)):
        call = (
            "from nssgate.determinants import NodeSet\n"
            "from nssgate.optimizer import scan_nodes\n"
            "for nodes in ((0, 1), (0, 2, 3, 5, 6, 9), (1, 3, 4, 5, 7, 8, 10, 11), (0, 32)):\n"
            "    sol = scan_nodes(NodeSet(nodes)).best.solution\n"
            "    signal = fock_oracle.SignalState((1,) + (0,) * len(nodes))\n"
            f"    out, p, lam = fock_oracle.apply_gate(signal, sol, full={full})\n"
            "    assert fock_oracle.post_select(signal, lam) == (out, p)"
        )
        _check_numpy_in_child([], loaded=loaded, then=call)
