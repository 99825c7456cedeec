import pytest

MODULES = ["nssgate"] + [f"nssgate.{m}" for m in ("cli", "determinants", "fock_oracle", "gate_solver", "optimizer", "polynomials")]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    # a star import raises AttributeError for a name in __all__ that the module lacks
    exec(f"from {module} import *", {})
