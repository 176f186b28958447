"""The examples in the package's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import sphereflows


def test_every_module_doctest_passes():
    attempted = 0
    for info in pkgutil.iter_modules(sphereflows.__path__):
        # ``__main__`` runs the CLI when imported
        if info.ispkg or info.name == "__main__":
            continue
        module = importlib.import_module(f"sphereflows.{info.name}")
        failed, tried = doctest.testmod(module)
        assert failed == 0, info.name
        attempted += tried
    assert attempted >= 5
