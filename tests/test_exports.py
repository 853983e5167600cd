"""Every name a module exports through ``__all__`` exists in that module and in the package."""

import ast
import importlib
import pathlib
import pkgutil

import commix

LIBRARY_MODULES = ("errors", "operators", "commutators", "mixing", "skew", "graphs")


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module(f"commix.{info.name}")
        for info in pkgutil.iter_modules(commix.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 5
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"commix.{name}")
        unexported = [n for n in module.__all__ if getattr(commix, n, None) is not getattr(module, n)]
        assert unexported == [], module.__name__


def test_the_truncation_sweep_is_a_test_oracle_not_an_export():
    # the sweep that shows truncation eigenvectors are fake lives in
    # tests/test_skew.py; the sector identities run in function space
    skew = importlib.import_module("commix.skew")
    for name in ("sector_truncation_sweep", "TruncationSweepEntry"):
        assert name not in skew.__all__ and not hasattr(commix, name)
    assert {"sector_identity_check", "SectorIdentityReport"} <= set(skew.__all__)


def test_the_runner_imports_only_public_library_names():
    # cli.py reaches the library through the names its modules export, the
    # same route the tests and the tracer see; a dunder such as __version__
    # is no private name
    tree = ast.parse(pathlib.Path(importlib.import_module("commix.cli").__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "commix")
               for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
    # scenarios run one at a time, so the runner needs no thread machinery
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert not {name for name in imported if name.split(".")[0] in ("threading", "concurrent")}
    commutators = importlib.import_module("commix.commutators")
    assert {"degree_averages", "identity_check"} <= set(commutators.__all__)
