"""Every name a module exports through ``__all__`` exists in that module and in the package."""

import importlib
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
