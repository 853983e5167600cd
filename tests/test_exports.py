"""Every name a module exports through ``__all__`` exists in that module."""

import importlib
import pkgutil

import commix


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
