"""Every name a module of the package exports in __all__ resolves."""

from __future__ import annotations

import importlib
import pkgutil

import agedpop


def test_every_exported_name_resolves():
    modules = [agedpop] + [
        importlib.import_module(f"agedpop.{info.name}") for info in pkgutil.iter_modules(agedpop.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
