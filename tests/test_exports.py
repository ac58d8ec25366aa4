"""Every name a module of the package exports in __all__ resolves and has a use."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import agedpop


def _modules():
    return [agedpop] + [
        importlib.import_module(f"agedpop.{info.name}") for info in pkgutil.iter_modules(agedpop.__path__)
    ]


def test_every_exported_name_resolves():
    modules = _modules()
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


# Exported names with no use inside the package, each with its reason.
UNUSED_EXPORTS = {
    "ConvolutionLaw": "a law object of the paper, shown in the README",
    "F_theta": "the test functional of the paper, shown in the README",
    "age_distance": "the age metric of the paper, shown in the README",
    "flow": "the age flow of the paper, shown in the README",
    "resolvent_identity_residual": "called by demos/02_semigroup.py",
    "explicit_solution": "called by the benchmark's workloads",
    "transient_intensity": "the newcomer intensity rho_t of the paper, shown in the README; the benchmark's tracer wraps it",
    "star_product": "the star product of the paper; ROADMAP item 5 gives it a caller",
    "survival_weighted_integral": "shown in the README; the benchmark's tracer wraps it in agedpop.verify",
}


def test_every_exported_name_has_a_use():
    # a name in a module's __all__ must be loaded somewhere in the package,
    # or be listed above: exports that nothing calls are deleted
    used = set()
    for path in Path(agedpop.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {name for module in _modules() for name in getattr(module, "__all__", ())}
    assert sorted(exported - used - set(UNUSED_EXPORTS)) == []
    # and the list holds no name that is not exported or has gained a use
    assert sorted(set(UNUSED_EXPORTS) - (exported - used)) == []
