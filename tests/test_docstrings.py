"""Documentation-coverage gate: every public item carries a docstring.

The deliverable standard for this library is "doc comments on every
public item"; this test makes the standard executable, so a future
undocumented addition fails CI instead of slipping through review.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

# Modules whose public surface is checked.  (Everything; listed
# explicitly so a new subpackage must be added consciously.)
PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.data",
    "repro.eval",
    "repro.obs",
    "repro.parallel",
    "repro.serving",
    "repro.similarity",
    "repro.utils",
]


def _iter_modules() -> list[str]:
    names = set(PACKAGES)
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__, prefix=f"{pkg_name}."):
                if info.name.endswith("__main__"):
                    continue  # importing __main__ executes the CLI
                names.add(info.name)
    return sorted(names)


ALL_MODULES = _iter_modules()


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_public_items_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing: list[str] = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if getattr(type(obj), "__module__", "").startswith("typing"):
            continue  # type aliases (e.g. Literal unions) carry no __doc__
        if not callable(obj) and not inspect.isclass(obj):
            continue  # constants (dicts, tuples) document themselves inline
        if not (getattr(obj, "__doc__", None) or "").strip():
            missing.append(name)
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if callable(attr) or isinstance(attr, property):
                    target = attr.fget if isinstance(attr, property) else attr
                    if (getattr(target, "__doc__", None) or "").strip():
                        continue
                    # An override with an unchanged contract may inherit
                    # its documentation from a base class.
                    inherited = False
                    for base in obj.__mro__[1:]:
                        base_attr = base.__dict__.get(attr_name)
                        if base_attr is None:
                            continue
                        base_target = (
                            base_attr.fget
                            if isinstance(base_attr, property)
                            else base_attr
                        )
                        if (getattr(base_target, "__doc__", None) or "").strip():
                            inherited = True
                            break
                    if not inherited:
                        missing.append(f"{name}.{attr_name}")
    assert not missing, f"{module_name}: undocumented public items: {missing}"
