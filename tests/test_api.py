"""The public API: every name a module lists in ``__all__`` exists, and the
package exports only names that some module lists there."""

import importlib
import pkgutil
import types

import blockdesigns

MODULES = [
    importlib.import_module(f"blockdesigns.{info.name}")
    for info in pkgutil.iter_modules(blockdesigns.__path__)
    if not info.name.startswith("_")
]


def test_every_listed_name_exists():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_come_from_module_lists():
    listed = {
        name: getattr(module, name)
        for module in MODULES
        for name in getattr(module, "__all__", ())
    }
    for name, value in vars(blockdesigns).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert name in listed and listed[name] is value, name
