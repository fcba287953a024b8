"""The public API: every name a module lists in ``__all__`` exists, the
package exports only names that some module lists there, and the README's
library example and its construction run from files both run."""

import importlib
import pkgutil
import re
import shlex
import types
from pathlib import Path

import blockdesigns
from blockdesigns import cli

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_library_example_runs():
    (example,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})


def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys):
    (example,) = re.findall(
        r"^A typical construction run from files:\n\n```sh\n(.*?)^```",
        README.read_text(), re.M | re.S,
    )
    monkeypatch.chdir(tmp_path)
    lines = example.splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "blockdesigns"
        assert cli.main(argv) == 0, (line, capsys.readouterr())
