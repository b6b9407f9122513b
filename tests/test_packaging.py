"""Declared console scripts and every module's ``__all__`` resolve."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import uncertrack

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_script_target_imports():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_exported_name_resolves():
    modules = [uncertrack] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(uncertrack.__path__, "uncertrack.")]
    assert len(modules) > 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
