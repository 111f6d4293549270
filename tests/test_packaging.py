"""Packaging metadata and module exports point at things that exist."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import arcwave

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
MODULES = sorted(m.name for m in pkgutil.iter_modules(arcwave.__path__))


def test_readme_exists():
    assert (ROOT / PROJECT["readme"]).is_file()


def test_script_targets_import():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(f"arcwave.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"arcwave.{module}.__all__ names missing attributes: {missing}"
