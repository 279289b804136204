import importlib
import pkgutil

import pytest

import rieszcap

MODULES = sorted(info.name for info in pkgutil.iter_modules(rieszcap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    # a stale __all__ entry breaks `from rieszcap.<module> import *` and any
    # tool that wraps a module's public functions by name
    module = importlib.import_module(f"rieszcap.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
