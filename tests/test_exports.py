import importlib
import pkgutil

import pytest

import entlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(entlab.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"entlab.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
