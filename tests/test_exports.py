"""The package's public names: each export resolves, and none is stale."""

from types import ModuleType

import pytest

import cmwild
from cmwild import family


@pytest.mark.parametrize("module", [cmwild, family], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name


def test_package_exports_exactly_what_it_imports():
    imported = {
        name
        for name, value in vars(cmwild).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(cmwild.__all__) == imported | {"__version__"}
