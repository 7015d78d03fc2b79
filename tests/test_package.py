"""The package surface: each module's __all__, re-exported once."""

import clutterstats as cs
from clutterstats import errors, estimate, mellin, models, simulate, specfun

MODULES = (errors, specfun, models, mellin, estimate, simulate)


def test_package_exports_each_module_all():
    # two modules exporting one name would shadow each other under the star
    # imports without any error
    assert len(set(cs.__all__)) == len(cs.__all__)
    assert cs.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cs, name) is getattr(module, name), name
