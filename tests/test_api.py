import importlib
import pkgutil

import frameattn


def test_every_public_name_resolves():
    assert len(set(frameattn.__all__)) == len(frameattn.__all__)
    for name in frameattn.__all__:
        assert hasattr(frameattn, name), name


def test_star_import_exports_all():
    namespace = {}
    exec("from frameattn import *", namespace)
    assert set(frameattn.__all__) <= set(namespace)


def test_each_module_exports_only_what_it_defines():
    # A name re-exported from another module belongs in that module's __all__, not here.
    for info in pkgutil.iter_modules(frameattn.__path__):
        module = importlib.import_module(f"frameattn.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name} is {obj.__module__}.{name}"
