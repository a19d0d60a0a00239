import frameattn


def test_every_public_name_resolves():
    assert len(set(frameattn.__all__)) == len(frameattn.__all__)
    for name in frameattn.__all__:
        assert hasattr(frameattn, name), name


def test_star_import_exports_all():
    namespace = {}
    exec("from frameattn import *", namespace)
    assert set(frameattn.__all__) <= set(namespace)
