import msjoint


def test_exports_resolve_once():
    assert len(set(msjoint.__all__)) == len(msjoint.__all__)
    missing = [name for name in msjoint.__all__ if not hasattr(msjoint, name)]
    assert not missing
    namespace = {}
    exec("from msjoint import *", namespace)  # a stale name in __all__ raises AttributeError here
    assert set(msjoint.__all__) <= set(namespace)
