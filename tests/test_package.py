"""The package's public names."""

import pullup


def test_every_exported_name_resolves():
    assert [name for name in pullup.__all__ if not hasattr(pullup, name)] == []
    namespace = {}
    exec("from pullup import *", namespace)
    assert set(pullup.__all__) <= namespace.keys()
