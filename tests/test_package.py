"""The package's public names: every export in __all__ resolves."""

import psformer


def test_every_exported_name_resolves():
    missing = [name for name in psformer.__all__ if not hasattr(psformer, name)]
    assert not missing
    assert len(set(psformer.__all__)) == len(psformer.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from psformer import *", namespace)
    assert set(psformer.__all__) <= set(namespace)
