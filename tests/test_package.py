"""The public namespace: every exported name resolves."""

import pnetsim


def test_every_exported_name_resolves():
    missing = [name for name in pnetsim.__all__ if not hasattr(pnetsim, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pnetsim import *", namespace)
    assert set(pnetsim.__all__) <= set(namespace)
