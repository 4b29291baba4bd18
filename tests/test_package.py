"""The package's export list."""

import bnsl


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bnsl import *", namespace)
    assert len(set(bnsl.__all__)) == len(bnsl.__all__)
    for name in bnsl.__all__:
        assert namespace[name] is getattr(bnsl, name)
