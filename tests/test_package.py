"""The package's public export list."""

import hilb


def test_star_import_binds_every_exported_name_once():
    # `from hilb import *` raises on a name in __all__ that the package no
    # longer binds; each name is listed once and is the package's binding
    namespace: dict = {}
    exec("from hilb import *", namespace)
    assert len(set(hilb.__all__)) == len(hilb.__all__)
    assert set(namespace) - {"__builtins__"} == set(hilb.__all__)
    for name in hilb.__all__:
        assert namespace[name] is getattr(hilb, name), name
