"""The package's public name list."""

import phasewave


def test_all_names_resolve_once():
    names = phasewave.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(phasewave, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from phasewave import *", namespace)
    assert set(phasewave.__all__) <= set(namespace)
