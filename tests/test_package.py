"""The package's export list."""

from __future__ import annotations

import phasorlife


def test_export_list_has_no_duplicates_and_every_name_resolves():
    assert len(phasorlife.__all__) == len(set(phasorlife.__all__))
    namespace: dict = {}
    exec("from phasorlife import *", namespace)  # raises AttributeError on a name that is gone
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(phasorlife.__all__)
