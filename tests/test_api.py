"""Public API: the package exports what it declares."""

import heisbeta


def test_all_names_resolve_without_duplicates():
    names = heisbeta.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(heisbeta, name)]
    assert missing == []
