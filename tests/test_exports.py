"""The package's export list names only what the package really provides."""

import qkostant


def test_all_names_resolve_without_duplicates():
    assert len(qkostant.__all__) == len(set(qkostant.__all__))
    for name in qkostant.__all__:
        assert hasattr(qkostant, name), name
