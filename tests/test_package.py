"""The package's public names."""

import iterauction as ia


def test_every_public_name_resolves():
    assert len(set(ia.__all__)) == len(ia.__all__)
    assert [name for name in ia.__all__ if not hasattr(ia, name)] == []
