"""The package's public surface."""

import regmdp


def test_every_exported_name_resolves():
    assert [name for name in regmdp.__all__ if not hasattr(regmdp, name)] == []
    assert len(set(regmdp.__all__)) == len(regmdp.__all__)
