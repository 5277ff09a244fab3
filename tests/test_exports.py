"""The package's export list."""

import higherlocal


def test_every_exported_name_resolves():
    missing = [name for name in higherlocal.__all__ if not hasattr(higherlocal, name)]
    assert missing == []
    assert len(set(higherlocal.__all__)) == len(higherlocal.__all__)
