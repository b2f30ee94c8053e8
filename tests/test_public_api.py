"""The package's exported names stay consistent with its imports."""

import semrag


def test_every_exported_name_resolves():
    missing = [name for name in semrag.__all__ if not hasattr(semrag, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(semrag.__all__) == len(set(semrag.__all__))
