"""Shared fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for this test and
    returns a list that gains one entry per call: the call's positional
    arguments."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install
