"""Shared fixtures for the benchmark guards."""

import hashlib
import json

import pytest


@pytest.fixture()
def assert_history_pinned():
    """Check a committed BENCH file's published rows against their pin.

    BENCH files are append-only history: a regeneration may add sections or
    rows, never rewrite published ones.  Call the fixture with the file, its
    top-level section, the names published in that section and the sha256
    of their canonical JSON.
    """

    def check(path: str, section: str, names, sha256: str) -> None:
        with open(path) as fh:
            published = json.load(fh)[section]
        canon = json.dumps({name: published[name] for name in names},
                           indent=2, sort_keys=True)
        assert hashlib.sha256(canon.encode()).hexdigest() == sha256

    return check
