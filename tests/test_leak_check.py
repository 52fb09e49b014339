"""The per-test leak check of ``conftest.py`` sees what it promises to."""

from __future__ import annotations

import os
import socket

import pytest

from tests.conftest import _live_helpers


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to read")
def test_an_unclosed_socketpair_is_reported():
    before = _live_helpers()
    near, far = socket.socketpair()
    try:
        leaked = {label for label, _ in _live_helpers() - before}
        assert leaked == {
            os.readlink(f"/proc/self/fd/{sock.fileno()}") for sock in (near, far)
        }
        assert all(label.startswith("socket:") for label in leaked)
    finally:
        near.close()
        far.close()
    assert _live_helpers() <= before
