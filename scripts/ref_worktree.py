"""A commit checked out beside the working tree, for the comparison scripts."""

from __future__ import annotations

import contextlib
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def ref_worktree(ref: str, prefix: str) -> Iterator[Path]:
    """Check ``ref`` out into a temporary ``git worktree`` under ``$TMPDIR``.

    Yields the scratch directory: the checkout is ``<scratch>/ref`` and the
    rest of it is the caller's to write to.  Both go away on exit.
    """
    scratch = Path(tempfile.mkdtemp(prefix=prefix))
    git = ["git", "-C", str(REPO_ROOT)]
    try:
        subprocess.run(git + ["worktree", "add", "--detach", str(scratch / "ref"), ref],
                       check=True, capture_output=True)
        yield scratch
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", str(scratch / "ref")],
                       check=False, capture_output=True)
        subprocess.run(git + ["worktree", "prune"], check=False)
        shutil.rmtree(scratch, ignore_errors=True)
