"""Unpack the package source of a git ref into a temporary directory.

    with unpacked_src(root, ref, prefix) as tree:
        ...  # tree/src holds the src of ref

`git -C root archive REF src | tar -x` writes the src of REF under a new
temporary directory, removed on the way out, so nothing is written under
`.git` and a run that is killed leaves nothing behind in the repository.
`tools/code_lines.py` and `tools/report_drift.py` load this file by its
path (`runpy.run_path`), as the tests load them.
"""

from __future__ import annotations

import contextlib
import subprocess
import tempfile


@contextlib.contextmanager
def unpacked_src(root: str, ref: str, prefix: str):
    """A temporary directory holding the src of ref; CalledProcessError where git or tar fails."""
    with tempfile.TemporaryDirectory(prefix=prefix) as tree:
        archive = subprocess.Popen(["git", "-C", root, "archive", ref, "src"],
                                   stdout=subprocess.PIPE)
        unpacking = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or unpacking.returncode:
            raise subprocess.CalledProcessError(archive.returncode or unpacking.returncode,
                                                f"git archive {ref} src | tar -x")
        yield tree
