"""Session-wide checks shared by every test module."""

import hashlib
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def tracked_file_hashes():
    """{path: sha256 of its content} for every file git tracks under the
    repository root (None for a tracked file that is gone), or None outside
    a git checkout."""
    try:
        listing = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                                 check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    hashes = {}
    for name in listing.decode("utf-8").split("\0"):
        if name:
            path = ROOT / name
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return hashes


@pytest.fixture(scope="session", autouse=True)
def tracked_files_unchanged():
    """Running the tests leaves every tracked file as it found it."""
    before = tracked_file_hashes()
    yield
    if before is None:
        return
    after = tracked_file_hashes()
    changed = sorted(name for name in before.keys() | after.keys()
                     if before.get(name) != after.get(name))
    if changed:
        pytest.fail(f"the tests changed {len(changed)} tracked files: {changed[:10]}")
