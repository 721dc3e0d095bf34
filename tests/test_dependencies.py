"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wavepool"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "wavepool"}


def imported_roots(path):
    """The top-level module of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert sorted(set(imported_roots(path)) - ALLOWED) == []


def test_guard_sees_a_third_party_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom .ops import conv2d\n"
                    "def f():\n    from scipy.signal import convolve\n")
    assert sorted(set(imported_roots(path)) - ALLOWED) == ["scipy"]
