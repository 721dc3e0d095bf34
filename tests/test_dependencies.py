"""The package imports nothing beyond the standard library and numpy, and
builds no stride view numpy does not check."""

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


def stride_view_lines(path):
    """Lines of one source file that import or name numpy's ``as_strided``,
    whose strides nothing checks against the array's memory."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if "as_strided" in names:
            yield node.lineno


SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert sorted(set(imported_roots(path)) - ALLOWED) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unchecked_stride_views(path):
    assert list(stride_view_lines(path)) == []


def test_guard_sees_a_third_party_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom .ops import conv2d\n"
                    "def f():\n    from scipy.signal import convolve\n")
    assert sorted(set(imported_roots(path)) - ALLOWED) == ["scipy"]


def test_guard_sees_a_stride_view(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom numpy.lib.stride_tricks import as_strided as view\n"
                    "from numpy.lib.stride_tricks import sliding_window_view\n"
                    "def f(x):\n    return np.lib.stride_tricks.as_strided(x)\n")
    assert list(stride_view_lines(path)) == [2, 5]
