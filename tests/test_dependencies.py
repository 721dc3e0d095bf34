"""The package imports nothing beyond the standard library and numpy,
builds no stride view numpy does not check, and reads files only through
``errors.read_file``."""

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


def file_reads(path):
    """Lines of one source file that read a file other than through
    ``errors.read_file``: an ``open`` whose mode has no w, a or x (or is not
    a literal), a ``read_bytes`` or ``read_text`` call, or an ``exists``
    pre-check such as ``os.path.exists``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = {id(node) for fn in ast.walk(tree) if path.name == "errors.py"
              and isinstance(fn, ast.FunctionDef) and fn.name == "read_file"
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else ""
            if not set(str(mode)) & set("wax"):
                yield node.lineno
        elif getattr(node, "attr", None) in ("read_bytes", "read_text", "exists"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and "exists" in [a.name for a in node.names]:
            yield node.lineno


SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert sorted(set(imported_roots(path)) - ALLOWED) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unchecked_stride_views(path):
    assert list(stride_view_lines(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_files_are_read_only_through_read_file(path):
    assert list(file_reads(path)) == []


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


READS = ("import os\nfrom os.path import exists\n"
         "def read_file(p):\n    with open(p, 'rb') as f:\n        return f.read()\n"
         "def f(p, m):\n    open(p, 'wb'); open(p, mode='a'); open(p, 'x+b')\n"
         "    open(p); open(p, mode='r'); open(p, m); p.read_bytes()\n"
         "    return os.path.exists(p)\n")


def test_guard_sees_a_read_outside_read_file(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(READS)
    assert sorted(file_reads(path)) == [2, 4, 8, 8, 8, 8, 9]
    # in errors.py, read_file itself may open its file
    path = tmp_path / "errors.py"
    path.write_text(READS)
    assert sorted(file_reads(path)) == [2, 8, 8, 8, 8, 9]
