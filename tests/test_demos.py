"""The demos and README examples stay runnable: the four fast demos and
each fenced ``python`` block of README.md run to exit 0 in a fresh process,
the training demo (about a minute) imports and builds its configs without
training, and README's command block names every subcommand and flag."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wavepool.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)
# the first fenced block after the "Command line" heading: one line per subcommand
COMMAND_LINES = {
    line.split()[1]: line
    for line in (ROOT / "README.md").read_text().split("## Command line")[1]
    .split("```")[1].splitlines()
    if line.startswith("wavepool ")
}
SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices


def run_python(args, cwd):
    """Run a fresh interpreter with ``src`` on the path; returns the result."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name", ["filter_banks", "subband_transforms", "anti_aliased_pooling", "architecture_accounting"]
)
def test_fast_demo_exits_0(name, tmp_path):
    result = run_python([str(DEMOS / f"{name}.py")], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_block_exits_0(block, tmp_path):
    result = run_python(["-c", README_BLOCKS[block]], tmp_path)
    assert result.returncode == 0, result.stderr


def test_training_demo_imports():
    spec = importlib.util.spec_from_file_location("train_micro_net", DEMOS / "train_micro_net.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.config("max").train.mode == "plain"
    assert demo.config("max", mode="kd", teacher="t.wvpk").train.mode == "kd"


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_readme_command_line_names_every_flag(command):
    line = COMMAND_LINES.get(command, "")
    flags = [opt for action in SUBPARSERS[command]._actions for opt in action.option_strings
             if opt.startswith("--") and opt != "--help"]
    missing = [f for f in flags if not re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", line)]
    assert line and not missing, f"README's {command!r} line lacks {missing}"
