"""The demos stay runnable: the four fast ones run to exit 0 in a fresh
process, and the training demo (about a minute) imports and builds its
configs without training."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name", ["filter_banks", "subband_transforms", "anti_aliased_pooling", "architecture_accounting"]
)
def test_fast_demo_exits_0(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_training_demo_imports():
    spec = importlib.util.spec_from_file_location("train_micro_net", DEMOS / "train_micro_net.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.config("max").train.mode == "plain"
    assert demo.config("max", mode="kd", teacher="t.wvpk").train.mode == "kd"
