"""Every demo runs to completion against the current public API, and every
name that API exports exists."""

import runpy
import sys
from pathlib import Path

import pytest

import regusamp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_export_resolves():
    missing = [name for name in regusamp.__all__ if not hasattr(regusamp, name)]
    assert missing == []
    assert len(set(regusamp.__all__)) == len(regusamp.__all__)


def test_demos_found():
    assert DEMOS, "an empty demo list would parametrize no runs"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # Each demo runs in an empty directory, so files it writes land there.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
