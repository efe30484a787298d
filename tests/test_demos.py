"""Each script under ``demos/`` runs to the end and prints its report."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [path.name for path in DEMOS] == ["demo_distribution.py", "demo_search.py", "demo_synthesis.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
