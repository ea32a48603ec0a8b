import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["04_training_overfit.py", "05_scoring_and_eer.py"])
def test_demo_leaves_no_file_behind(name, tmp_path, monkeypatch, capsys):
    # the demos that write WAVs, a protocol or a score file do so in a temporary
    # directory that they remove
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert "lgpnet_demo_" in capsys.readouterr().out  # the demo did write under the temp dir
    assert list(temp.iterdir()) == []
