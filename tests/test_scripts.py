"""Smoke runs of the example scripts, each started as its usage line says."""

import pathlib
import re
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, patches, svgs", [
    ("run_bat.py", 3, ["bat_initial.svg", "bat_solved.svg"]),
    ("run_lbend.py", 1, ["lbend.svg"]),
], ids=["bat", "lbend"])
def test_script_solves_fold_free(script, patches, svgs, tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # one "min det J ... folds N" line per patch
    folds = [int(m.group(1)) for m in
             re.finditer(r"min det J.*folds:? (\d+)$", done.stdout, re.MULTILINE)]
    assert folds == [0] * patches, done.stdout
    for name in svgs:
        text = (tmp_path / name).read_text()
        assert "<svg" in text and text.rstrip().endswith("</svg>")
