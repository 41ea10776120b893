"""Only PTS training loads scipy: every CLI call pays for what importing
calibkit.cli loads, and scipy.special alone takes more than half of that."""

import json
import os
import subprocess
import sys
from pathlib import Path

from calibkit.cli import main
from calibkit.io_files import write_logits
from calibkit.synth import SynthConfig, generate

SRC = Path(__file__).resolve().parents[1] / "src"
NON_PTS = "ts,ets,histbin,irova,irm,irova_ts,pbmc"

# After each step, whether scipy is loaded, as one JSON list on stdout.
SCRIPT = """
import json, sys
import calibkit.cli
from calibkit.cli import main
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_pts_training_loads_scipy(tmp_path):
    val, test, pts = (str(tmp_path / name) for name in ("val.csv", "test.csv", "pts.json"))
    write_logits(generate(SynthConfig(num_samples=400, regime="heteroscedastic", seed=60)), val)
    write_logits(generate(SynthConfig(num_samples=400, regime="heteroscedastic", seed=61)), test)
    assert main(["fit", "--method", "pts", "--steps", "5", "--val", val, "--out", pts]) == 0
    steps = [
        ["apply", "--model", pts, "--test", test, "--out", str(tmp_path / "conf.csv")],
        ["eval", "--model", pts, "--test", test, "--out", str(tmp_path / "eval.json")],
        ["compare", "--methods", NON_PTS, "--val", val, "--test", test, "--out", str(tmp_path / "cmp.json")],
        ["fit", "--method", "pts", "--steps", "5", "--val", val, "--out", str(tmp_path / "again.json")],
    ]
    env = os.environ | {"PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(steps)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    # import, apply, eval, compare: not loaded; fit --method pts: loaded
    assert json.loads(done.stdout.splitlines()[-1]) == [False, False, False, False, True]
