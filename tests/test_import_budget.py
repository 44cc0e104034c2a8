"""The data stages start without numpy: `--help`, `mine`, `build` and
`evaluate` each run in a fresh interpreter, and numpy must not be in
`sys.modules` when `main` returns. `train` and `predict` load the model
layer, and must still succeed in the same pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixhound
from conftest import make_planted_repo

SRC = Path(fixhound.__file__).resolve().parents[1]

CHILD = (
    "import json, sys\n"
    "from fixhound.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))\n"
)


def run_fresh(*args: str) -> dict:
    """Call fixhound.cli.main(args) in a new interpreter; its exit code and whether numpy was imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("budget")
    repo, labels = make_planted_repo(root / "planted", 16, seed=0)
    labels_path = root / "labels.csv"
    labels_path.write_text("repo_id,commit_hash,vuln_id\n" + "".join(f"{r},{h},{v}\n" for r, h, v in labels))
    config = {
        "repos": [str(repo)],
        "labels_file": str(labels_path),
        "workdir": str(root / "out"),
        "max_len": 64,
        "vocab_size": 300,
        "encoder": {"dim": 16, "layers": 1, "heads": 2, "ffn_mult": 2},
        "train": {"learning_rate": 3e-3, "epochs": 2, "batch_size": 32},
        "split": {"strategy": "Temporal", "test_start": 1_000_000 + 120 * 10},
    }
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_help_does_not_import_numpy():
    assert run_fresh("--help") == {"code": 0, "numpy": False}


def test_only_train_and_predict_import_numpy(config_path):
    for stage in ("mine", "build", "train", "predict", "evaluate"):
        result = run_fresh("--config", str(config_path), stage)
        assert result["code"] == 0, stage
        if stage not in ("train", "predict"):
            assert not result["numpy"], f"{stage} imported numpy"
    report = json.loads((Path(json.loads(config_path.read_text())["workdir"]) / "report.json").read_text())
    assert set(report["EmbedSubtract_Duo"]["cost_effort"]) == {"5", "20"}
