"""Each command loads only the modules it runs. `--help`, a usage error and
every pipeline stage run `fixhound.cli.main` in a fresh interpreter, which
reports the modules in `sys.modules` when `main` returns:

- `--help` and an argparse usage error load no fixhound module but `cli`;
- only `mine` loads `repo_miner` and the stdlib modules only it uses
  (`subprocess`, `difflib`, `csv`);
- `mine`, `build` and `train` do not load `evaluation`;
- the data stages (`mine`, `build`, `evaluate`) do not load numpy.

`train` and `predict` load the model layer, and the pipeline must still
succeed stage by stage. Only the model layer's modules import numpy, at
any depth (read from their source, not from a run)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixhound
from conftest import make_planted_repo

SRC = Path(fixhound.__file__).resolve().parents[1]

# The README Layout table's model layer: its "numpy-free: no" rows.
MODEL_LAYER = {"tokenizer", "encoder", "delta_model", "trainer", "inference"}

# Modules a fresh interpreter may hold only if the command needs them.
WATCHED = ("numpy", "subprocess", "difflib", "csv")

CHILD = (
    "import json, sys\n"
    "from fixhound.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"watched = {WATCHED!r}\n"
    "fixhound = sorted(m for m in sys.modules if m.startswith('fixhound.'))\n"
    "print(json.dumps({'code': code, 'fixhound': fixhound, 'watched': sorted(m for m in watched if m in sys.modules)}))\n"
)

STAGES = ("mine", "build", "train", "predict", "evaluate")


def run_fresh(*args: str) -> dict:
    """Call fixhound.cli.main(args) in a new interpreter; its exit code, the
    fixhound modules it loaded and which of WATCHED it loaded."""
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


@pytest.fixture(scope="module")
def pipeline(config_path) -> dict:
    """Each stage's run_fresh result, the stages run in pipeline order."""
    results = {}
    for stage in STAGES:
        results[stage] = run_fresh("--config", str(config_path), stage)
        assert results[stage]["code"] == 0, stage
    return results


def test_help_does_not_import_numpy():
    assert run_fresh("--help") == {"code": 0, "fixhound": ["fixhound.cli"], "watched": []}


def test_usage_error_loads_no_fixhound_module_but_cli():
    assert run_fresh("no-such-command") == {"code": 1, "fixhound": ["fixhound.cli"], "watched": []}


def test_only_train_and_predict_import_numpy(pipeline, config_path):
    for stage, result in pipeline.items():
        assert ("numpy" in result["watched"]) == (stage in ("train", "predict")), stage
    report = json.loads((Path(json.loads(config_path.read_text())["workdir"]) / "report.json").read_text())
    assert set(report["EmbedSubtract_Duo"]["cost_effort"]) == {"5", "20"}


def test_only_mine_loads_the_miner(pipeline):
    for stage, result in pipeline.items():
        mines = stage == "mine"
        assert ("fixhound.repo_miner" in result["fixhound"]) == mines, stage
        for name in ("subprocess", "difflib", "csv"):
            assert (name in result["watched"]) == mines, (stage, name)


def test_only_predict_and_evaluate_load_evaluation(pipeline):
    for stage, result in pipeline.items():
        assert ("fixhound.evaluation" in result["fixhound"]) == (stage in ("predict", "evaluate")), stage


def test_only_the_model_layer_imports_numpy():
    """An `import numpy` anywhere in a module, function bodies included, lies in a model-layer module."""
    importers = []
    for path in sorted((SRC / "fixhound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append((path.stem, node.lineno))
    assert "trainer" in {module for module, _ in importers}  # the walk sees a module-level import
    assert [site for site in importers if site[0] not in MODEL_LAYER] == []
