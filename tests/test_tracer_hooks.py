"""src against the hooks of `perfbench/tracer.py`, at tier-1 speed.

The tracer reads `TokenSequence.ids`, `.attention_length` and `.truncated`
from `tokenizer.encode`/`encode_pair`, the positional `ids` and `attn_lens`
of `encoder.forward_batch`, and `batch.size` of `delta_model.predict_batch`.
This runs the tracer as a subprocess, as `perfbench/run.py --trace 1` does,
for `train` and `predict` on a small built workdir.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from fixhound.cli import EXIT_OK, main
from test_cli import FAST_CONFIG, seeded_workdir, write_config

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_tracer_counts_train_and_predict(tmp_path):
    workdir, _ = seeded_workdir(tmp_path)
    train = {**FAST_CONFIG["train"], "epochs": 1}
    config = write_config(tmp_path, workdir, variant="EmbedSubtract_Duo", train=train)
    assert main(["--config", str(config), "build"]) == EXIT_OK
    pythonpath = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    counts: dict[str, float] = {}
    for stage in ("train", "predict"):
        spans = tmp_path / f"spans_{stage}.json"
        argv = [sys.executable, str(TRACER), str(spans), stage, "--", "--config", str(config), stage]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for key, value in json.loads(spans.read_text(encoding="utf-8"))["counts"].items():
            counts[key] = counts.get(key, 0) + value
    for key in ("sequences", "padded_tokens", "real_tokens", "predict_rows"):
        assert counts.get(key, 0) > 0, (key, counts)
    # views hold only real tokens; PAD appears only in the encoder's batch input
    assert counts["padding_slots"] == 0
    assert counts["padded_tokens"] >= counts["real_tokens"]
