"""Golden outputs of the bundled fixture world.

``tests/golden/`` holds the files that ``rank``, ``evaluate`` and
``cache-export`` wrote on ``data/fixtures/config.json`` at a known-good commit. Rerunning the commands
must reproduce them byte for byte, so a refactor that changes any score,
prediction or formatting detail fails here instead of passing silently. They
run twice on a copy of the fixtures: without the KB cache's key index, which
the first run writes, and with it.

It also holds the ``train --output`` report of every loss on the pairs that
``generate-pairs`` builds from the same config. Training sums in an order
that a refactor may change, so the reports are compared field by field: the
loss trajectories to within 1e-12, everything else exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from newsgeo.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "data" / "fixtures" / "config.json"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "rank": (["rank"], {"--output": "rank.jsonl"}),
    "evaluate": (
        ["evaluate"],
        {"--output": "evaluate.json", "--trace": "evaluate_trace.jsonl"},
    ),
    "baseline": (
        ["evaluate", "--baseline", "first-location-located"],
        {"--output": "evaluate_baseline.json"},
    ),
    "baseline-first": (
        ["evaluate", "--baseline", "first-location"],
        {"--output": "evaluate_baseline_first.json"},
    ),
    "cache-export": (["cache-export"], {"--output": "cache_export.jsonl"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixture_outputs_match_golden(case, tmp_path, fixture_tree, capsys):
    command, outputs = CASES[case]
    index = fixture_tree["cache"].with_name("kb_cache.jsonl.index")
    index.unlink(missing_ok=True)
    for run in ("without index", "with index"):
        argv = [*command, "--config", str(fixture_tree["config"])]
        for flag, name in outputs.items():
            argv += [flag, str(tmp_path / f"{run} {name}")]
        assert main(argv) == 0
        for name in outputs.values():
            assert (tmp_path / f"{run} {name}").read_bytes() == (GOLDEN / name).read_bytes(), name
        assert index.is_file()


TRAIN_TOLERANCE = 1e-12
LOSS_FIELDS = ("train_losses", "validation_losses", "best_validation_loss")


@pytest.mark.parametrize("loss", ["contrastive", "cosine_mse", "infonce", "triplet"])
def test_fixture_training_matches_golden(loss, tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    report = tmp_path / f"train_{loss}.json"
    assert main(["generate-pairs", "--config", str(CONFIG), "--output", str(pairs)]) == 0
    argv = ["train", "--config", str(CONFIG), "--pairs", str(pairs), "--loss", loss]
    argv += ["--epochs", "4", "--patience", "4", "--output", str(report)]
    assert main(argv) == 0
    ours = json.loads(report.read_text(encoding="utf-8"))
    golden = json.loads((GOLDEN / report.name).read_text(encoding="utf-8"))
    assert sorted(ours) == sorted(golden)
    for field in LOSS_FIELDS:
        assert np.shape(ours[field]) == np.shape(golden[field]), field
        assert np.allclose(ours[field], golden[field], rtol=0.0, atol=TRAIN_TOLERANCE), field
    assert {k: v for k, v in ours.items() if k not in LOSS_FIELDS} == {
        k: v for k, v in golden.items() if k not in LOSS_FIELDS
    }
