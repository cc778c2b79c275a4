"""Golden outputs of the bundled fixture world.

``tests/golden/`` holds the files that ``rank`` and ``evaluate`` wrote on
``data/fixtures/config.json`` at a known-good commit. Rerunning the commands
must reproduce them byte for byte, so a refactor that changes any score,
prediction or formatting detail fails here instead of passing silently.
"""

from __future__ import annotations

from pathlib import Path

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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixture_outputs_match_golden(case, tmp_path, capsys):
    command, outputs = CASES[case]
    argv = [*command, "--config", str(CONFIG)]
    for flag, name in outputs.items():
        argv += [flag, str(tmp_path / name)]
    assert main(argv) == 0
    for name in outputs.values():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
