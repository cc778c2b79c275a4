"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

The harness times this script, in a fresh interpreter like every measured
command, right before each command. It does the kinds of work the commands do
(interpreter start and the numpy import, parsing JSON lines into a
dictionary, string handling, 384-dimensional dot products) on inputs that
never change and without importing newsgeo, so its time follows the host's
speed and not the program under test.
"""

from __future__ import annotations

import json
import re

import numpy as np

RECORDS = 6000
VECTORS = 400
DIMENSION = 384


def main() -> int:
    lines = [
        json.dumps({"key": f"wikidata:entity:Q{i}", "value": {
            "labels": {"en": f"Place {i}", "de": f"Ort {i}"},
            "claims": {"P31": [f"Q{i % 97}"], "P131": [f"Q{i % 1013}"]},
        }})
        for i in range(RECORDS)
    ]
    index: dict[str, str] = {}
    words: dict[str, int] = {}
    for line in lines:
        row = json.loads(line)
        index[row["key"]] = row["value"]["claims"]["P131"][0]
        for word in re.findall(r"\w+", row["value"]["labels"]["en"]):
            words[word] = words.get(word, 0) + 1
    vectors = np.random.default_rng(0).standard_normal((VECTORS, DIMENSION))
    total = 0.0
    for i in range(VECTORS):
        other = vectors[(i * 7) % VECTORS]
        total += float(other @ vectors[i]) / (float(np.linalg.norm(other)) + 1.0)
    return 0 if len(index) == RECORDS and words and np.isfinite(total) else 1


if __name__ == "__main__":
    raise SystemExit(main())
