"""Output checks. Each raises ``CheckFailed`` naming what is wrong.

The checks recompute what the command line claims from its own outputs and
the world's ground truth, never through the library under test.
"""

from __future__ import annotations

import math
from typing import Any


class CheckFailed(Exception):
    pass


def identical(name: str, first: bytes, again: bytes) -> None:
    """Reruns of one command on one world must produce the same bytes."""
    if first != again:
        raise CheckFailed(f"{name}: output differs between runs of one invocation")


def _match(prediction: dict | None, gold: dict, level: str) -> bool:
    if prediction is None:
        return False
    qid_a, qid_b = prediction.get(f"{level}_qid"), gold.get(f"{level}_qid")
    if qid_a and qid_b:
        return qid_a == qid_b
    name_a, name_b = prediction.get(level), gold.get(level)
    return bool(name_a and name_b and name_a.casefold() == name_b.casefold())


def recount_p1(report: dict[str, Any], gold: dict[str, list[dict]], languages: dict[str, str]) -> None:
    """Recount macro/micro P@1 from the report's per-document trace and the
    gold file, and require the report's figures to agree."""
    entries = report["trace"]
    if sorted(entry["article_id"] for entry in entries) != sorted(gold):
        raise CheckFailed("evaluate: trace does not cover exactly the gold documents")
    for level in ("country", "city"):
        hits: dict[str, int] = {}
        docs: dict[str, int] = {}
        for entry in entries:
            article = entry["article_id"]
            language = languages[article]
            hit = any(_match(entry["prediction"], g, level) for g in gold[article])
            if hit != entry[f"{level}_hit"]:
                raise CheckFailed(f"evaluate: {article} {level}_hit disagrees with its prediction")
            docs[language] = docs.get(language, 0) + 1
            hits[language] = hits.get(language, 0) + hit
        per_language = {lang: hits[lang] / docs[lang] for lang in sorted(docs)}
        macro = sum(per_language.values()) / len(per_language)
        claimed = report[level]
        if claimed["hits"] != sum(hits.values()) or claimed["documents"] != sum(docs.values()):
            raise CheckFailed(f"evaluate: {level} hits {claimed['hits']} != recount {sum(hits.values())}")
        if not math.isclose(claimed["macro"], macro, rel_tol=0, abs_tol=1e-12):
            raise CheckFailed(f"evaluate: {level} macro {claimed['macro']} != recount {macro}")


def predictions_follow_ranking(
    report: dict[str, Any],
    ranked: list[dict[str, Any]],
    truth: dict[tuple[str, str], tuple | None],
    languages: dict[str, str],
) -> int:
    """Each prediction must be the world location of the best-ranked candidate
    that the world can resolve; returns the number of articles checked."""
    predictions = {entry["article_id"]: entry["prediction"] for entry in report["trace"]}
    checked = 0
    for record in ranked:
        article = record["article_id"]
        if article not in predictions:
            continue
        language = languages[article]
        expected = None
        for candidate in record["candidates"]:
            key = (language, candidate["text"])
            if key not in truth:
                raise CheckFailed(f"rank: {article} ranks unknown candidate {candidate['text']!r}")
            location = truth[key]
            if location is None:
                continue
            if candidate["city_qid"] is not None or candidate["country_qid"] is not None:
                if (candidate["city_qid"], candidate["country_qid"]) != (location[0], location[2]):
                    raise CheckFailed(f"rank: {article} candidate {candidate['text']!r} located wrongly")
            expected = location
            break
        got = predictions[article]
        got_tuple = None if got is None else (got["city_qid"], got["city"], got["country_qid"], got["country"])
        if got_tuple != expected:
            raise CheckFailed(f"evaluate: {article} predicted {got_tuple}, ranking implies {expected}")
        checked += 1
    if checked == 0:
        raise CheckFailed("rank: no article in common with evaluate")
    return checked


def training_report(report: dict[str, Any], loss: str, epochs: int) -> None:
    if report["loss"] != loss:
        raise CheckFailed(f"train: trained {report['loss']!r}, asked for {loss!r}")
    if report["epochs_run"] != epochs or report["epochs_requested"] != epochs:
        raise CheckFailed(f"train {loss}: ran {report['epochs_run']} of {epochs} epochs")
    losses = report["train_losses"] + report["validation_losses"] + [report["best_validation_loss"]]
    if len(report["train_losses"]) != epochs or len(report["validation_losses"]) != epochs:
        raise CheckFailed(f"train {loss}: loss history does not have {epochs} epochs")
    if not all(isinstance(value, (int, float)) and math.isfinite(value) for value in losses):
        raise CheckFailed(f"train {loss}: non-finite loss in report")
