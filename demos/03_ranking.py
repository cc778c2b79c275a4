"""Rank a document's entities by embedding similarity and pick its location.

A person-first article is the interesting case: the document opens with a
non-location entity, so the only_locations pool never sees it, while the
located_non_locations mode replaces the person with the location inferred
from their page and lets that rendered text compete in the ranking.
"""

from pathlib import Path

from newsgeo.config import LOCATED_NON_LOCATIONS, ONLY_LOCATIONS, load_config
from newsgeo.corpus import load_corpus
from newsgeo.ner import ensemble_spans
from newsgeo.ranking import (
    build_candidate_pool,
    predict_location,
    rank_candidates,
)

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "fixtures"


def main() -> None:
    config = load_config(FIXTURES / "config.json")
    resolver = config.build_resolver()
    providers = config.build_ner_providers()
    embedder = config.build_embedder()

    articles, _ = load_corpus(config.corpus["en"], "en")
    article = next(a for a in articles if a.id == "en-002")
    print(f"article {article.id}: {article.text[:76]}...")

    spans = ensemble_spans(article.text, article.language, providers)
    print()
    print("recognized spans:")
    for span in spans:
        print(f"  [{span.start:3d}, {span.end:3d}) {span.label:12s} {span.surface!r}")

    for modes in ([ONLY_LOCATIONS], [ONLY_LOCATIONS, LOCATED_NON_LOCATIONS]):
        pool = build_candidate_pool(spans, article.language, modes, resolver)
        ranked = rank_candidates(article.text, pool, embedder, config.chunking_mode)
        print()
        print(f"modes {'+'.join(modes)}: {len(pool)} candidates")
        for candidate in ranked:
            print(f"  {candidate.score:+.4f}  {candidate.text!r}")
        prediction = predict_location(ranked, article.language, resolver)
        print(f"  predicted location: {prediction}")


if __name__ == "__main__":
    main()
