"""Score three systems on the fixture gold standard at both levels.

Precision@1 counts a document as a hit when the predicted tuple matches any
of its gold locations; per-language scores are macro-averaged so small
language editions count as much as large ones. All three systems choose from
the same candidates: the first-location baselines take the earliest one that
resolves, in text order (the located variant also counts entities whose KB
page names a location); the ranked system embeds, scores and resolves the
best one.

The config ships the deterministic mock embedder, whose similarities are
reproducible but carry no meaning, so the ranked rows demonstrate the
machinery rather than the achievable quality. Swap ``embedder`` in
data/fixtures/config.json for a sentence-transformers model to rank with
real similarities.
"""

from pathlib import Path

from newsgeo.config import LOCATED_NON_LOCATIONS, ONLY_LOCATIONS, load_config
from newsgeo.corpus import load_corpus, load_gold
from newsgeo.evaluation import baseline_predictor, format_report_table, run_experiment

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "fixtures"


def main() -> None:
    config = load_config(FIXTURES / "config.json")
    resolver = config.build_resolver()
    providers = config.build_ner_providers()

    articles = []
    for language in sorted(config.corpus):
        articles.extend(load_corpus(config.corpus[language], language)[0])
    gold = load_gold(config.gold)
    print(f"{len(articles)} articles, {len(gold)} gold annotations")

    systems = [
        ("baseline-first-location", baseline_predictor(resolver, providers, (ONLY_LOCATIONS,))),
        (
            "baseline-first-location-located",
            baseline_predictor(resolver, providers, (ONLY_LOCATIONS, LOCATED_NON_LOCATIONS)),
        ),
        ("ranked-" + "+".join(config.representation_modes), config.build_pipeline().predict),
    ]
    reports = [
        run_experiment(articles, gold, predictor, system=name, workers=config.workers)
        for name, predictor in systems
    ]
    print()
    print(format_report_table(reports))

    print()
    print("ranked-system trace (first 4 documents):")
    for entry in reports[-1].trace[:4]:
        verdict = "city hit" if entry.city_hit else ("country hit" if entry.country_hit else "miss")
        print(f"  {entry.article_id}: predicted {entry.prediction}  [{verdict}]")


if __name__ == "__main__":
    main()
