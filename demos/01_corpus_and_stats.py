"""Walk through the corpus layer: loading, validation, statistics, splits.

The bundled fixture corpus holds ten short Wikipedia-style articles, two per
language, each with pre-parsed entity mentions and category names. Loading
validates every record (mention surfaces must match their offsets, entity ids
must look like Q-numbers) and skips invalid lines with a warning instead of
aborting, because real dump extractions always contain a few broken records.
"""

from pathlib import Path

from newsgeo.config import load_config
from newsgeo.corpus import (
    compute_stats,
    format_stats_table,
    load_corpus,
    split_train_validation,
)

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "fixtures"


def main() -> None:
    config = load_config(FIXTURES / "config.json")

    articles = []
    for language in sorted(config.corpus):
        loaded, report = load_corpus(config.corpus[language], language)
        print(f"{Path(report.path).name}: {len(loaded)} articles, {report.skipped} skipped")
        articles.extend(loaded)

    first = articles[0]
    print()
    print(f"article {first.id} ({first.language}): {first.title!r}")
    print(f"  text: {first.text[:70]}...")
    print(f"  categories: {first.categories}")
    for mention in first.mentions[:4]:
        print(f"  mention {mention.surface!r} -> {mention.qid} at [{mention.start}, {mention.end})")

    resolver = config.build_resolver()
    category_locations = {
        article.id: resolver.classify_categories(article.categories, article.language)
        for article in articles
    }
    located = sum(1 for locations in category_locations.values() if locations)
    found = sum(len(locations) for locations in category_locations.values())
    print()
    print(format_stats_table(compute_stats(articles)))
    print(f"locations in categories: {found}, in {located} of {len(articles)} documents")

    ids = [article.id for article in articles]
    train_ids, validation_ids = split_train_validation(ids, 0.3, config.seed)
    print()
    print(f"document split: {len(train_ids)} train, {len(validation_ids)} validation")
    print(f"held out: {validation_ids}")


if __name__ == "__main__":
    main()
