"""Command-line entry point wiring the pipeline stages.

Commands map one-to-one onto module-level operations: ingest (corpus
loading), classify-categories (category location inference), generate-pairs
(training-pair construction), rank (candidate ranking), evaluate (MP@1
scoring), train (contrastive fine-tuning), cache-export (KB cache snapshot).
Every command writes deterministic artifacts: no timestamps, sorted JSON
keys, stable ordering, so reruns on unchanged inputs are byte-identical.

Exit codes: 0 success, 1 configuration or runtime failure (a structured JSON
error report goes to stderr), 2 usage errors (from argument parsing).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Any, Sequence

from .config import (
    LOCATED_NON_LOCATIONS,
    LOSSES,
    ONLY_LOCATIONS,
    ConfigError,
    PipelineConfig,
    load_config,
)
from .corpus import (
    SUPPORTED_LANGUAGES,
    Article,
    compute_stats,
    format_stats_table,
    load_corpus,
    load_gold,
    save_corpus,
)
from .kb import KbCacheCorrupt, KbCacheMiss, KbRemoteError
from .locations import LocationTuple, Resolver
from .memo import map_articles
from .pairs import TrainingPair, generate_pairs, load_pairs, save_pairs

# The commands that embed import evaluation, ranking or training (and with
# them numpy) when they run: each command starts in a fresh interpreter, and
# the KB-only commands would otherwise spend most of their time importing.

logger = logging.getLogger(__name__)

# The representation modes whose candidates each baseline reads in text order.
_BASELINES = {
    "first-location": (ONLY_LOCATIONS,),
    "first-location-located": (ONLY_LOCATIONS, LOCATED_NON_LOCATIONS),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _effective_config(args)
        return args.handler(args, config)
    except ConfigError as exc:
        return _fail("config", exc.problems)
    except KbCacheMiss as exc:
        return _fail(
            "cache-miss",
            [f"{exc.source}:{exc.key}"],
            hint="run with --network online to fill the cache, or warm it first",
        )
    except KbRemoteError as exc:
        return _fail(
            "remote-error",
            [str(exc)],
            hint="the knowledge base could not be reached; records fetched so far are cached",
        )
    except KbCacheCorrupt as exc:
        return _fail("valueerror", [str(exc)])
    except FileNotFoundError as exc:
        return _fail("missing-file", [str(exc)])
    except (ValueError, OSError) as exc:
        return _fail(type(exc).__name__.lower(), [str(exc)])


def _fail(kind: str, details: list[str], hint: str | None = None) -> int:
    report: dict[str, Any] = {"error": kind, "details": details}
    if hint:
        report["hint"] = hint
    print(json.dumps(report, ensure_ascii=False, sort_keys=True), file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsgeo",
        description="Multilingual news location detection pipeline.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--cache", help="KB cache file or directory")
    common.add_argument("--network", choices=["online", "online-then-cache", "cache-only"])
    common.add_argument("--seed", type=int)
    common.add_argument("--workers", type=int)
    common.add_argument("--embedder", help="embedding provider id, e.g. mock:16")
    common.add_argument(
        "--corpus",
        action="append",
        metavar="LANG=PATH",
        help="corpus file for one language (repeatable; overrides config)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load, validate and normalize a corpus file")
    p.add_argument("--input", required=True)
    p.add_argument("--language", required=True, choices=SUPPORTED_LANGUAGES)
    p.add_argument("--output", required=True)
    p.add_argument("--stats", action="store_true", help="print the corpus statistics table")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser(
        "classify-categories", parents=[common], help="infer locations from article categories"
    )
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_classify_categories)

    p = sub.add_parser(
        "generate-pairs", parents=[common], help="build contrastive training pairs"
    )
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_generate_pairs)

    p = sub.add_parser("rank", parents=[common], help="rank candidate entities per article")
    p.add_argument("--mode", action="append", help="representation mode (repeatable)")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("evaluate", parents=[common], help="score predictions against the gold file")
    p.add_argument("--gold", help="gold JSONL (overrides config)")
    p.add_argument("--baseline", choices=sorted(_BASELINES))
    p.add_argument("--mode", action="append", help="representation mode (repeatable)")
    p.add_argument("--output", help="write the full report as JSON")
    p.add_argument("--trace", help="write the per-document trace as JSONL")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("train", parents=[common], help="fine-tune the embedding adapter")
    p.add_argument("--pairs", help="pairs JSONL from generate-pairs (else computed)")
    p.add_argument("--loss", choices=LOSSES)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--output", help="write the training report as JSON")
    p.add_argument("--checkpoint", help="write the fine-tuned weights (.npz)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("cache-export", parents=[common], help="write a sorted cache snapshot")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_cache_export)
    return parser


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    """Materialize the run configuration: flags > config file > defaults."""
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.cache:
        config.cache = args.cache
    if args.network:
        config.network = args.network
    if args.seed is not None:
        config.seed = args.seed
        config.loss.seed = args.seed
    if args.workers is not None:
        config.workers = args.workers
    if args.embedder:
        config.embedder = args.embedder
    if args.corpus:
        overrides = {}
        problems = []
        for entry in args.corpus:
            language, separator, path = entry.partition("=")
            if not separator or not language or not path:
                problems.append(f"corpus: expected LANG=PATH, got {entry!r}")
            else:
                overrides[language] = path
        if problems:
            raise ConfigError(problems)
        config.corpus = overrides
    if getattr(args, "mode", None):
        config.representation_modes = list(args.mode)
    if getattr(args, "gold", None):
        config.gold = args.gold
    for flag, field in (
        ("loss", "loss"),
        ("batch_size", "batch_size"),
        ("epochs", "epochs"),
        ("margin", "margin"),
        ("patience", "early_stop_patience"),
        ("learning_rate", "learning_rate"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config.loss, field, value)
    config.validate()
    return config


def _load_all(config: PipelineConfig) -> list[Article]:
    if not config.corpus:
        raise ConfigError(["corpus: no corpus files configured"])
    articles: list[Article] = []
    sources: dict[str, str] = {}
    for language in sorted(config.corpus):
        loaded, report = load_corpus(config.corpus[language], language)
        if report.skipped:
            logger.warning("%s: skipped %d invalid records", report.path, report.skipped)
        _note_sources(loaded, report.path, sources)
        articles.extend(loaded)
    return articles


def _note_sources(articles: Sequence[Article], path: str, sources: dict[str, str]) -> None:
    """Record the file of each article id in `sources`; a repeated id is an error."""
    for article in articles:
        first = sources.get(article.id)
        if first is not None:
            files = first if first == path else f"{first} and {path}"
            raise ValueError(f"duplicate article id {article.id!r} in {files}")
        sources[article.id] = path


def _category_locations(
    articles: Sequence[Article], resolver: Resolver, workers: int
) -> dict[str, list[LocationTuple]]:
    found = map_articles(
        lambda article: resolver.classify_categories(article.categories, article.language),
        articles,
        workers,
    )
    return {article.id: locations for article, locations in zip(articles, found)}


def cmd_ingest(args: argparse.Namespace, config: PipelineConfig) -> int:
    articles, report = load_corpus(args.input, args.language)
    _note_sources(articles, report.path, {})
    save_corpus(articles, args.output)
    print(f"loaded {report.loaded} articles, skipped {report.skipped} -> {args.output}")
    if args.stats:
        print(format_stats_table(compute_stats(articles)))
    return 0


def cmd_classify_categories(args: argparse.Namespace, config: PipelineConfig) -> int:
    articles = _load_all(config)
    resolver = config.build_resolver()
    locations = _category_locations(articles, resolver, config.workers)
    with Path(args.output).open("w", encoding="utf-8") as handle:
        for article in articles:
            record = {
                "article_id": article.id,
                "locations": [loc.to_json() for loc in locations[article.id]],
            }
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    located = sum(1 for article in articles if locations[article.id])
    print(f"classified {len(articles)} articles, {located} with category locations -> {args.output}")
    return 0


def _corpus_pairs(config: PipelineConfig) -> list[TrainingPair]:
    """Training pairs of the corpus, from its category locations."""
    articles = _load_all(config)
    resolver = config.build_resolver()
    locations = _category_locations(articles, resolver, config.workers)
    return generate_pairs(articles, locations, resolver, seed=config.seed, workers=config.workers)


def cmd_generate_pairs(args: argparse.Namespace, config: PipelineConfig) -> int:
    pairs = _corpus_pairs(config)
    save_pairs(pairs, args.output)
    positives = sum(1 for pair in pairs if pair.label == 1)
    print(
        f"generated {len(pairs)} pairs ({positives} positive, "
        f"{len(pairs) - positives} negative) -> {args.output}"
    )
    return 0


def cmd_rank(args: argparse.Namespace, config: PipelineConfig) -> int:
    from .ranking import ranking_record

    articles = _load_all(config)
    pipeline = config.build_pipeline()
    mode = "+".join(config.representation_modes)
    records = map_articles(
        lambda article: ranking_record(article.id, mode, pipeline.rank(article)),
        articles,
        config.workers,
    )
    with Path(args.output).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    print(f"ranked {len(records)} articles -> {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    from .evaluation import baseline_predictor, format_report_table, run_experiment

    if not config.gold:
        raise ConfigError(["gold: no gold file configured"])
    articles = _load_all(config)
    gold = load_gold(config.gold)
    if args.baseline:
        system = f"baseline-{args.baseline}"
        predictor = baseline_predictor(
            config.build_resolver(), config.build_ner_providers(), _BASELINES[args.baseline]
        )
    else:
        system = "ranked-" + "+".join(config.representation_modes)
        predictor = config.build_pipeline().predict
    report = run_experiment(articles, gold, predictor, system=system, workers=config.workers)
    print(format_report_table([report]))
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_json(), ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    if args.trace:
        with Path(args.trace).open("w", encoding="utf-8") as handle:
            for entry in report.trace:
                handle.write(json.dumps(entry.to_json(), ensure_ascii=False, sort_keys=True) + "\n")
    return 0


def cmd_train(args: argparse.Namespace, config: PipelineConfig) -> int:
    from .training import LinearAdapter, TrainingDiverged, save_checkpoint, train

    pairs = load_pairs(args.pairs) if args.pairs else _corpus_pairs(config)
    adapter = LinearAdapter(config.build_embedder())
    try:
        report = train(adapter, pairs, config.loss, config.chunking_mode)
    except TrainingDiverged as exc:
        return _fail("training-diverged", [str(exc)])
    summary = report.to_json()
    print(
        f"trained loss={report.loss} batch={report.batch_size} "
        f"epochs={report.epochs_run}/{report.epochs_requested} best={report.best_epoch}"
    )
    if args.output:
        Path(args.output).write_text(
            json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    if args.checkpoint:
        save_checkpoint(adapter, args.checkpoint)
    return 0


def cmd_cache_export(args: argparse.Namespace, config: PipelineConfig) -> int:
    cache = config.build_cache()
    count = cache.export(args.output)
    print(f"exported {count} cache entries -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
