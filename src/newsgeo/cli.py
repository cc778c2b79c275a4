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
import atexit
import gc
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .config import (
    CACHE_ONLY,
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
    LocationTuple,
    compute_stats,
    format_stats_table,
    load_corpus,
    load_gold,
    save_corpus,
)
from .memo import map_articles
from .pairs import TrainingPair, generate_pairs, load_pairs, save_pairs

if TYPE_CHECKING:
    from .locations import Resolver

# Each command imports the layers it runs when it runs, through the config's
# builders or its own imports: each command starts in a fresh interpreter, and
# most of a short command's time would otherwise go to importing. `train
# --pairs` loads no KB layer, and numpy loads at a command's first vector, so
# `evaluate --baseline`, and a run whose articles yield no candidate, never
# load it.

logger = logging.getLogger(__name__)

# At exit, move every live object out of the collector's reach, so that the
# interpreter's last collections skip what the command built instead of
# walking it again: it dies with the process. Nothing waits on a finalizer
# at exit: outputs are written through `with` or `write_text`, worker threads
# are joined before `main` returns, and the logging shutdown and stream
# flushes still run.
atexit.register(gc.freeze)

# The representation modes whose candidates each baseline reads in text order.
_BASELINES = {
    "first-location": (ONLY_LOCATIONS,),
    "first-location-located": (ONLY_LOCATIONS, LOCATED_NON_LOCATIONS),
}


# Each flag a command's configuration reads: the config fields it sets
# ("loss." names a training setting), and its argparse settings. A flag left
# out, or given an empty string, sets nothing.
_FLAGS: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "--config": ((), dict(help="JSON config file")),
    "--cache": (("cache",), dict(help="KB cache file or directory")),
    "--network": (("network",), dict(choices=["online", "online-then-cache", "cache-only"])),
    "--workers": (("workers",), dict(type=int)),
    "--corpus": (("corpus",), dict(
        action="append", metavar="LANG=PATH",
        help="corpus file for one language (repeatable; overrides config)",
    )),
    "--seed": (("seed", "loss.seed"), dict(type=int)),
    "--embedder": (("embedder",), dict(help="embedding provider id, e.g. mock:16")),
    "--mode": (
        ("representation_modes",), dict(action="append", help="representation mode (repeatable)")
    ),
    "--gold": (("gold",), dict(help="gold JSONL (overrides config)")),
    "--loss": (("loss.loss",), dict(choices=LOSSES)),
    "--batch-size": (("loss.batch_size",), dict(type=int)),
    "--epochs": (("loss.epochs",), dict(type=int)),
    "--margin": (("loss.margin",), dict(type=float)),
    "--patience": (("loss.early_stop_patience",), dict(type=int)),
    "--learning-rate": (("loss.learning_rate",), dict(type=float)),
}
# The shared flags: the KB stages read five, generate-pairs adds the seed of
# its sampler, and the stages that embed, which may all read the KB, add the embedder.
_KB_FLAGS = ("--config", "--cache", "--network", "--workers", "--corpus")
_PAIR_FLAGS = (*_KB_FLAGS, "--seed")
_ALL_FLAGS = (*_PAIR_FLAGS, "--embedder")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        # A command without --config (ingest) reads no configuration.
        config = _effective_config(args) if "config" in args else None
        return args.handler(args, config)
    except ConfigError as exc:
        return _fail("config", exc.problems)
    except Exception as exc:
        # Imported here: no KbError exists before a command has loaded newsgeo.kb.
        from .kb import KbCacheCorrupt, KbCacheMiss, KbRemoteError

        if isinstance(exc, KbCacheMiss):
            hint = "run with --network online to fill the cache, or warm it first"
            return _fail("cache-miss", [f"{exc.source}:{exc.key}"], hint=hint)
        if isinstance(exc, KbRemoteError):
            hint = "the knowledge base could not be reached; records fetched so far are cached"
            return _fail("remote-error", [str(exc)], hint=hint)
        if isinstance(exc, KbCacheCorrupt):
            return _fail("valueerror", [str(exc)])
        if isinstance(exc, FileNotFoundError):
            return _fail("missing-file", [str(exc)])
        if isinstance(exc, (ValueError, OSError)):
            return _fail(type(exc).__name__.lower(), [str(exc)])
        raise


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
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Any, flags: Sequence[str], summary: str) -> Any:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag][1])
        p.set_defaults(handler=handler)
        return p

    p = command("ingest", cmd_ingest, (), "load, validate and normalize a corpus file")
    p.add_argument("--input", required=True)
    p.add_argument("--language", required=True, choices=SUPPORTED_LANGUAGES)
    p.add_argument("--output", required=True)
    p.add_argument("--stats", action="store_true", help="print the corpus statistics table")
    p = command(
        "classify-categories", cmd_classify_categories, _KB_FLAGS,
        "infer locations from article categories",
    )
    p.add_argument("--output", required=True)
    p = command(
        "generate-pairs", cmd_generate_pairs, _PAIR_FLAGS, "build contrastive training pairs"
    )
    p.add_argument("--output", required=True)
    p = command("rank", cmd_rank, (*_ALL_FLAGS, "--mode"), "rank candidate entities per article")
    p.add_argument("--output", required=True)
    p = command(
        "evaluate", cmd_evaluate, (*_ALL_FLAGS, "--gold", "--mode"),
        "score predictions against the gold file",
    )
    p.add_argument("--baseline", choices=sorted(_BASELINES))
    p.add_argument("--output", help="write the full report as JSON")
    p.add_argument("--trace", help="write the per-document trace as JSONL")
    training = ("--loss", "--batch-size", "--epochs", "--margin", "--patience", "--learning-rate")
    p = command("train", cmd_train, (*_ALL_FLAGS, *training), "fine-tune the embedding adapter")
    p.add_argument("--pairs", help="pairs JSONL from generate-pairs (else computed)")
    p.add_argument("--output", help="write the training report as JSON")
    p.add_argument("--checkpoint", help="write the fine-tuned weights (.npz)")
    p = command(
        "cache-export", cmd_cache_export, ("--config", "--cache"), "write a sorted cache snapshot"
    )
    p.add_argument("--output", required=True)
    return parser


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    """Materialize the run configuration: flags > config file > defaults."""
    config = load_config(args.config) if args.config else PipelineConfig()
    changes: dict[str, Any] = {}
    loss_changes: dict[str, Any] = {}
    for flag, (fields, _) in _FLAGS.items():
        value = vars(args).get(flag[2:].replace("-", "_"))
        if value is None or value == "":
            continue
        if flag == "--corpus":
            value = _corpus_entries(value)
        for field in fields:
            owner, _, name = field.rpartition(".")
            (loss_changes if owner else changes)[name] = value
    config = config._replace(**changes, loss=config.loss._replace(**loss_changes))
    config.validate()
    return config


def _corpus_entries(entries: list[str]) -> dict[str, str]:
    """The language -> path map of the --corpus entries; a ConfigError for
    an entry not of the form LANG=PATH or a language given twice."""
    paths: dict[str, str] = {}
    problems = []
    for entry in entries:
        language, separator, path = entry.partition("=")
        if not separator or not language or not path:
            problems.append(f"corpus: expected LANG=PATH, got {entry!r}")
        elif language in paths:
            problems.append(
                f"corpus: language {language!r} given twice ({paths[language]!r} and {path!r})"
            )
        else:
            paths[language] = path
    if problems:
        raise ConfigError(problems)
    return paths


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


def _write_json(path: str, value: Any) -> None:
    """Write `value` as indented JSON with sorted keys."""
    text = json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_jsonl(path: str, records: Iterable[Any]) -> None:
    """Write each record as one line of JSON with sorted keys."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def cmd_ingest(args: argparse.Namespace, config: None) -> int:
    articles, report = load_corpus(args.input, args.language)
    _note_sources(articles, report.path, {})
    save_corpus(articles, args.output)
    print(f"loaded {len(articles)} articles, skipped {report.skipped} -> {args.output}")
    if args.stats:
        print(format_stats_table(compute_stats(articles)))
    return 0


def cmd_classify_categories(args: argparse.Namespace, config: PipelineConfig) -> int:
    articles = _load_all(config)
    resolver = config.build_resolver()
    locations = _category_locations(articles, resolver, config.workers)
    records = [
        {"article_id": article.id, "locations": [loc.to_json() for loc in locations[article.id]]}
        for article in articles
    ]
    _write_jsonl(args.output, records)
    located = sum(1 for article in articles if locations[article.id])
    print(f"classified {len(articles)} articles, {located} with category locations -> {args.output}")
    return 0


def _corpus_pairs(config: PipelineConfig) -> list[TrainingPair]:
    """Training pairs of the corpus, from its category locations."""
    articles = _load_all(config)
    resolver = config.build_resolver()
    return generate_pairs(articles, resolver, seed=config.seed, workers=config.workers)


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
    _write_jsonl(args.output, records)
    print(f"ranked {len(records)} articles -> {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    from .evaluation import baseline_predictor, format_report_table, run_experiment

    if args.baseline and args.mode:
        raise ConfigError(["--mode: not used with --baseline, which reads the modes it names"])
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
        _write_json(args.output, report.to_json())
    if args.trace:
        _write_jsonl(args.trace, (entry.to_json() for entry in report.trace))
    return 0


def cmd_train(args: argparse.Namespace, config: PipelineConfig) -> int:
    from .training import LinearAdapter, TrainingDiverged, save_checkpoint, train

    pairs = load_pairs(args.pairs) if args.pairs else _corpus_pairs(config)
    adapter = LinearAdapter(config.build_embedder())
    try:
        report = train(adapter, pairs, config.loss, config.chunking_mode)
    except TrainingDiverged as exc:
        return _fail("training-diverged", [str(exc)])
    print(
        f"trained loss={report.loss} batch={report.batch_size} "
        f"epochs={report.epochs_run}/{report.epochs_requested} best={report.best_epoch}"
    )
    if args.output:
        _write_json(args.output, report.to_json())
    if args.checkpoint:
        save_checkpoint(adapter, args.checkpoint)
    return 0


def cmd_cache_export(args: argparse.Namespace, config: PipelineConfig) -> int:
    # An export only reads the cache, so it needs its file.
    cache = config._replace(network=CACHE_ONLY).build_cache()
    count = cache.export(args.output)
    print(f"exported {count} cache entries -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
