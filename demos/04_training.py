"""Generate training pairs without annotation and fine-tune the embedder.

Category names double as weak supervision: an article categorized under
"Paris" yields the positive pair (article text, "Paris, France"), and its
other linked entities that resolve to different countries become negatives,
capped at one negative per positive. A linear adapter over the frozen
embedder is then trained with the contrastive objective; the best epoch by
held-out validation loss is kept.
"""

from pathlib import Path

from newsgeo.config import load_config
from newsgeo.corpus import load_corpus
from newsgeo.pairs import generate_pairs
from newsgeo.training import LinearAdapter, train

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "fixtures"


def main() -> None:
    config = load_config(FIXTURES / "config.json")
    resolver = config.build_resolver()

    articles = []
    for language in sorted(config.corpus):
        articles.extend(load_corpus(config.corpus[language], language)[0])

    pairs = generate_pairs(articles, resolver, seed=config.seed)
    positives = sum(1 for pair in pairs if pair.label == 1)
    print(f"{len(pairs)} pairs: {positives} positive, {len(pairs) - positives} negative")
    for pair in pairs[:4]:
        print(f"  {pair.article_id}: label {pair.label}  entity {pair.entity_text!r}")

    adapter = LinearAdapter(config.build_embedder())
    report = train(adapter, pairs, config.loss, config.chunking_mode)
    print()
    print(f"loss {report.loss!r}, batch {report.batch_size}, learning rate {report.learning_rate}")
    print(f"ran {report.epochs_run}/{report.epochs_requested} epochs"
          f"{' (stopped early)' if report.stopped_early else ''}")
    for epoch, (train_loss, validation_loss) in enumerate(
        zip(report.train_losses, report.validation_losses), start=1
    ):
        marker = "  <- best" if epoch == report.best_epoch else ""
        print(f"  epoch {epoch}: train {train_loss:.6f}  validation {validation_loss:.6f}{marker}")
    print(f"restored weights from epoch {report.best_epoch}"
          f" (validation loss {report.best_validation_loss:.6f})")


if __name__ == "__main__":
    main()
