"""Contrastive fine-tuning: four objectives and the training loop.

The pairs come from :mod:`newsgeo.pairs`. Four objectives are supported, all
defined on cosine geometry: squared cosine error, margin contrastive,
triplet, and InfoNCE with in-batch negatives. Gradients are analytic
(numpy); the trainable model is a linear map applied on top of a frozen base
encoder, which keeps the loop exact, fast and dependency-free while exposing
the same provider interface.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import random
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .config import AVERAGE, CONTRASTIVE, COSINE_MSE, INFONCE, TRIPLET
from .corpus import split_train_validation
from .embedding import EmbeddingProvider, embed_document

if TYPE_CHECKING:
    from .config import LossConfig
    from .pairs import TrainingPair

logger = logging.getLogger(__name__)


def _rows(*vectors: np.ndarray) -> list[np.ndarray]:
    """Inputs as matching (B, n) float row matrices; a 1-D vector is one row."""
    rows = [np.atleast_2d(np.asarray(v, dtype=float)) for v in vectors]
    if rows[0].ndim != 2 or any(r.shape != rows[0].shape for r in rows):
        raise ValueError("expected matching vectors or (B, n) batches")
    return rows


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and their norms."""
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm vector in cosine loss")
    return x / norms[:, None], norms


def _unit_grad(g: np.ndarray, xh: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull row gradients w.r.t. x/|x| back to x: (g - (g.x^) x^) / |x|."""
    return (g - np.sum(g * xh, axis=1, keepdims=True) * xh) / norms[:, None]


def _pairwise_grad(
    u: np.ndarray, v: np.ndarray, y: Any, objective: Callable
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean of a per-row objective of c = cos(u, v), with its gradients.

    ``objective(c, labels)`` returns the row losses and their derivatives
    with respect to c.
    """
    rows_u, rows_v = _rows(u, v)
    labels = np.asarray(y)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    uh, nu = _unit_rows(rows_u)
    vh, nv = _unit_rows(rows_v)
    c = np.sum(uh * vh, axis=1)
    losses, dl_dc = objective(c, np.broadcast_to(labels, c.shape))
    dl_dc = dl_dc[:, None] / len(c)
    grad_u = _unit_grad(dl_dc * vh, uh, nu)
    grad_v = _unit_grad(dl_dc * uh, vh, nv)
    return float(np.mean(losses)), grad_u.reshape(np.shape(u)), grad_v.reshape(np.shape(v))


def loss_cosine_grad(
    u: np.ndarray, v: np.ndarray, y: Any
) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared error between the label and the cosine: (y - cos(u, v))^2."""
    return _pairwise_grad(u, v, y, lambda c, labels: ((labels - c) ** 2, -2.0 * (labels - c)))


def loss_contrastive_grad(
    u: np.ndarray,
    v: np.ndarray,
    y: Any,
    margin: float = 0.5,
    literal_cosine: bool = False,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Margin contrastive loss on cosine distance d = 1 - cos(u, v).

    Positives pay d^2 / 2; negatives pay max(0, margin - d)^2 / 2. With
    ``literal_cosine`` the similarity itself plays the role of d.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    dd_dc = 1.0 if literal_cosine else -1.0

    def objective(c, labels):
        d = c if literal_cosine else 1.0 - c
        # dl/dd is d for positives and minus the hinge for negatives.
        dl_dd = np.where(labels == 1, d, -np.maximum(0.0, margin - d))
        return dl_dd * dl_dd / 2.0, dl_dd * dd_dc

    return _pairwise_grad(u, v, y, objective)


def loss_triplet_grad(
    u: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray, margin: float = 1.0
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean triplet loss on L2-normalized embeddings."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    (uh, nu), (ph, npos), (nh, nneg) = (_unit_rows(r) for r in _rows(u, v_pos, v_neg))
    to_pos, to_neg = uh - ph, uh - nh
    d_pos = np.linalg.norm(to_pos, axis=1)
    d_neg = np.linalg.norm(to_neg, axis=1)
    hinge = np.maximum(0.0, d_pos - d_neg + margin)

    def direction(diff, distance):
        # Rows at a zero hinge, and coincident points (where the distance is
        # not smooth), get the subgradient 0; the division skips them.
        rows = ((hinge > 0.0) & (distance > 0.0))[:, None]
        return np.divide(diff, distance[:, None] * len(hinge), out=np.zeros_like(diff), where=rows)

    g_pos, g_neg = direction(to_pos, d_pos), direction(to_neg, d_neg)
    grad_u = _unit_grad(g_pos - g_neg, uh, nu)
    grad_pos = _unit_grad(-g_pos, ph, npos)
    grad_neg = _unit_grad(g_neg, nh, nneg)
    return (
        float(np.mean(hinge)),
        grad_u.reshape(np.shape(u)),
        grad_pos.reshape(np.shape(v_pos)),
        grad_neg.reshape(np.shape(v_neg)),
    )


def loss_infonce_grad(
    us: np.ndarray, vs: np.ndarray, scale: float = 1.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """In-batch softmax cross entropy over scaled cosines.

    Row i's positive is column i; every other column of the batch acts as a
    negative: mean_i -log(exp(s c_ii) / sum_j exp(s c_ij)).
    """
    rows_u, rows_v = _rows(us, vs)
    b = len(rows_u)
    if np.ndim(us) != 2 or b < 2:
        raise ValueError("in-batch negatives need (B, n) batches with B >= 2")
    if scale <= 0:
        raise ValueError("scale must be positive")
    uh, nu = _unit_rows(rows_u)
    vh, nv = _unit_rows(rows_v)
    scores = scale * (uh @ vh.T)
    row_max = scores.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(scores - row_max).sum(axis=1))
    loss = float(np.mean(lse - np.diag(scores)))
    g_scores = (np.exp(scores - lse[:, None]) - np.eye(b)) * (scale / b)
    return loss, _unit_grad(g_scores @ vh, uh, nu), _unit_grad(g_scores.T @ uh, vh, nv)


class LinearAdapter:
    """Trainable linear map over a frozen base provider.

    Exposes the provider interface, so ranking code cannot tell a fine-tuned
    model from a base one. The weights start as the identity: an untrained
    adapter embeds exactly like its base.
    """

    def __init__(self, base: EmbeddingProvider, weights: np.ndarray | None = None):
        self.base = base
        n = base.dimension
        if weights is None:
            self.weights = np.eye(n)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n, n):
                raise ValueError(f"weights must be ({n}, {n})")
            self.weights = weights.copy()
        self.name = f"linear+{base.name}"
        self.dimension = n
        self.max_tokens = base.max_tokens

    def token_count(self, text: str) -> int:
        return self.base.token_count(text)

    def embed(self, text: str) -> np.ndarray:
        return self.weights @ np.asarray(self.base.embed(text), dtype=float)

    def checkpoint(self) -> np.ndarray:
        return self.weights.copy()

    def restore(self, weights: np.ndarray) -> None:
        self.weights = np.asarray(weights, dtype=float).copy()


def save_checkpoint(adapter: LinearAdapter, path: str | Path) -> None:
    """Write the weights as an .npz archive to exactly ``path``, whatever its suffix."""
    with Path(path).open("wb") as handle:
        np.savez(handle, weights=adapter.weights)


def load_checkpoint(base: EmbeddingProvider, path: str | Path) -> LinearAdapter:
    with np.load(Path(path)) as data:
        return LinearAdapter(base, weights=data["weights"])


class EarlyStopping:
    """Stops when the monitored value has not improved for > patience epochs."""

    def __init__(self, patience: int):
        if patience < 0:
            raise ValueError("patience must be >= 0")
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.epochs_since_best = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record an epoch's value; True means training should stop."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.epochs_since_best > self.patience


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries where it happened."""


@dataclasses.dataclass
class TrainingReport:
    loss: str
    batch_size: int
    epochs_requested: int
    epochs_run: int
    best_epoch: int
    best_validation_loss: float
    train_losses: list[float]
    validation_losses: list[float]
    stopped_early: bool
    train_pairs: int
    validation_pairs: int
    learning_rate: float

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def train(
    adapter: LinearAdapter,
    pairs: Sequence[TrainingPair],
    config: LossConfig,
    chunking: str = AVERAGE,
) -> TrainingReport:
    """Fine-tune the adapter on generated pairs.

    Pairs are split into train/validation by document, so both sides of a
    document's pairs land together. After every epoch the validation loss is
    measured; the best epoch's weights are kept and restored at the end, and
    training stops early once the loss has not improved for more than
    ``early_stop_patience`` epochs.
    """
    if not pairs:
        raise ValueError("no training pairs")
    config.validate()
    document_ids = list(dict.fromkeys(pair.article_id for pair in pairs))
    if len(document_ids) < 2:
        raise ValueError("need pairs from at least 2 documents to hold out validation")
    train_ids, validation_ids = split_train_validation(
        document_ids, config.validation_fraction, config.seed
    )
    train_id_set = set(train_ids)
    train_pairs = [p for p in pairs if p.article_id in train_id_set]
    validation_pairs = [p for p in pairs if p.article_id not in train_id_set]
    index: dict[str, int] = {}
    train_rows, train_labels = _build_items(train_pairs, config.loss, index)
    validation_rows, validation_labels = _build_items(validation_pairs, config.loss, index)
    if not len(train_rows) or not len(validation_rows):
        raise ValueError(f"loss {config.loss} has no usable items on one split")
    features = np.stack([embed_document(text, adapter.base, chunking) for text in index])

    rng = random.Random(config.seed)
    stopper = EarlyStopping(config.early_stop_patience)
    best_weights = adapter.checkpoint()
    train_losses: list[float] = []
    validation_losses: list[float] = []
    stopped_early = False
    for epoch in range(1, config.epochs + 1):
        order = list(range(len(train_rows)))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_items = 0
        for start, end in _batch_bounds(len(order), config):
            batch = order[start:end]
            loss, gradient = _batch_step(
                adapter.weights, features, train_rows[batch], train_labels[batch], config
            )
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch starting at {start}"
                )
            adapter.weights = adapter.weights - config.learning_rate * gradient
            epoch_loss += loss * len(batch)
            epoch_items += len(batch)
        if epoch_items == 0:
            raise ValueError(f"training split has no usable batches for {config.loss}")
        train_loss = epoch_loss / epoch_items
        validation_loss = _split_loss(
            adapter.weights, features, validation_rows, validation_labels, config
        )
        if not math.isfinite(validation_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        train_losses.append(train_loss)
        validation_losses.append(validation_loss)
        logger.info(
            "epoch %d: train %.6f, validation %.6f", epoch, train_loss, validation_loss
        )
        if validation_loss < stopper.best:
            best_weights = adapter.checkpoint()
        if stopper.update(epoch, validation_loss):
            stopped_early = True
            break
    adapter.restore(best_weights)
    return TrainingReport(
        loss=config.loss,
        batch_size=config.batch_size,
        epochs_requested=config.epochs,
        epochs_run=len(train_losses),
        best_epoch=stopper.best_epoch,
        best_validation_loss=stopper.best,
        train_losses=train_losses,
        validation_losses=validation_losses,
        stopped_early=stopped_early,
        train_pairs=len(train_pairs),
        validation_pairs=len(validation_pairs),
        learning_rate=config.learning_rate,
    )


def _build_items(
    pairs: Sequence[TrainingPair], loss: str, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Arrange pairs into per-loss optimization items.

    Pairwise losses use every pair; the triplet loss zips each document's
    positives with its negatives; InfoNCE keeps positives only and finds its
    negatives inside the batch. An item is a row of feature indices, one per
    text column, numbered in first-seen order in ``index`` (which grows by
    every new text); its label is that of its (document, first entity) pair.
    """
    if loss in (COSINE_MSE, CONTRASTIVE):
        items = [(p.document_text, p.entity_text, p.label) for p in pairs]
    elif loss == INFONCE:
        items = [(p.document_text, p.entity_text, 1) for p in pairs if p.label == 1]
    else:
        by_document: dict[str, tuple[list[str], list[str], str]] = {}
        for pair in pairs:
            positives, negatives, _ = by_document.setdefault(
                pair.article_id, ([], [], pair.document_text)
            )
            (positives if pair.label == 1 else negatives).append(pair.entity_text)
        items = [
            (document, positive, negative, 1)
            for positives, negatives, document in by_document.values()
            for positive, negative in zip(positives, negatives)
        ]
    rows = [[index.setdefault(text, len(index)) for text in item[:-1]] for item in items]
    columns = 3 if loss == TRIPLET else 2
    return (
        np.array(rows, dtype=np.intp).reshape(len(items), columns),
        np.array([item[-1] for item in items], dtype=int),
    )


def _batch_bounds(count: int, config: LossConfig) -> list[tuple[int, int]]:
    """(start, end) of each batch over ``count`` items, in order.

    InfoNCE takes its negatives from the batch, so a lone trailing item joins
    the batch before it; a single item makes no batch at all.
    """
    starts = list(range(0, count, config.batch_size))
    if config.loss == INFONCE and count % config.batch_size == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [count]))


def _batch_step(
    weights: np.ndarray,
    features: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    config: LossConfig,
    gradient: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Mean batch loss and, if ``gradient``, its gradient w.r.t. the weights.

    Column k of ``rows`` picks the feature rows X_k of the batch's k-th
    texts. With U_k = X_k W^T and G_k the loss gradient w.r.t. U_k, the
    weight gradient is sum_k G_k^T X_k.
    """
    xs = [features[column] for column in rows.T]
    us = [x @ weights.T for x in xs]
    margin = config.resolved_margin
    if config.loss == COSINE_MSE:
        loss, *grads = loss_cosine_grad(*us, labels)
    elif config.loss == CONTRASTIVE:
        loss, *grads = loss_contrastive_grad(*us, labels, margin)
    elif config.loss == TRIPLET:
        loss, *grads = loss_triplet_grad(*us, margin)
    else:
        loss, *grads = loss_infonce_grad(*us)
    if not gradient:
        return loss, None
    return loss, sum(g.T @ x for g, x in zip(grads, xs))


def _split_loss(
    weights: np.ndarray,
    features: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    config: LossConfig,
) -> float:
    """Loss over a held-out split, without weight gradients or updates."""
    total = 0.0
    count = 0
    for start, end in _batch_bounds(len(rows), config):
        loss, _ = _batch_step(weights, features, rows[start:end], labels[start:end], config, False)
        total += loss * (end - start)
        count += end - start
    if count == 0:
        raise ValueError(f"validation split has no usable batches for {config.loss}")
    return total / count
