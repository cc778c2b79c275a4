"""Contrastive fine-tuning: four objectives and the training loop.

The pairs come from :mod:`newsgeo.pairs`. Four objectives are supported, all
defined on cosine geometry: squared cosine error, margin contrastive,
triplet, and InfoNCE with in-batch negatives. Gradients are analytic
(numpy); the trainable model is a linear map applied on top of a frozen base
encoder, which keeps the loop exact, fast and dependency-free while exposing
the same provider interface.
"""

from __future__ import annotations

import logging
import math
import random
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

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
    u: np.ndarray, v: np.ndarray, y: Any, margin: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Margin contrastive loss on cosine distance d = 1 - cos(u, v).

    Positives pay d^2 / 2; negatives pay max(0, margin - d)^2 / 2.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")

    def objective(c, labels):
        d = 1.0 - c
        # dl/dd is d for positives and minus the hinge for negatives; dd/dc is -1.
        dl_dd = np.where(labels == 1, d, -np.maximum(0.0, margin - d))
        return dl_dd * dl_dd / 2.0, -dl_dd

    return _pairwise_grad(u, v, y, objective)


def loss_triplet_grad(
    u: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray, margin: float
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


def loss_infonce_grad(us: np.ndarray, vs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """In-batch softmax cross entropy over cosines.

    Row i's positive is column i; every other column of the batch acts as a
    negative: mean_i -log(exp(c_ii) / sum_j exp(c_ij)).
    """
    rows_u, rows_v = _rows(us, vs)
    b = len(rows_u)
    if np.ndim(us) != 2 or b < 2:
        raise ValueError("in-batch negatives need (B, n) batches with B >= 2")
    uh, nu = _unit_rows(rows_u)
    vh, nv = _unit_rows(rows_v)
    scores = uh @ vh.T
    row_max = scores.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(scores - row_max).sum(axis=1))
    loss = float(np.mean(lse - np.diag(scores)))
    g_scores = (np.exp(scores - lse[:, None]) - np.eye(b)) * (1.0 / b)
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


def save_checkpoint(adapter: LinearAdapter, path: str | Path) -> None:
    """Write the weights as an .npz archive to exactly ``path``, whatever its suffix."""
    with Path(path).open("wb") as handle:
        np.savez(handle, weights=adapter.weights)


def load_checkpoint(base: EmbeddingProvider, path: str | Path) -> LinearAdapter:
    with np.load(Path(path)) as data:
        return LinearAdapter(base, weights=data["weights"])


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries where it happened."""


class TrainingReport(NamedTuple):
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
        return self._asdict()


def train(
    adapter: LinearAdapter,
    pairs: Sequence[TrainingPair],
    config: LossConfig,
    chunking: str = AVERAGE,
) -> TrainingReport:
    """Fine-tune the adapter on generated pairs.

    Pairs are split into train/validation by document, so both sides of a
    document's pairs land together. After every epoch the validation loss is
    measured. Only a strictly lower loss is an improvement; the best epoch's
    weights are kept and restored at the end, and training stops early once
    more than ``early_stop_patience`` epochs have passed since the best.
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
    # Each step replaces adapter.weights and never writes into it, so the
    # best weights are kept by reference.
    best_epoch, best_loss, best_weights = 0, math.inf, adapter.weights
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
            gradient *= config.learning_rate  # a new array each step
            adapter.weights = adapter.weights - gradient
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
        if validation_loss < best_loss:
            best_epoch, best_loss, best_weights = epoch, validation_loss, adapter.weights
        elif epoch - best_epoch > config.early_stop_patience:
            stopped_early = True
            break
    adapter.weights = best_weights
    return TrainingReport(
        loss=config.loss,
        batch_size=config.batch_size,
        epochs_requested=config.epochs,
        epochs_run=len(train_losses),
        best_epoch=best_epoch,
        best_validation_loss=best_loss,
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

    Each distinct text of the batch is embedded once: with X_D its feature
    rows and U_D = X_D W^T, column k of ``rows`` reads its texts' rows U_k of
    U_D. The loss gradients G_k w.r.t. the U_k are summed onto their texts as
    G_D, and the weight gradient sum_k G_k^T X_k is formed as one G_D^T X_D.
    So a step costs the number of distinct texts times n^2.
    """
    texts, where = np.unique(rows, return_inverse=True)
    where = where.reshape(rows.shape)  # numpy 1.x returns the inverse flat
    x = features[texts]
    u = x @ weights.T
    us = [u[column] for column in where.T]
    if config.loss == COSINE_MSE:
        loss, *grads = loss_cosine_grad(*us, labels)
    elif config.loss == CONTRASTIVE:
        loss, *grads = loss_contrastive_grad(*us, labels, config.resolved_margin)
    elif config.loss == TRIPLET:
        loss, *grads = loss_triplet_grad(*us, config.resolved_margin)
    else:
        loss, *grads = loss_infonce_grad(*us)
    if not gradient:
        return loss, None
    # One-hot (texts x rows) fold of the stacked row gradients onto their texts.
    fold = (np.arange(len(texts))[:, None] == where.T.reshape(-1)).astype(float)
    return loss, (fold @ np.concatenate(grads)).T @ x


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
