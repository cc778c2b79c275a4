"""Contrastive fine-tuning: pair generation, four objectives, training loop.

Supervision is free: an article's category-derived locations are positives,
and mentioned entities unrelated to every positive (sharing neither city nor
country) are negatives. Four objectives are supported, all defined on cosine
geometry: squared cosine error, margin contrastive, triplet, and InfoNCE with
in-batch negatives. Gradients are analytic (numpy); the trainable model is a
linear map applied on top of a frozen base encoder, which keeps the loop
exact, fast and dependency-free while exposing the same provider interface.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import random
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .corpus import Article, split_train_validation
from .embedding import ChunkingConfig, EmbeddingProvider, embed_document
from .locations import LocationTuple, Resolver, render_location

logger = logging.getLogger(__name__)

COSINE_MSE = "cosine_mse"
CONTRASTIVE = "contrastive"
TRIPLET = "triplet"
INFONCE = "infonce"
LOSSES = (COSINE_MSE, CONTRASTIVE, TRIPLET, INFONCE)


@dataclasses.dataclass(frozen=True)
class TrainingPair:
    article_id: str
    document_text: str
    entity_text: str
    label: int

    def validate(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if not self.document_text or not self.entity_text:
            raise ValueError("empty pair text")

    @staticmethod
    def from_json(d: dict[str, Any]) -> "TrainingPair":
        return TrainingPair(
            article_id=str(d["article_id"]),
            document_text=d["doc"],
            entity_text=d["entity"],
            label=int(d["label"]),
        )

    def to_json(self) -> dict[str, Any]:
        return dict(
            article_id=self.article_id,
            doc=self.document_text,
            entity=self.entity_text,
            label=self.label,
        )


@dataclasses.dataclass
class LossConfig:
    """Objective and loop settings.

    ``margin`` falls back to a per-loss default (0.5 contrastive, 1.0
    triplet). ``literal_cosine`` restores the written form of the contrastive
    objective, which uses cosine similarity where a distance belongs; the
    default reads it as cosine distance so positives are pulled together.
    """

    loss: str = CONTRASTIVE
    margin: float | None = None
    batch_size: int = 128
    epochs: int = 32
    early_stop_patience: int = 3
    literal_cosine: bool = False
    scale: float = 1.0
    learning_rate: float = 0.05
    validation_fraction: float = 0.2
    seed: int = 13

    def validate(self) -> None:
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r} (choose from {LOSSES})")
        if self.margin is not None and self.margin < 0:
            raise ValueError("margin must be >= 0")
        minimum = 2 if self.loss == INFONCE else 1
        if self.batch_size < minimum:
            raise ValueError(f"batch_size must be >= {minimum} for {self.loss}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")

    @property
    def resolved_margin(self) -> float:
        if self.margin is not None:
            return self.margin
        return {CONTRASTIVE: 0.5, TRIPLET: 1.0}.get(self.loss, 0.0)

    @staticmethod
    def from_json(d: dict[str, Any]) -> "LossConfig":
        config = LossConfig(**d)
        config.validate()
        return config

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _cosine_with_grads(
    u: np.ndarray, v: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """cos(u, v) and its gradients w.r.t. u and v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("zero-norm vector in cosine loss")
    c = float(np.dot(u, v) / (nu * nv))
    grad_u = v / (nu * nv) - c * u / nu**2
    grad_v = u / (nu * nv) - c * v / nv**2
    return c, grad_u, grad_v


def loss_cosine(u: np.ndarray, v: np.ndarray, y: int) -> float:
    """Squared error between the label and the cosine: (y - cos(u, v))^2."""
    _check_label(y)
    c, _, _ = _cosine_with_grads(u, v)
    return (y - c) ** 2


def loss_cosine_grad(
    u: np.ndarray, v: np.ndarray, y: int
) -> tuple[float, np.ndarray, np.ndarray]:
    _check_label(y)
    c, cu, cv = _cosine_with_grads(u, v)
    dc = -2.0 * (y - c)
    return (y - c) ** 2, dc * cu, dc * cv


def loss_contrastive(
    u: np.ndarray,
    v: np.ndarray,
    y: int,
    margin: float = 0.5,
    literal_cosine: bool = False,
) -> float:
    """Margin contrastive loss on cosine distance d = 1 - cos(u, v).

    Positives pay d^2 / 2; negatives pay max(0, margin - d)^2 / 2. With
    ``literal_cosine`` the similarity itself plays the role of d.
    """
    loss, _, _ = loss_contrastive_grad(u, v, y, margin, literal_cosine)
    return loss


def loss_contrastive_grad(
    u: np.ndarray,
    v: np.ndarray,
    y: int,
    margin: float = 0.5,
    literal_cosine: bool = False,
) -> tuple[float, np.ndarray, np.ndarray]:
    _check_label(y)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    c, cu, cv = _cosine_with_grads(u, v)
    d = c if literal_cosine else 1.0 - c
    dd_dc = 1.0 if literal_cosine else -1.0
    if y == 1:
        loss = d * d / 2.0
        dl_dd = d
    else:
        hinge = max(0.0, margin - d)
        loss = hinge * hinge / 2.0
        dl_dd = -hinge
    factor = dl_dd * dd_dc
    return loss, factor * cu, factor * cv


def loss_triplet(
    u: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray, margin: float = 1.0
) -> float:
    """Euclidean triplet loss on L2-normalized embeddings."""
    loss, _, _, _ = loss_triplet_grad(u, v_pos, v_neg, margin)
    return loss


def loss_triplet_grad(
    u: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray, margin: float = 1.0
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    if margin < 0:
        raise ValueError("margin must be >= 0")
    u = np.asarray(u, dtype=float)
    v_pos = np.asarray(v_pos, dtype=float)
    v_neg = np.asarray(v_neg, dtype=float)
    uh, ju = _normalize_with_jacobian(u)
    ph, jp = _normalize_with_jacobian(v_pos)
    nh, jn = _normalize_with_jacobian(v_neg)
    d_pos = float(np.linalg.norm(uh - ph))
    d_neg = float(np.linalg.norm(uh - nh))
    loss = max(0.0, d_pos - d_neg + margin)
    zeros = np.zeros_like(u)
    if loss == 0.0:
        return 0.0, zeros, np.zeros_like(v_pos), np.zeros_like(v_neg)
    # Subgradient 0 at coincident points, where the distance is not smooth.
    g_pos = (uh - ph) / d_pos if d_pos > 0 else zeros
    g_neg = (uh - nh) / d_neg if d_neg > 0 else zeros
    grad_u = ju @ (g_pos - g_neg)
    grad_pos = jp @ (-g_pos)
    grad_neg = jn @ g_neg
    return loss, grad_u, grad_pos, grad_neg


def _normalize_with_jacobian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ValueError("cannot L2-normalize a zero vector")
    xh = x / norm
    jacobian = (np.eye(len(x)) - np.outer(xh, xh)) / norm
    return xh, jacobian


def loss_infonce(
    us: np.ndarray, vs: np.ndarray, scale: float = 1.0
) -> float:
    """In-batch softmax cross entropy over scaled cosines.

    Row i's positive is column i; every other column of the batch acts as a
    negative: mean_i -log(exp(s c_ii) / sum_j exp(s c_ij)).
    """
    loss, _, _ = loss_infonce_grad(us, vs, scale)
    return loss


def loss_infonce_grad(
    us: np.ndarray, vs: np.ndarray, scale: float = 1.0
) -> tuple[float, np.ndarray, np.ndarray]:
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if us.ndim != 2 or us.shape != vs.shape:
        raise ValueError("expected matching (B, n) batches")
    b = us.shape[0]
    if b < 2:
        raise ValueError("in-batch negatives need batch size >= 2")
    if scale <= 0:
        raise ValueError("scale must be positive")
    nu = np.linalg.norm(us, axis=1)
    nv = np.linalg.norm(vs, axis=1)
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise ValueError("zero-norm vector in cosine loss")
    uh = us / nu[:, None]
    vh = vs / nv[:, None]
    cos = uh @ vh.T
    scores = scale * cos
    row_max = scores.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(scores - row_max).sum(axis=1))
    loss = float(np.mean(lse - np.diag(scores)))
    probs = np.exp(scores - lse[:, None])
    g_scores = (probs - np.eye(b)) * (scale / b)
    weighted = g_scores * cos
    grad_u = (g_scores @ vh - weighted.sum(axis=1)[:, None] * uh) / nu[:, None]
    grad_v = (g_scores.T @ uh - weighted.sum(axis=0)[:, None] * vh) / nv[:, None]
    return loss, grad_u, grad_v


def _check_label(y: int) -> None:
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")


def generate_pairs(
    corpus: Sequence[Article],
    category_locations: dict[str, list[LocationTuple]],
    resolver: Resolver,
    seed: int = 13,
) -> list[TrainingPair]:
    """Label (document, entity) pairs without manual annotation.

    Positives: the rendered string of each category-derived location of the
    document. Negatives: surface forms of mentioned entities that are
    unrelated to every positive, i.e. the mention's id is not a positive's
    city or country id and its own resolved tuple shares neither, capped at
    the document's positive count by a seeded sample. Mentions that cannot be
    resolved are never used as negatives, since their unrelatedness is
    unverifiable.
    """
    pairs: list[TrainingPair] = []
    resolved_cache: dict[str, LocationTuple | None] = {}
    for article in corpus:
        locations = category_locations.get(article.id, [])
        if not locations:
            continue
        positive_texts: list[str] = []
        for location in locations:
            text = render_location(location)
            if text and text not in positive_texts:
                positive_texts.append(text)
        positive_qids = set()
        for location in locations:
            positive_qids.update(q for q in (location.city_qid, location.country_qid) if q)
        negatives: list[str] = []
        for mention in article.mentions:
            if not mention.qid or mention.qid in positive_qids:
                continue
            if mention.surface in positive_texts or mention.surface in negatives:
                continue
            if mention.qid not in resolved_cache:
                resolved_cache[mention.qid] = resolver.locate_qid(mention.qid)
            resolved = resolved_cache[mention.qid]
            if resolved is None or _related(resolved, locations):
                continue
            negatives.append(mention.surface)
        if len(negatives) > len(positive_texts):
            rng = random.Random(f"{seed}:{article.id}")
            negatives = rng.sample(negatives, len(positive_texts))
        for text in positive_texts:
            pairs.append(TrainingPair(article.id, article.text, text, 1))
        for text in negatives:
            pairs.append(TrainingPair(article.id, article.text, text, 0))
    return pairs


def _related(candidate: LocationTuple, positives: Iterable[LocationTuple]) -> bool:
    for positive in positives:
        if candidate.city_qid is not None and candidate.city_qid == positive.city_qid:
            return True
        if (
            candidate.country_qid is not None
            and candidate.country_qid == positive.country_qid
        ):
            return True
    return False


def save_pairs(pairs: Iterable[TrainingPair], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(pair.to_json(), ensure_ascii=False) + "\n")


def load_pairs(path: str | Path) -> list[TrainingPair]:
    pairs = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                pair = TrainingPair.from_json(json.loads(line))
                pair.validate()
                pairs.append(pair)
    return pairs


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
    np.savez(Path(path), weights=adapter.weights)


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
    chunking: ChunkingConfig | None = None,
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
    features: dict[str, np.ndarray] = {}
    train_items = _build_items(train_pairs, config.loss)
    validation_items = _build_items(validation_pairs, config.loss)
    if not train_items or not validation_items:
        raise ValueError(f"loss {config.loss} has no usable items on one split")

    rng = random.Random(config.seed)
    stopper = EarlyStopping(config.early_stop_patience)
    best_weights = adapter.checkpoint()
    train_losses: list[float] = []
    validation_losses: list[float] = []
    stopped_early = False
    for epoch in range(1, config.epochs + 1):
        order = list(range(len(train_items)))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_items = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_items[i] for i in order[start : start + config.batch_size]]
            if config.loss == INFONCE and len(batch) < 2:
                logger.warning("skipping size-%d batch: in-batch negatives need >= 2", len(batch))
                continue
            loss, gradient = _batch_step(adapter, batch, config, chunking, features)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch starting at {start}"
                )
            adapter.weights = adapter.weights - config.learning_rate * gradient
            epoch_loss += loss * len(batch)
            epoch_items += len(batch)
        train_loss = epoch_loss / max(epoch_items, 1)
        validation_loss = _split_loss(adapter, validation_items, config, chunking, features)
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


def _build_items(pairs: Sequence[TrainingPair], loss: str) -> list[tuple]:
    """Arrange pairs into per-loss optimization items.

    Pairwise losses use every pair; the triplet loss zips each document's
    positives with its negatives; InfoNCE keeps positives only and finds its
    negatives inside the batch.
    """
    if loss in (COSINE_MSE, CONTRASTIVE):
        return [(p.document_text, p.entity_text, p.label) for p in pairs]
    if loss == INFONCE:
        return [(p.document_text, p.entity_text) for p in pairs if p.label == 1]
    by_document: dict[str, tuple[list[str], list[str], str]] = {}
    for pair in pairs:
        positives, negatives, _ = by_document.setdefault(
            pair.article_id, ([], [], pair.document_text)
        )
        (positives if pair.label == 1 else negatives).append(pair.entity_text)
    triples = []
    for positives, negatives, document in by_document.values():
        for positive, negative in zip(positives, negatives):
            triples.append((document, positive, negative))
    return triples


def _feature(
    text: str,
    adapter: LinearAdapter,
    chunking: ChunkingConfig | None,
    features: dict[str, np.ndarray],
) -> np.ndarray:
    if text not in features:
        features[text] = embed_document(text, adapter.base, chunking)
    return features[text]


def _batch_step(
    adapter: LinearAdapter,
    batch: list[tuple],
    config: LossConfig,
    chunking: ChunkingConfig | None,
    features: dict[str, np.ndarray],
) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient w.r.t. the adapter weights.

    With u = W x, the chain rule turns every per-embedding gradient g into a
    rank-one weight update g x^T; the batch gradient is their mean.
    """
    w = adapter.weights
    gradient = np.zeros_like(w)
    if config.loss == INFONCE:
        xs_doc = np.stack([_feature(doc, adapter, chunking, features) for doc, _ in batch])
        xs_ent = np.stack([_feature(ent, adapter, chunking, features) for _, ent in batch])
        us = xs_doc @ w.T
        vs = xs_ent @ w.T
        loss, grad_u, grad_v = loss_infonce_grad(us, vs, config.scale)
        gradient = grad_u.T @ xs_doc + grad_v.T @ xs_ent
        return loss, gradient
    total = 0.0
    margin = config.resolved_margin
    for item in batch:
        if config.loss == TRIPLET:
            document, positive, negative = item
            x_doc = _feature(document, adapter, chunking, features)
            x_pos = _feature(positive, adapter, chunking, features)
            x_neg = _feature(negative, adapter, chunking, features)
            loss, gu, gp, gn = loss_triplet_grad(w @ x_doc, w @ x_pos, w @ x_neg, margin)
            gradient += np.outer(gu, x_doc) + np.outer(gp, x_pos) + np.outer(gn, x_neg)
        else:
            document, entity, label = item
            x_doc = _feature(document, adapter, chunking, features)
            x_ent = _feature(entity, adapter, chunking, features)
            u, v = w @ x_doc, w @ x_ent
            if config.loss == COSINE_MSE:
                loss, gu, gv = loss_cosine_grad(u, v, label)
            else:
                loss, gu, gv = loss_contrastive_grad(
                    u, v, label, margin, config.literal_cosine
                )
            gradient += np.outer(gu, x_doc) + np.outer(gv, x_ent)
        total += loss
    return total / len(batch), gradient / len(batch)


def _split_loss(
    adapter: LinearAdapter,
    items: list[tuple],
    config: LossConfig,
    chunking: ChunkingConfig | None,
    features: dict[str, np.ndarray],
) -> float:
    """Loss over a held-out split, without updates."""
    total = 0.0
    count = 0
    for start in range(0, len(items), config.batch_size):
        batch = items[start : start + config.batch_size]
        if config.loss == INFONCE and len(batch) < 2:
            logger.warning("skipping size-%d validation batch for in-batch negatives", len(batch))
            continue
        loss, _ = _batch_step(adapter, batch, config, chunking, features)
        total += loss * len(batch)
        count += len(batch)
    if count == 0:
        raise ValueError(f"validation split has no usable batches for {config.loss}")
    return total / count
