"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (pure-python
loops, plain softmax, breadth-first search) so that agreement with the
library's vectorized / recursive code is meaningful evidence, not a tautology.
The `loss_*` functions are the library's side of that comparison: the scalar
value of each batched `loss_*_grad`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from newsgeo.config import CONTRASTIVE, COSINE_MSE, TRIPLET
from newsgeo.training import (
    loss_contrastive_grad,
    loss_cosine_grad,
    loss_infonce_grad,
    loss_triplet_grad,
)


def loss_cosine(u, v, y: int) -> float:
    return loss_cosine_grad(u, v, y)[0]


def loss_contrastive(u, v, y: int, margin: float = 0.5) -> float:
    return loss_contrastive_grad(u, v, y, margin)[0]


def loss_triplet(u, v_pos, v_neg, margin: float = 1.0) -> float:
    return loss_triplet_grad(u, v_pos, v_neg, margin)[0]


def loss_infonce(us, vs) -> float:
    return loss_infonce_grad(us, vs)[0]


def oracle_cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def oracle_loss_cosine(u, v, y: int) -> float:
    return (y - oracle_cosine(u, v)) ** 2


def oracle_loss_contrastive(u, v, y: int, margin: float = 0.5) -> float:
    d = 1.0 - oracle_cosine(u, v)
    if y == 1:
        return 0.5 * d * d
    return 0.5 * max(0.0, margin - d) ** 2


def _unit(x) -> list[float]:
    norm = math.sqrt(sum(a * a for a in x))
    return [a / norm for a in x]


def oracle_loss_triplet(u, v_pos, v_neg, margin: float = 1.0) -> float:
    uu = _unit(u)
    pp = _unit(v_pos)
    nn = _unit(v_neg)
    d_pos = math.sqrt(sum((a - b) ** 2 for a, b in zip(uu, pp)))
    d_neg = math.sqrt(sum((a - b) ** 2 for a, b in zip(uu, nn)))
    return max(0.0, d_pos - d_neg + margin)


def oracle_loss_infonce(us, vs) -> float:
    """Per-row softmax cross entropy, computed term by term without tricks."""
    b = len(us)
    total = 0.0
    for i in range(b):
        scores = [oracle_cosine(us[i], vs[j]) for j in range(b)]
        denominator = sum(math.exp(s) for s in scores)
        total += -math.log(math.exp(scores[i]) / denominator)
    return total / b


def oracle_batch_step(weights, features, rows, labels, config) -> tuple[float, np.ndarray]:
    """Mean batch loss and weight gradient, column by column: column k of
    ``rows`` picks the feature rows X_k, U_k = X_k W^T, and with G_k the loss
    gradient w.r.t. U_k the weight gradient is sum_k G_k^T X_k. A text that
    appears in several places is projected once per place."""
    xs = [features[column] for column in rows.T]
    us = [x @ weights.T for x in xs]
    if config.loss == COSINE_MSE:
        loss, *grads = loss_cosine_grad(*us, labels)
    elif config.loss == CONTRASTIVE:
        loss, *grads = loss_contrastive_grad(*us, labels, config.resolved_margin)
    elif config.loss == TRIPLET:
        loss, *grads = loss_triplet_grad(*us, config.resolved_margin)
    else:
        loss, *grads = loss_infonce_grad(*us)
    return loss, sum(g.T @ x for g, x in zip(grads, xs))


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Numeric gradient of scalar f at x by central finite differences."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        up = x.copy().reshape(-1)
        down = x.copy().reshape(-1)
        up[i] += step
        down[i] -= step
        flat[i] = (f(up.reshape(x.shape)) - f(down.reshape(x.shape))) / (2 * step)
    return grad


def gradient_agreement(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Relative error between gradient vectors, safe near zero."""
    analytic = np.asarray(analytic, dtype=float).reshape(-1)
    numeric = np.asarray(numeric, dtype=float).reshape(-1)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-8)
    return float(np.linalg.norm(analytic - numeric)) / scale


# Stands for the value of a record whose line `json.loads` cannot read.
CORRUPT = object()


@dataclasses.dataclass
class OracleKbCache:
    """What a KB cache file holds: each (source, key) with the number of the
    line that wrote it last and its value (or CORRUPT); the line of the first
    record that cannot even be named, which fails the load; and the line of
    a torn last line, which is skipped."""

    records: dict[tuple[str, str], tuple[int, Any]]
    load_error: int | None = None
    torn: int | None = None


def oracle_kb_cache(data: bytes) -> OracleKbCache:
    """Read a KB cache file line by line with `json.loads`, the last write
    winning.

    A line that `json.loads` cannot read still names its record when
    everything before its `, "value": ` is `put`'s own spelling of a source
    and a key that need no escapes, and the line ends in `}`: reading that
    record fails. Any other unreadable line, or one whose source or key is
    not a string, fails the load, except a last line without its newline,
    which is torn.
    """
    *lines, tail = data.split(b"\n")
    found = OracleKbCache({})
    for number, raw in enumerate([*lines, tail], 1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
            key = record["source"], record["key"]
            if not all(type(part) is str for part in key):
                raise TypeError(f"{key} is not a pair of strings")
            found.records[key] = (number, record["value"])
            continue
        except (ValueError, KeyError, TypeError):
            pass
        if number > len(lines):
            found.torn = number
            return found
        key = _put_spelled_key(raw)
        if key is None:
            found.load_error = number
            return found
        found.records[key] = (number, CORRUPT)
    return found


def _put_spelled_key(raw: bytes) -> tuple[str, str] | None:
    head, separator, _ = raw.partition(b', "value": ')
    if not separator or not raw.endswith(b"}") or b"\\" in head:
        return None
    try:
        record = json.loads(head.decode("utf-8") + "}")
    except ValueError:
        return None
    if list(record) != ["source", "key"] or not all(type(v) is str for v in record.values()):
        return None
    spelled = json.dumps(record, ensure_ascii=False)[:-1].encode("utf-8")
    return (record["source"], record["key"]) if spelled == head else None
