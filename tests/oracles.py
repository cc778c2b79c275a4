"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (pure-python
loops, plain softmax, breadth-first search) so that agreement with the
library's vectorized / recursive code is meaningful evidence, not a tautology.
The `loss_*` functions are the library's side of that comparison: the scalar
value of each batched `loss_*_grad`.
"""

from __future__ import annotations

import math

import numpy as np

from newsgeo.training import (
    loss_contrastive_grad,
    loss_cosine_grad,
    loss_infonce_grad,
    loss_triplet_grad,
)


def loss_cosine(u, v, y: int) -> float:
    return loss_cosine_grad(u, v, y)[0]


def loss_contrastive(u, v, y: int, margin: float = 0.5, literal_cosine: bool = False) -> float:
    return loss_contrastive_grad(u, v, y, margin, literal_cosine)[0]


def loss_triplet(u, v_pos, v_neg, margin: float = 1.0) -> float:
    return loss_triplet_grad(u, v_pos, v_neg, margin)[0]


def loss_infonce(us, vs, scale: float = 1.0) -> float:
    return loss_infonce_grad(us, vs, scale)[0]


def oracle_cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def oracle_loss_cosine(u, v, y: int) -> float:
    return (y - oracle_cosine(u, v)) ** 2


def oracle_loss_contrastive(
    u, v, y: int, margin: float = 0.5, literal_cosine: bool = False
) -> float:
    c = oracle_cosine(u, v)
    d = c if literal_cosine else 1.0 - c
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


def oracle_loss_infonce(us, vs, scale: float = 1.0) -> float:
    """Per-row softmax cross entropy, computed term by term without tricks."""
    b = len(us)
    total = 0.0
    for i in range(b):
        scores = [scale * oracle_cosine(us[i], vs[j]) for j in range(b)]
        denominator = sum(math.exp(s) for s in scores)
        total += -math.log(math.exp(scores[i]) / denominator)
    return total / b


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
