"""Document embeddings: chunking, mean-of-chunks aggregation, cosine.

Encoders accept at most ``max_tokens`` tokens, while news articles are often
longer. Two strategies are provided: truncate (embed the prefix) and
average_subdivisions (split the article into sentence-boundary chunks that
each fit, embed every chunk, average the vectors). Chunks always concatenate
back to the original text byte-for-byte, so nothing is silently dropped.
"""

from __future__ import annotations

import hashlib
import logging
import re
from typing import Protocol

import numpy as np

from .config import AVERAGE, TRUNCATE

logger = logging.getLogger(__name__)

# Sentence boundary: sentence-final punctuation (plus closing quotes or
# brackets) followed by whitespace, or a newline run. The cut is placed after
# the whitespace so every sentence keeps its trailing separator.
_BOUNDARY_RE = re.compile(r"[.!?…]+[\"'”’)\]]*\s+|\n+")
_TOKEN_RE = re.compile(r"\S+")


class EmbeddingProvider(Protocol):
    name: str
    dimension: int
    max_tokens: int

    def token_count(self, text: str) -> int: ...

    def embed(self, text: str) -> np.ndarray: ...


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence segmentation; pieces concatenate to `text` exactly."""
    pieces = []
    start = 0
    for match in _BOUNDARY_RE.finditer(text):
        pieces.append(text[start : match.end()])
        start = match.end()
    if start < len(text):
        pieces.append(text[start:])
    return pieces


def chunk_document(text: str, provider: EmbeddingProvider) -> list[str]:
    """Split `text` into chunks S_1..S_p, each within the provider's limit.

    Sentences are packed greedily: a sentence joins the current chunk unless
    that would exceed ``max_tokens``. A single sentence over the limit is
    hard-split at whitespace token boundaries (with a warning). The chunks
    concatenate to the input byte-exactly, and p = 1 when the text fits.
    """
    if not text:
        raise ValueError("cannot chunk empty text")
    m = provider.max_tokens
    if provider.token_count(text) <= m:
        return [text]
    sentences = split_sentences(text)
    chunks: list[str] = []
    current = ""
    for sentence in sentences:
        candidate = current + sentence
        if provider.token_count(candidate) <= m:
            current = candidate
            continue
        if current:
            chunks.append(current)
            current = ""
        if provider.token_count(sentence) <= m:
            current = sentence
        else:
            logger.warning(
                "sentence of %d tokens exceeds the %d-token limit; hard-splitting",
                provider.token_count(sentence),
                m,
            )
            pieces = _hard_split(sentence, provider, m)
            chunks.extend(pieces[:-1])
            current = pieces[-1]
    if current:
        chunks.append(current)
    return chunks


def _hard_split(sentence: str, provider: EmbeddingProvider, m: int) -> list[str]:
    """Cut one oversized sentence at whitespace token boundaries."""
    spans = [match.span() for match in _TOKEN_RE.finditer(sentence)]
    pieces = []
    start = 0
    i = 0
    while i < len(spans):
        # Widest window of whitespace tokens that the provider accepts.
        j = min(i + m, len(spans))
        end = spans[j - 1][1] if j == len(spans) else spans[j][0]
        while j - i > 1 and provider.token_count(sentence[start:end]) > m:
            j -= 1
            end = spans[j][0]
        if j == len(spans):
            end = len(sentence)
        pieces.append(sentence[start:end])
        start = end
        i = j
    return pieces


def truncate_text(text: str, provider: EmbeddingProvider) -> str:
    """The prefix of `text` ending with its ``max_tokens``-th token."""
    m = provider.max_tokens
    if provider.token_count(text) <= m:
        return text
    spans = [match.span() for match in _TOKEN_RE.finditer(text)]
    keep = min(m, len(spans))
    candidate = text[: spans[keep - 1][1]]
    while keep > 1 and provider.token_count(candidate) > m:
        keep -= 1
        candidate = text[: spans[keep - 1][1]]
    return candidate


def embed_document(
    text: str, provider: EmbeddingProvider, chunking: str = AVERAGE
) -> np.ndarray:
    """Embed a document of any length under a chunking mode.

    truncate mode embeds the first ``max_tokens`` tokens; average mode embeds
    every chunk and returns their arithmetic mean, E = (1/p) sum_i f(S_i).
    """
    if chunking == TRUNCATE:
        return np.asarray(provider.embed(truncate_text(text, provider)), dtype=float)
    if chunking != AVERAGE:
        raise ValueError(f"unknown chunking mode {chunking!r}")
    chunks = chunk_document(text, provider)
    vectors = np.stack([np.asarray(provider.embed(chunk), dtype=float) for chunk in chunks])
    return vectors.mean(axis=0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """cos(u, v) = <u, v> / (|u| |v|). Raises ValueError on a zero vector."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of a zero-norm vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


class MockEmbedder:
    """Deterministic hash-based provider for tests, demos and oracles.

    The text (together with the seed) is hashed to derive an RNG that draws a
    unit-norm vector, so equal texts map to equal vectors, different texts to
    (almost surely) different ones, and no model download is needed. Tokens
    are whitespace-delimited.
    """

    def __init__(self, dimension: int = 16, seed: int = 0, max_tokens: int = 128):
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        self.name = f"mock-{dimension}d"
        self.dimension = dimension
        self.max_tokens = max_tokens
        self.seed = seed

    def token_count(self, text: str) -> int:
        return len(text.split())

    def embed(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}:{text}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vector = rng.standard_normal(self.dimension)
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            vector[0] = 1.0
            norm = 1.0
        return vector / norm


class SentenceTransformerProvider:
    """Adapter over a sentence-transformers model (optional dependency)."""

    def __init__(self, model_name: str = "paraphrase-multilingual-mpnet-base-v2"):
        try:
            from sentence_transformers import SentenceTransformer
        except ImportError as exc:
            raise ImportError(
                "sentence-transformers is not installed; use the mock provider "
                "or install the extra dependency"
            ) from exc
        self._model = SentenceTransformer(model_name)
        self.name = model_name
        self.dimension = self._model.get_sentence_embedding_dimension()
        self.max_tokens = int(self._model.get_max_seq_length() or 128)

    def token_count(self, text: str) -> int:
        return len(self._model.tokenizer.tokenize(text))

    def embed(self, text: str) -> np.ndarray:
        return np.asarray(self._model.encode(text), dtype=float)
