"""Sentence splitting, chunking, document embeddings and the mock encoder."""

import random
import string

import numpy as np
import pytest

from newsgeo.config import AVERAGE, TRUNCATE
from newsgeo.embedding import (
    MockEmbedder,
    chunk_document,
    cosine,
    embed_document,
    split_sentences,
    truncate_text,
)


def random_text(rng, n_sentences=8, words_per_sentence=(3, 12)):
    sentences = []
    for _ in range(n_sentences):
        count = rng.randint(*words_per_sentence)
        words = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 9)))
            for _ in range(count)
        ]
        sentences.append(" ".join(words) + rng.choice([". ", "! ", "? ", ".\n"]))
    return "".join(sentences).rstrip() + "."


class TestSplitSentences:
    def test_pieces_concatenate_exactly(self):
        rng = random.Random(11)
        for _ in range(25):
            text = random_text(rng)
            assert "".join(split_sentences(text)) == text

    def test_terminators_and_newlines(self):
        text = 'One. Two! Three? "Four." Five\n\nSix'
        pieces = split_sentences(text)
        assert "".join(pieces) == text
        assert pieces[0] == "One. "
        assert pieces[1] == "Two! "
        assert pieces[2] == "Three? "
        assert pieces[3] == '"Four." '
        assert pieces[4] == "Five\n\n"
        assert pieces[5] == "Six"

    def test_single_sentence(self):
        assert split_sentences("No terminator here") == ["No terminator here"]


class TestChunkDocument:
    def test_fitting_text_is_one_chunk(self, mock_provider):
        text = "Short text."
        assert chunk_document(text, mock_provider) == [text]

    def test_two_sentences_two_chunks(self):
        provider = MockEmbedder(dimension=4, seed=0, max_tokens=10)
        first = " ".join(["alpha"] * 8) + ". "
        second = " ".join(["beta"] * 8) + "."
        chunks = chunk_document(first + second, provider)
        assert chunks == [first, second]

    def test_greedy_packing_fills_chunks(self):
        provider = MockEmbedder(dimension=4, seed=0, max_tokens=10)
        sentence = " ".join(["word"] * 4) + ". "  # 5 tokens per sentence
        text = sentence * 4
        chunks = chunk_document(text.rstrip(), provider)
        # Two sentences fit per 10-token chunk.
        assert len(chunks) == 2

    def test_oversized_sentence_hard_split_with_warning(self, caplog):
        provider = MockEmbedder(dimension=4, seed=0, max_tokens=10)
        text = " ".join(f"w{i}" for i in range(25))
        with caplog.at_level("WARNING"):
            chunks = chunk_document(text, provider)
        assert "hard-splitting" in caplog.text
        assert len(chunks) == 3
        assert "".join(chunks) == text

    def test_chunks_concatenate_and_respect_limit(self):
        rng = random.Random(23)
        provider = MockEmbedder(dimension=4, seed=0, max_tokens=12)
        for _ in range(30):
            text = random_text(rng, n_sentences=rng.randint(1, 12))
            chunks = chunk_document(text, provider)
            assert "".join(chunks) == text
            for chunk in chunks:
                assert provider.token_count(chunk) <= provider.max_tokens

    def test_empty_text_rejected(self, mock_provider):
        with pytest.raises(ValueError):
            chunk_document("", mock_provider)

    def test_unknown_mode_rejected(self, mock_provider):
        with pytest.raises(ValueError):
            embed_document("x", mock_provider, "middle-out")


class TestTruncateText:
    def test_short_text_unchanged(self, mock_provider):
        assert truncate_text("a b c", mock_provider) == "a b c"

    def test_prefix_ends_at_limit_token(self):
        provider = MockEmbedder(dimension=4, seed=0, max_tokens=3)
        assert truncate_text("one two three four five", provider) == "one two three"

    def test_truncate_embedding_ignores_the_tail(self):
        provider = MockEmbedder(dimension=8, seed=1, max_tokens=50)
        config = TRUNCATE
        head = " ".join(f"tok{i}" for i in range(50))
        one = embed_document(head + " tail tail tail", provider, config)
        two = embed_document(head + " completely different ending", provider, config)
        assert np.array_equal(one, two)
        assert np.array_equal(one, provider.embed(head))


class TestEmbedDocument:
    def test_single_chunk_equals_provider_embedding(self, mock_provider):
        text = "One short sentence."
        for mode in (TRUNCATE, AVERAGE):
            out = embed_document(text, mock_provider, mode)
            assert np.array_equal(out, mock_provider.embed(text))

    def test_average_of_scripted_chunks(self):
        """Two chunks with known vectors average componentwise."""

        class TwoChunkProvider:
            name = "scripted"
            dimension = 2
            max_tokens = 1

            def token_count(self, text):
                return len(text.split())

            def embed(self, text):
                return np.array([1.0, 0.0]) if "alpha" in text else np.array([0.0, 1.0])

        provider = TwoChunkProvider()
        out = embed_document("alpha\nbeta", provider, AVERAGE)
        assert np.allclose(out, [0.5, 0.5])

    def test_average_equals_external_mean(self):
        rng = random.Random(3)
        provider = MockEmbedder(dimension=8, seed=2, max_tokens=12)
        for _ in range(20):
            text = random_text(rng, n_sentences=rng.randint(2, 10))
            chunks = chunk_document(text, provider)
            expected = sum(provider.embed(c) for c in chunks) / len(chunks)
            out = embed_document(text, provider, AVERAGE)
            assert np.max(np.abs(out - expected)) <= 1e-12


class TestMockEmbedder:
    def test_deterministic(self):
        a = MockEmbedder(dimension=16, seed=5)
        b = MockEmbedder(dimension=16, seed=5)
        assert np.array_equal(a.embed("Paris"), b.embed("Paris"))

    def test_seed_changes_vectors(self):
        a = MockEmbedder(dimension=16, seed=5)
        b = MockEmbedder(dimension=16, seed=6)
        assert not np.array_equal(a.embed("Paris"), b.embed("Paris"))

    def test_distinct_texts_get_distinct_vectors(self):
        provider = MockEmbedder(dimension=16, seed=0)
        rng = random.Random(9)
        texts = {
            "".join(rng.choices(string.ascii_letters + " ", k=rng.randint(1, 40)))
            for _ in range(100)
        }
        vectors = [tuple(provider.embed(t)) for t in texts]
        assert len(set(vectors)) == len(texts)

    def test_unit_norm(self):
        provider = MockEmbedder(dimension=16, seed=0)
        for text in ("a", "Paris, France", "x y z"):
            assert abs(np.linalg.norm(provider.embed(text)) - 1.0) <= 1e-9

    def test_token_count_is_whitespace_tokens(self):
        provider = MockEmbedder()
        assert provider.token_count("one two  three\nfour") == 4

    def test_tiny_dimension_rejected(self):
        with pytest.raises(ValueError):
            MockEmbedder(dimension=1)


class TestCosine:
    def test_identical_vectors(self):
        u = np.array([1.0, 2.0, 3.0])
        assert abs(cosine(u, u) - 1.0) <= 1e-12

    def test_orthogonal_vectors(self):
        assert abs(cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0]))) <= 1e-12

    def test_symmetry_and_scale(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u, v = rng.standard_normal(6), rng.standard_normal(6)
            assert abs(cosine(u, v) - cosine(v, u)) <= 1e-12
            assert abs(cosine(3.5 * u, v) - cosine(u, v)) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))
