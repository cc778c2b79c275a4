"""Objectives with analytic gradients, pair generation and the training loop."""

import math
import random

import numpy as np
import pytest

from newsgeo import training
from newsgeo.corpus import Article, ParsedMention, split_train_validation
from newsgeo.config import (
    AVERAGE,
    CONTRASTIVE,
    COSINE_MSE,
    INFONCE,
    LOSSES,
    TRIPLET,
    TRUNCATE,
    LossConfig,
)
from newsgeo.embedding import MockEmbedder
from newsgeo.locations import LocationTuple
from newsgeo.pairs import TrainingPair, generate_pairs, load_pairs, save_pairs
from newsgeo.training import (
    EarlyStopping,
    LinearAdapter,
    TrainingDiverged,
    load_checkpoint,
    loss_contrastive_grad,
    loss_cosine_grad,
    loss_infonce_grad,
    loss_triplet_grad,
    save_checkpoint,
    train,
)

from oracles import (
    central_difference,
    gradient_agreement,
    loss_contrastive,
    loss_cosine,
    loss_infonce,
    loss_triplet,
    oracle_loss_contrastive,
    oracle_loss_cosine,
    oracle_loss_infonce,
    oracle_loss_triplet,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
DIAG = np.array([1.0, 1.0])


class TestLossValues:
    """Hand-derived values, frozen with independent arithmetic."""

    def test_cosine_loss_values(self):
        assert loss_cosine(E1, E1, 1) == pytest.approx(0.0, abs=1e-12)
        assert loss_cosine(E1, E2, 0) == pytest.approx(0.0, abs=1e-12)
        expected = (1.0 - math.sqrt(2.0) / 2.0) ** 2
        assert loss_cosine(E1, DIAG, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.0857864376269, abs=1e-10)
        assert loss_cosine(E1, E1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_contrastive_loss_values(self):
        # Aligned positive and sufficiently distant negative both cost nothing.
        assert loss_contrastive(E1, E1, 1) == pytest.approx(0.0, abs=1e-12)
        assert loss_contrastive(E1, E2, 0) == pytest.approx(0.0, abs=1e-12)
        # A coincident negative pays the full squared hinge: (0.5)^2 / 2.
        assert loss_contrastive(E1, E1, 0) == pytest.approx(0.125, abs=1e-12)
        assert loss_contrastive(E1, DIAG, 1) == pytest.approx(
            0.5 * (1.0 - math.sqrt(2.0) / 2.0) ** 2, abs=1e-12
        )

    def test_contrastive_literal_cosine_flag(self):
        """The literal reading uses the similarity itself as the distance."""
        assert loss_contrastive(E1, E1, 1, literal_cosine=True) == pytest.approx(0.5)
        assert loss_contrastive(E1, E2, 1, literal_cosine=True) == pytest.approx(0.0)
        assert loss_contrastive(E1, E1, 0, literal_cosine=True) == pytest.approx(0.0)

    def test_triplet_loss_values(self):
        assert loss_triplet(E1, E1, -E1) == pytest.approx(0.0, abs=1e-12)
        assert loss_triplet(E1, -E1, E1) == pytest.approx(3.0, abs=1e-12)
        expected = math.sqrt(2.0) + 1.0
        assert loss_triplet(E1, E2, E1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.41421356237, abs=1e-10)
        assert loss_triplet(3.0 * E1, 5.0 * E1, -2.0 * E1) == pytest.approx(0.0)

    def test_infonce_loss_values(self):
        us = np.stack([E1, E2])
        vs = np.stack([E1, E2])
        expected = -math.log(math.e / (math.e + 1.0))
        assert loss_infonce(us, vs) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.31326168752, abs=1e-10)

    def test_infonce_uniform_batch_is_ln_b(self):
        for b in (2, 4, 8):
            us = np.tile(DIAG, (b, 1))
            vs = np.tile(E1, (b, 1))
            assert abs(loss_infonce(us, vs) - math.log(b)) <= 1e-12

    def test_label_validation(self):
        with pytest.raises(ValueError):
            loss_cosine(E1, E2, 2)
        with pytest.raises(ValueError):
            loss_contrastive(E1, E2, -1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            loss_cosine(np.zeros(2), E1, 1)
        with pytest.raises(ValueError):
            loss_triplet(E1, np.zeros(2), E2)

    def test_infonce_shape_and_scale_validation(self):
        with pytest.raises(ValueError):
            loss_infonce(np.zeros((1, 2)) + 1.0, np.zeros((1, 2)) + 1.0)
        with pytest.raises(ValueError):
            loss_infonce(np.stack([E1, E2]), np.stack([E1, E2]), scale=0.0)
        with pytest.raises(ValueError):
            loss_infonce(np.stack([E1, E2]), np.stack([E1]))


class TestLossOracles:
    """Agreement with loop-based reference implementations on random inputs."""

    def test_pairwise_losses_match_oracles(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = rng.integers(2, 10)
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            y = int(rng.integers(0, 2))
            margin = float(rng.uniform(0.0, 2.0))
            assert abs(loss_cosine(u, v, y) - oracle_loss_cosine(u, v, y)) <= 1e-9
            for literal in (False, True):
                ours = loss_contrastive(u, v, y, margin, literal)
                ref = oracle_loss_contrastive(u, v, y, margin, literal)
                assert abs(ours - ref) <= 1e-9

    def test_triplet_matches_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            n = rng.integers(2, 10)
            u, vp, vn = (rng.standard_normal(n) for _ in range(3))
            margin = float(rng.uniform(0.0, 2.0))
            assert abs(
                loss_triplet(u, vp, vn, margin) - oracle_loss_triplet(u, vp, vn, margin)
            ) <= 1e-9

    def test_infonce_matches_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            b = int(rng.integers(2, 7))
            n = int(rng.integers(2, 8))
            us = rng.standard_normal((b, n))
            vs = rng.standard_normal((b, n))
            scale = float(rng.uniform(0.2, 4.0))
            ours = loss_infonce(us, vs, scale)
            ref = oracle_loss_infonce([list(r) for r in us], [list(r) for r in vs], scale)
            assert abs(ours - ref) <= 1e-9


class TestLossProperties:
    def test_losses_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            w = rng.standard_normal(5)
            alpha = float(rng.uniform(0.01, 50.0))
            y = int(rng.integers(0, 2))
            assert loss_cosine(alpha * u, v, y) == pytest.approx(
                loss_cosine(u, v, y), abs=1e-9
            )
            assert loss_contrastive(u, alpha * v, y) == pytest.approx(
                loss_contrastive(u, v, y), abs=1e-9
            )
            assert loss_triplet(alpha * u, v, w) == pytest.approx(
                loss_triplet(u, v, w), abs=1e-9
            )

    def test_contrastive_negative_free_beyond_margin(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            from newsgeo.embedding import cosine

            if 1.0 - cosine(u, v) >= 0.5:
                assert loss_contrastive(u, v, 0) == 0.0

    def test_infonce_nonnegative_and_prefers_diagonal(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            b, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            us, vs = rng.standard_normal((b, n)), rng.standard_normal((b, n))
            assert loss_infonce(us, vs) >= 0.0
        eye = np.eye(4)
        uniform = np.tile(eye[0], (4, 1))
        assert loss_infonce(eye, eye) < loss_infonce(uniform, uniform)


class TestGradients:
    """Analytic gradients against central finite differences (spot checks)."""

    STEP = 1e-5
    TOLERANCE = 1e-4

    def test_cosine_gradients(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            u, v = rng.standard_normal(5), rng.standard_normal(5)
            y = int(rng.integers(0, 2))
            _, gu, gv = loss_cosine_grad(u, v, y)
            nu = central_difference(lambda x: loss_cosine(x, v, y), u, self.STEP)
            nv = central_difference(lambda x: loss_cosine(u, x, y), v, self.STEP)
            assert gradient_agreement(gu, nu) <= self.TOLERANCE
            assert gradient_agreement(gv, nv) <= self.TOLERANCE

    def test_contrastive_gradients(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 20:
            u, v = rng.standard_normal(5), rng.standard_normal(5)
            y = int(rng.integers(0, 2))
            literal = bool(rng.integers(0, 2))
            margin = 0.5
            from newsgeo.embedding import cosine

            d = cosine(u, v) if literal else 1.0 - cosine(u, v)
            if y == 0 and abs(margin - d) < 1e-3:
                continue  # hinge kink: not differentiable there
            loss, gu, gv = loss_contrastive_grad(u, v, y, margin, literal)
            nu = central_difference(
                lambda x: loss_contrastive(x, v, y, margin, literal), u, self.STEP
            )
            nv = central_difference(
                lambda x: loss_contrastive(u, x, y, margin, literal), v, self.STEP
            )
            assert gradient_agreement(gu, nu) <= self.TOLERANCE
            assert gradient_agreement(gv, nv) <= self.TOLERANCE
            checked += 1

    def test_triplet_gradients(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 20:
            u, vp, vn = (rng.standard_normal(4) for _ in range(3))
            margin = 1.0
            uh = u / np.linalg.norm(u)
            dp = float(np.linalg.norm(uh - vp / np.linalg.norm(vp)))
            dn = float(np.linalg.norm(uh - vn / np.linalg.norm(vn)))
            if abs(dp - dn + margin) < 1e-3:
                continue  # hinge kink
            _, gu, gp, gn = loss_triplet_grad(u, vp, vn, margin)
            nu = central_difference(lambda x: loss_triplet(x, vp, vn, margin), u, self.STEP)
            np_ = central_difference(lambda x: loss_triplet(u, x, vn, margin), vp, self.STEP)
            nn = central_difference(lambda x: loss_triplet(u, vp, x, margin), vn, self.STEP)
            assert gradient_agreement(gu, nu) <= self.TOLERANCE
            assert gradient_agreement(gp, np_) <= self.TOLERANCE
            assert gradient_agreement(gn, nn) <= self.TOLERANCE
            checked += 1

    def test_infonce_gradients(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            b, n = 3, 4
            us, vs = rng.standard_normal((b, n)), rng.standard_normal((b, n))
            scale = float(rng.uniform(0.5, 3.0))
            _, gu, gv = loss_infonce_grad(us, vs, scale)
            nu = central_difference(lambda x: loss_infonce(x, vs, scale), us, self.STEP)
            nv = central_difference(lambda x: loss_infonce(us, x, scale), vs, self.STEP)
            assert gradient_agreement(gu, nu) <= self.TOLERANCE
            assert gradient_agreement(gv, nv) <= self.TOLERANCE


def batch_case(loss, n=5, b=4, seed=40):
    """Features, item rows and mixed labels for one batch of ``loss``.

    Triplet rows are arranged so that, at the weights of ``near_identity``,
    row 0 is inactive (its positive lies near the anchor's ray, its negative
    opposite) and row 1 has d_pos = 0 with an active hinge.
    """
    rng = np.random.default_rng(seed)
    columns = 3 if loss == TRIPLET else 2
    features = rng.standard_normal((b * columns, n))
    rows = np.arange(b * columns).reshape(columns, b).T
    labels = np.array([1, 0, 1, 0][:b])
    if loss == TRIPLET:
        anchor_0, positive_0, negative_0 = rows[0]
        features[positive_0] = 2.0 * features[anchor_0] + 0.01 * rng.standard_normal(n)
        features[negative_0] = -features[anchor_0]
        anchor_1, _, negative_1 = rows[1]
        rows[1, 1] = anchor_1  # the positive is the anchor's own text
        features[negative_1] = features[anchor_1] + 0.3 * rng.standard_normal(n)
    return features, rows, labels


def near_identity(n=5, seed=41):
    return np.eye(n) + 0.2 * np.random.default_rng(seed).standard_normal((n, n))


def triplet_hinges(weights, features, rows):
    units = features @ weights.T
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    anchor, positive, negative = (units[column] for column in rows.T)
    d_pos = np.linalg.norm(anchor - positive, axis=1)
    d_neg = np.linalg.norm(anchor - negative, axis=1)
    return d_pos, d_pos - d_neg + 1.0


class TestBatchedTraining:
    """The batched loss path, through the adapter weights."""

    @pytest.mark.parametrize("loss", LOSSES)
    def test_weight_gradient_matches_central_differences(self, loss):
        features, rows, labels = batch_case(loss)
        weights = near_identity()
        config = LossConfig(loss=loss, batch_size=4)
        if loss == TRIPLET:
            d_pos, hinge = triplet_hinges(weights, features, rows)
            assert hinge[0] < -0.1 and d_pos[1] == 0.0 and hinge[1] > 0.1
            assert np.all(np.abs(hinge) > 1e-3)
        _, gradient = training._batch_step(weights, features, rows, labels, config)
        numeric = central_difference(
            lambda w: training._batch_step(w, features, rows, labels, config, False)[0],
            weights,
            1e-6,
        )
        assert gradient.shape == weights.shape
        assert gradient_agreement(gradient, numeric) <= 1e-6

    def test_triplet_rows_without_a_smooth_hinge_get_zero_gradients(self):
        features, rows, _ = batch_case(TRIPLET)
        us, ps, ns = (features[column] @ near_identity().T for column in rows.T)
        _, gu, gp, gn = loss_triplet_grad(us, ps, ns)
        assert not np.any(gu[0]) and not np.any(gp[0]) and not np.any(gn[0])
        assert not np.any(gp[1]) and np.any(gu[1]) and np.any(gn[1])

    @pytest.mark.parametrize(
        "loss_grad, columns, extra",
        [
            (loss_cosine_grad, 2, ()),
            (loss_contrastive_grad, 2, (0.5, False)),
            (loss_contrastive_grad, 2, (1.5, True)),
            (loss_triplet_grad, 3, (1.0,)),
        ],
    )
    def test_batch_is_mean_of_single_rows(self, loss_grad, columns, extra):
        rng = np.random.default_rng(42)
        b, n = 6, 5
        inputs = [rng.standard_normal((b, n)) for _ in range(columns)]
        if columns == 3:
            inputs[1][0] = 2.0 * inputs[0][0]  # d_pos = 0
            inputs[1][1], inputs[2][1] = inputs[0][1], -inputs[0][1]  # inactive
        labels = (np.array([1, 0, 1, 0, 0, 1]),) if columns == 2 else ()
        loss, *grads = loss_grad(*inputs, *labels, *extra)
        singles = [
            loss_grad(*(x[i] for x in inputs), *(y[i] for y in labels), *extra)
            for i in range(b)
        ]
        assert abs(loss - np.mean([single[0] for single in singles])) <= 1e-12
        for k, grad in enumerate(grads):
            assert grad.shape == (b, n)
            expected = np.stack([single[k + 1] for single in singles]) / b
            assert np.max(np.abs(grad - expected)) <= 1e-12

    def test_batch_validation_matches_single_rows(self):
        rows = np.ones((3, 4))
        zero_row = rows.copy()
        zero_row[1] = 0.0
        with pytest.raises(ValueError):
            loss_cosine_grad(rows, zero_row, np.ones(3))
        with pytest.raises(ValueError):
            loss_contrastive_grad(rows, rows, np.array([1, 2, 0]))
        with pytest.raises(ValueError):
            loss_contrastive_grad(rows, rows, np.ones(3), margin=-0.1)
        with pytest.raises(ValueError):
            loss_triplet_grad(rows, rows, zero_row)
        with pytest.raises(ValueError):
            loss_triplet_grad(rows, rows, rows, margin=-1.0)
        with pytest.raises(ValueError):
            loss_cosine_grad(rows, np.ones((3, 5)), 1)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_one_loss_grad_call_per_batch(self, loss, monkeypatch):
        name = {
            COSINE_MSE: "loss_cosine_grad",
            CONTRASTIVE: "loss_contrastive_grad",
            TRIPLET: "loss_triplet_grad",
            INFONCE: "loss_infonce_grad",
        }[loss]
        calls = []
        original = getattr(training, name)
        monkeypatch.setattr(
            training, name, lambda *a, **k: calls.append(len(a[0])) or original(*a, **k)
        )
        features, rows, labels = batch_case(loss)
        training._batch_step(near_identity(), features, rows, labels, LossConfig(loss=loss))
        assert calls == [4]

        calls.clear()
        provider, pairs = shared_axis_pairs(n_docs=10)
        if loss == TRIPLET:
            pairs += [
                TrainingPair(p.article_id, p.document_text, f"ent {(i + 5) % 10}", 0)
                for i, p in enumerate(pairs)
            ]
        config = LossConfig(loss=loss, batch_size=3, epochs=2, validation_fraction=0.3)
        report = train(LinearAdapter(provider), pairs, config)
        assert (report.train_pairs, report.validation_pairs) == (
            (14, 6) if loss == TRIPLET else (7, 3)
        )
        # Per epoch: 7 training items in batches of 3, 3, 1 and 3 validation
        # items in one batch; InfoNCE folds the lone item into the batch before.
        epoch = [3, 4, 3] if loss == INFONCE else [3, 3, 1, 3]
        assert calls == epoch * 2


class TestLossConfig:
    def test_defaults_validate(self):
        LossConfig().validate()

    def test_per_loss_margin_defaults(self):
        assert LossConfig(loss=CONTRASTIVE).resolved_margin == 0.5
        assert LossConfig(loss=TRIPLET).resolved_margin == 1.0
        assert LossConfig(loss=TRIPLET, margin=0.3).resolved_margin == 0.3

    def test_rejections(self):
        with pytest.raises(ValueError):
            LossConfig(loss="hinge").validate()
        with pytest.raises(ValueError):
            LossConfig(loss=INFONCE, batch_size=1).validate()
        with pytest.raises(ValueError):
            LossConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            LossConfig(margin=-0.1).validate()
        with pytest.raises(ValueError):
            LossConfig(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            LossConfig(validation_fraction=1.0).validate()


class StubResolver:
    """locate_qid by table; the only resolver method pair generation uses."""

    def __init__(self, table):
        self.table = table

    def locate_qid(self, qid):
        return self.table.get(qid)


PARIS = LocationTuple("France", "Q142", "Paris", "Q90")
BERLIN = LocationTuple("Germany", "Q183", "Berlin", "Q64")
LYON = LocationTuple("France", "Q142", "Lyon", "Q456")
MADRID = LocationTuple("Spain", "Q29", "Madrid", "Q2807")


def pair_article(article_id, mentions):
    text = "Title\n" + " ".join(surface for surface, _ in mentions) + "."
    built = []
    cursor = len("Title\n")
    for surface, qid in mentions:
        start = text.index(surface, cursor)
        built.append(ParsedMention(surface, start, start + len(surface), qid))
        cursor = start + len(surface)
    article = Article(
        id=article_id,
        language="en",
        title="Title",
        text=text,
        categories=[],
        mentions=built,
    )
    article.validate()
    return article


class TestGeneratePairs:
    def test_positives_are_rendered_category_locations(self):
        article = pair_article("a-1", [])
        pairs = generate_pairs([article], {"a-1": [PARIS]}, StubResolver({}))
        assert len(pairs) == 1
        assert pairs[0].entity_text == "Paris, France"
        assert pairs[0].label == 1
        assert pairs[0].document_text == article.text

    def test_duplicate_positive_texts_collapse(self):
        article = pair_article("a-1", [])
        pairs = generate_pairs([article], {"a-1": [PARIS, PARIS]}, StubResolver({}))
        assert len(pairs) == 1

    def test_document_without_category_locations_contributes_nothing(self):
        article = pair_article("a-1", [("Berlin", "Q64")])
        assert generate_pairs([article], {}, StubResolver({"Q64": BERLIN})) == []

    def test_unrelated_mention_becomes_negative(self):
        article = pair_article("a-1", [("Berlin", "Q64")])
        pairs = generate_pairs(
            [article], {"a-1": [PARIS]}, StubResolver({"Q64": BERLIN})
        )
        labels = {(p.entity_text, p.label) for p in pairs}
        assert labels == {("Paris, France", 1), ("Berlin", 0)}

    def test_mention_matching_positive_id_excluded(self):
        article = pair_article("a-1", [("Paris", "Q90"), ("France", "Q142")])
        pairs = generate_pairs(
            [article], {"a-1": [PARIS]}, StubResolver({"Q90": PARIS})
        )
        assert [p.label for p in pairs] == [1]

    def test_same_country_mention_excluded(self):
        """Lyon is not Paris, but shares the country with the positive."""
        article = pair_article("a-1", [("Lyon", "Q456")])
        pairs = generate_pairs([article], {"a-1": [PARIS]}, StubResolver({"Q456": LYON}))
        assert [p.label for p in pairs] == [1]

    def test_unresolvable_mention_never_negative(self):
        article = pair_article("a-1", [("Mystery", "Q777")])
        pairs = generate_pairs([article], {"a-1": [PARIS]}, StubResolver({}))
        assert [p.label for p in pairs] == [1]

    def test_mention_without_id_never_negative(self):
        article = pair_article("a-1", [("Somewhere", None)])
        pairs = generate_pairs([article], {"a-1": [PARIS]}, StubResolver({}))
        assert [p.label for p in pairs] == [1]

    def test_text_collision_with_positive_excluded(self):
        article = pair_article("a-1", [("Berlin", "Q64")])
        berlin_country_only = LocationTuple("Berlin")
        pairs = generate_pairs(
            [article], {"a-1": [berlin_country_only]}, StubResolver({"Q64": BERLIN})
        )
        assert [(p.entity_text, p.label) for p in pairs] == [("Berlin", 1)]

    def test_negatives_capped_at_positive_count(self):
        article = pair_article(
            "a-1", [("Berlin", "Q64"), ("Madrid", "Q2807"), ("Berlin", "Q64")]
        )
        resolver = StubResolver({"Q64": BERLIN, "Q2807": MADRID})
        pairs = generate_pairs([article], {"a-1": [PARIS]}, resolver, seed=13)
        negatives = [p for p in pairs if p.label == 0]
        assert len(negatives) == 1
        expected = random.Random("13:a-1").sample(["Berlin", "Madrid"], 1)
        assert [p.entity_text for p in negatives] == expected

    def test_cap_sampling_is_seed_deterministic(self):
        article = pair_article(
            "a-1", [("Berlin", "Q64"), ("Madrid", "Q2807")]
        )
        resolver = StubResolver({"Q64": BERLIN, "Q2807": MADRID})
        first = generate_pairs([article], {"a-1": [PARIS]}, resolver, seed=5)
        second = generate_pairs([article], {"a-1": [PARIS]}, resolver, seed=5)
        assert first == second

    def test_no_text_is_both_positive_and_negative(self, resolver, articles):
        category_locations = {
            article.id: resolver.classify_categories(article.categories, article.language)
            for article in articles
        }
        pairs = generate_pairs(articles, category_locations, resolver)
        by_doc = {}
        for pair in pairs:
            by_doc.setdefault(pair.article_id, {0: set(), 1: set()})[pair.label].add(
                pair.entity_text
            )
        for sides in by_doc.values():
            assert not sides[0] & sides[1]

    def test_fixture_corpus_pair_inventory(self, resolver, articles):
        """The en-001 article yields exactly its city positive and one negative."""
        category_locations = {
            article.id: resolver.classify_categories(article.categories, article.language)
            for article in articles
        }
        pairs = generate_pairs(articles, category_locations, resolver)
        en_001 = [p for p in pairs if p.article_id == "en-001"]
        assert [(p.entity_text, p.label) for p in en_001] == [
            ("Paris, France", 1),
            ("Berlin", 0),
        ]
        assert len([p for p in pairs if p.label == 1]) == 10
        assert len([p for p in pairs if p.label == 0]) == 5

    def test_round_trip(self, tmp_path):
        pairs = [
            TrainingPair("a-1", "doc text", "Paris, France", 1),
            TrainingPair("a-1", "doc text", "Berlin", 0),
        ]
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            TrainingPair("a-1", "doc", "ent", 2).validate()
        with pytest.raises(ValueError):
            TrainingPair("a-1", "doc", "ent", "1").validate()
        with pytest.raises(ValueError):
            TrainingPair("a-1", "", "ent", 1).validate()
        with pytest.raises(ValueError):
            TrainingPair("a-1", "doc", 7, 1).validate()


class TableProvider:
    """Embeds by exact table lookup; every text is one token."""

    name = "table"
    max_tokens = 64

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.dimension = len(next(iter(self.table.values())))

    def token_count(self, text):
        return 1

    def embed(self, text):
        return self.table[text]


def shared_axis_pairs(n_docs=6):
    """Positive pairs that disagree only along the last embedding axis.

    Document i and entity i share a direction in the first two coordinates
    and carry opposite signs in the third, so one linear map (shrink the
    third axis) improves every pair, held-out documents included. That makes
    validation loss genuinely trainable instead of memorizable.
    """
    table = {}
    pairs = []
    for i in range(n_docs):
        phi = 2.0 * math.pi * i / n_docs
        table[f"doc {i}"] = [math.cos(phi), math.sin(phi), 1.0]
        table[f"ent {i}"] = [math.cos(phi), math.sin(phi), -1.0]
        pairs.append(TrainingPair(f"d{i}", f"doc {i}", f"ent {i}", 1))
    return TableProvider(table), pairs


class TestLinearAdapter:
    def test_identity_init_matches_base(self, mock_provider):
        adapter = LinearAdapter(mock_provider)
        assert np.array_equal(adapter.embed("Paris"), mock_provider.embed("Paris"))
        assert adapter.dimension == mock_provider.dimension
        assert adapter.max_tokens == mock_provider.max_tokens

    def test_weights_apply(self, mock_provider):
        weights = np.full((16, 16), 0.1)
        adapter = LinearAdapter(mock_provider, weights=weights)
        expected = weights @ mock_provider.embed("Paris")
        assert np.allclose(adapter.embed("Paris"), expected)

    def test_wrong_shape_rejected(self, mock_provider):
        with pytest.raises(ValueError):
            LinearAdapter(mock_provider, weights=np.eye(3))

    def test_checkpoint_restore_round_trip(self, mock_provider, tmp_path):
        adapter = LinearAdapter(mock_provider)
        adapter.weights = adapter.weights * 2.0
        saved = adapter.checkpoint()
        adapter.weights = adapter.weights + 1.0
        adapter.restore(saved)
        assert np.array_equal(adapter.weights, saved)
        path = tmp_path / "model.npz"
        save_checkpoint(adapter, path)
        loaded = load_checkpoint(mock_provider, path)
        assert np.array_equal(loaded.weights, adapter.weights)

    def test_checkpoint_written_to_exact_path(self, mock_provider, tmp_path):
        adapter = LinearAdapter(mock_provider)
        adapter.weights = adapter.weights * 3.0
        path = tmp_path / "adapter.bin"
        save_checkpoint(adapter, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adapter.bin"]
        assert np.array_equal(load_checkpoint(mock_provider, path).weights, adapter.weights)


class TestEarlyStopping:
    def test_patience_zero_stops_on_first_non_improvement(self):
        stopper = EarlyStopping(patience=0)
        assert stopper.update(1, 1.0) is False
        assert stopper.update(2, 1.1) is True
        assert stopper.best == 1.0
        assert stopper.best_epoch == 1

    def test_equal_value_is_not_an_improvement(self):
        stopper = EarlyStopping(patience=0)
        assert stopper.update(1, 1.0) is False
        assert stopper.update(2, 1.0) is True

    def test_patience_two_tolerates_two_bad_epochs(self):
        stopper = EarlyStopping(patience=2)
        values = [5.0, 4.0, 4.5, 4.6, 4.7]
        outcomes = [stopper.update(i + 1, v) for i, v in enumerate(values)]
        assert outcomes == [False, False, False, False, True]
        assert stopper.best_epoch == 2

    def test_improvement_resets_the_counter(self):
        stopper = EarlyStopping(patience=1)
        assert stopper.update(1, 3.0) is False
        assert stopper.update(2, 3.5) is False
        assert stopper.update(3, 2.5) is False
        assert stopper.update(4, 2.6) is False
        assert stopper.update(5, 2.7) is True
        assert stopper.best_epoch == 3

    def test_negative_patience_rejected(self):
        with pytest.raises(ValueError):
            EarlyStopping(-1)


class TestTrain:
    def config(self, **kw):
        base = dict(
            loss=CONTRASTIVE,
            batch_size=6,
            epochs=4,
            early_stop_patience=3,
            learning_rate=0.5,
            validation_fraction=0.34,
            seed=13,
        )
        base.update(kw)
        return LossConfig(**base)

    def test_validation_loss_decreases_on_learnable_geometry(self):
        provider, pairs = shared_axis_pairs()
        adapter = LinearAdapter(provider)
        report = train(adapter, pairs, self.config())
        assert report.epochs_run >= 3
        assert report.validation_losses[1] < report.validation_losses[0]
        assert report.validation_losses[2] < report.validation_losses[1]
        assert report.best_validation_loss == min(report.validation_losses)

    def test_single_epoch_runs_once(self):
        provider, pairs = shared_axis_pairs()
        adapter = LinearAdapter(provider)
        report = train(adapter, pairs, self.config(epochs=1))
        assert report.epochs_run == 1
        assert report.epochs_requested == 1
        assert not report.stopped_early
        assert len(report.train_losses) == len(report.validation_losses) == 1

    def test_early_stop_on_plateau(self):
        """Zero-loss pairs never improve after epoch 1, so patience 0 stops at 2."""
        table = {f"t{i}": [math.cos(i), math.sin(i)] for i in range(4)}
        provider = TableProvider(table)
        pairs = [TrainingPair(f"d{i}", f"t{i}", f"t{i}", 1) for i in range(4)]
        adapter = LinearAdapter(provider)
        report = train(
            adapter, pairs, self.config(epochs=10, early_stop_patience=0, batch_size=4)
        )
        assert report.epochs_run == 2
        assert report.stopped_early
        assert report.best_epoch == 1
        assert report.best_validation_loss == pytest.approx(0.0, abs=1e-15)

    def test_best_epoch_weights_restored(self):
        provider, pairs = shared_axis_pairs()
        adapter = LinearAdapter(provider)
        config = self.config()
        report = train(adapter, pairs, config)
        # Recompute the validation loss of the restored weights independently.
        document_ids = list(dict.fromkeys(p.article_id for p in pairs))
        _, validation_ids = split_train_validation(
            document_ids, config.validation_fraction, config.seed
        )
        validation_pairs = [p for p in pairs if p.article_id in set(validation_ids)]
        losses = [
            loss_contrastive(
                adapter.embed(p.document_text), adapter.embed(p.entity_text), p.label
            )
            for p in validation_pairs
        ]
        assert sum(losses) / len(losses) == pytest.approx(
            report.best_validation_loss, abs=1e-12
        )
        assert report.best_epoch == report.validation_losses.index(
            report.best_validation_loss
        ) + 1

    def test_triplet_training_runs(self):
        provider, pairs = shared_axis_pairs()
        negatives = [
            TrainingPair(p.article_id, p.document_text, f"ent {(i + 3) % 6}", 0)
            for i, p in enumerate(pairs)
        ]
        adapter = LinearAdapter(provider)
        report = train(adapter, pairs + negatives, self.config(loss=TRIPLET, epochs=2))
        assert report.loss == TRIPLET
        assert report.epochs_run == 2
        assert all(math.isfinite(v) for v in report.validation_losses)

    def test_infonce_training_runs(self):
        provider, pairs = shared_axis_pairs(n_docs=8)
        adapter = LinearAdapter(provider)
        report = train(adapter, pairs, self.config(loss=INFONCE, batch_size=4, epochs=2))
        assert report.loss == INFONCE
        assert all(math.isfinite(v) for v in report.validation_losses)

    def test_cosine_training_runs(self):
        provider, pairs = shared_axis_pairs()
        adapter = LinearAdapter(provider)
        report = train(adapter, pairs, self.config(loss=COSINE_MSE, epochs=2))
        assert report.epochs_run == 2

    def test_features_are_embedded_in_the_given_chunking_mode(self):
        """Past the 4-token limit, truncating and averaging give other features."""
        provider = MockEmbedder(dimension=8, seed=5, max_tokens=4)
        text = "Story {0} opens here. It runs {0} times. Then it ends."
        pairs = [TrainingPair(f"d{i}", text.format(i), f"place {i}", 1) for i in range(6)]

        def first_loss(*chunking):
            adapter = LinearAdapter(provider)
            return train(adapter, pairs, self.config(epochs=1), *chunking).train_losses[0]

        assert first_loss(TRUNCATE) != first_loss(AVERAGE)
        assert first_loss() == first_loss(AVERAGE)

    def test_non_finite_feature_diverges(self):
        provider, pairs = shared_axis_pairs()
        provider.table["ent 1"] = np.array([math.nan, math.nan, math.nan])
        adapter = LinearAdapter(provider)
        with pytest.raises(TrainingDiverged):
            train(adapter, pairs, self.config(epochs=1))

    def test_empty_pairs_rejected(self, mock_provider):
        with pytest.raises(ValueError):
            train(LinearAdapter(mock_provider), [], self.config())

    def test_infonce_without_a_training_batch_rejected(self):
        """One training positive gives InfoNCE no batch of 2; nothing may train."""
        provider, pairs = shared_axis_pairs(n_docs=6)
        config = self.config(loss=INFONCE, batch_size=4, validation_fraction=0.8)
        adapter = LinearAdapter(provider)
        with pytest.raises(ValueError, match="training split has no usable batches"):
            train(adapter, pairs, config)

    def test_infonce_folds_a_lone_trailing_item_into_the_last_batch(self, monkeypatch):
        """5 positives per split at batch_size=4: one batch of 5, none skipped."""
        provider, pairs = shared_axis_pairs(n_docs=10)
        config = self.config(loss=INFONCE, batch_size=4, epochs=1, validation_fraction=0.5)
        calls = []
        original = training.loss_infonce_grad

        def counted(us, vs):
            result = original(us, vs)
            calls.append((len(us), result[0]))
            return result

        monkeypatch.setattr(training, "loss_infonce_grad", counted)
        report = train(LinearAdapter(provider), pairs, config)
        assert (report.train_pairs, report.validation_pairs) == (5, 5)
        assert [size for size, _ in calls] == [5, 5]
        assert report.validation_losses == [calls[1][1]]

    def test_single_document_rejected(self):
        provider, pairs = shared_axis_pairs(n_docs=1)
        with pytest.raises(ValueError):
            train(LinearAdapter(provider), pairs, self.config())

    def test_all_losses_supported(self):
        assert set(LOSSES) == {COSINE_MSE, CONTRASTIVE, TRIPLET, INFONCE}
