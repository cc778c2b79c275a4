"""End-to-end command-line tests on the bundled fixture world.

Every command promises deterministic artifacts (sorted keys, stable record
order, no timestamps), so reruns and worker-count changes are compared
byte-for-byte rather than merely structurally.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from newsgeo.cli import main
from newsgeo.embedding import MockEmbedder
from newsgeo.kb import KbCache

from conftest import count_calls

# Config field, value and reported problem of a component whose optional
# dependency is missing, by the module it needs.
OPTIONAL_COMPONENTS = {
    "sentence_transformers": (
        "embedder",
        "sentence-transformers:x",
        "embedder: sentence-transformers is not installed; use the mock provider "
        "or install the extra dependency",
    ),
    "spacy": (
        "ner_providers",
        ["spacy:en_core_web_sm"],
        "ner_providers: spaCy is not installed; install it or use another provider",
    ),
}


UNSUPPORTED_LANGUAGE = "language not one of ['de', 'en', 'es', 'fr', 'it']"


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


class TestIngest:
    def test_skips_bad_lines_and_normalizes(self, tmp_path, fixture_tree, capsys):
        clean_lines = read_lines(fixture_tree["articles_en"])
        wrong_language = json.loads(clean_lines[0])
        wrong_language["id"] = "en-999"
        wrong_language["lang"] = "fr"
        messy = tmp_path / "messy.jsonl"
        messy.write_text(
            "\n".join(clean_lines + ["{not json", json.dumps(wrong_language)]) + "\n",
            encoding="utf-8",
        )
        output = tmp_path / "clean.jsonl"
        code = main(["ingest", "--input", str(messy), "--language", "en", "--output", str(output)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"loaded {len(clean_lines)} articles, skipped 2" in stdout
        assert read_lines(output) == clean_lines

    def test_records_without_a_string_id_are_skipped(self, tmp_path, fixture_tree, capsys):
        clean_lines = read_lines(fixture_tree["articles_en"])
        record = json.loads(clean_lines[0])
        bad = [json.dumps({**record, "id": bad_id}) for bad_id in (None, ["a"], "", 7)]
        messy = tmp_path / "messy.jsonl"
        messy.write_text("\n".join([*bad, *clean_lines]) + "\n", encoding="utf-8")
        output = tmp_path / "clean.jsonl"
        code = main(["ingest", "--input", str(messy), "--language", "en", "--output", str(output)])
        assert code == 0
        assert f"loaded {len(clean_lines)} articles, skipped 4" in capsys.readouterr().out
        assert read_lines(output) == clean_lines

    def test_non_object_lines_are_skipped(self, tmp_path, fixture_tree, capsys):
        clean_lines = read_lines(fixture_tree["articles_en"])
        messy = tmp_path / "messy.jsonl"
        messy.write_text("\n".join(["[1, 2]", *clean_lines, '"x"']) + "\n", encoding="utf-8")
        output = tmp_path / "clean.jsonl"
        code = main(["ingest", "--input", str(messy), "--language", "en", "--output", str(output)])
        assert code == 0
        assert f"loaded {len(clean_lines)} articles, skipped 2" in capsys.readouterr().out
        assert read_lines(output) == clean_lines

    def test_repeated_article_id_fails_without_output(self, tmp_path, fixture_tree, capsys):
        lines = read_lines(fixture_tree["articles_en"])
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        output = tmp_path / "clean.jsonl"
        code = main(["ingest", "--input", str(repeated), "--language", "en", "--output", str(output)])
        assert code == 1
        article_id = json.loads(lines[0])["id"]
        assert json.loads(capsys.readouterr().err) == {
            "error": "valueerror",
            "details": [f"duplicate article id {article_id!r} in {repeated}"],
        }
        assert not output.exists()

    def test_idempotent_on_its_own_output(self, tmp_path, fixture_tree):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        source = str(fixture_tree["articles_de"])
        assert main(["ingest", "--input", source, "--language", "de", "--output", str(first)]) == 0
        assert main(["ingest", "--input", str(first), "--language", "de", "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unsupported_language_is_usage_error(self, tmp_path, fixture_tree):
        output = tmp_path / "out.jsonl"
        argv = ["ingest", "--input", str(fixture_tree["articles_en"]), "--language", "xx"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--output", str(output)])
        assert excinfo.value.code == 2
        assert not output.exists()

    def test_stats_flag_prints_table(self, tmp_path, fixture_tree, capsys):
        output = tmp_path / "out.jsonl"
        code = main(
            [
                "ingest",
                "--input",
                str(fixture_tree["articles_en"]),
                "--language",
                "en",
                "--output",
                str(output),
                "--stats",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            f"loaded 2 articles, skipped 0 -> {output}\n"
            "Language  Documents  Mentions  Unique entity IDs\n"
            "en        2          7         6\n"
            "Total     2          7         6\n"
        )


class TestClassifyCategories:
    def test_one_record_per_article_in_corpus_order(self, tmp_path, fixture_tree, capsys):
        output = tmp_path / "category_locations.jsonl"
        code = main(
            ["classify-categories", "--config", str(fixture_tree["config"]), "--output", str(output)]
        )
        assert code == 0
        records = [json.loads(line) for line in read_lines(output)]
        assert len(records) == 10
        ids = [record["article_id"] for record in records]
        assert ids == sorted(ids)
        by_id = {record["article_id"]: record["locations"] for record in records}
        assert any(location["country"] == "France" for location in by_id["en-001"])
        assert "classified 10 articles" in capsys.readouterr().out


class TestGeneratePairs:
    def test_pairs_from_computed_category_locations(self, tmp_path, fixture_tree, capsys):
        output = tmp_path / "pairs.jsonl"
        argv = ["generate-pairs", "--config", str(fixture_tree["config"])]
        assert main([*argv, "--output", str(output)]) == 0
        assert "(10 positive, 5 negative)" in capsys.readouterr().out
        assert len(read_lines(output)) == 15

    @pytest.mark.parametrize("command", ["generate-pairs", "classify-categories"])
    def test_worker_count_does_not_change_output(self, tmp_path, fixture_tree, command):
        outputs = []
        for workers in ("1", "4"):
            output = tmp_path / f"{command}-{workers}.jsonl"
            argv = [command, "--config", str(fixture_tree["config"]), "--workers", workers]
            assert main([*argv, "--output", str(output)]) == 0
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0]

    def test_category_locations_file_is_not_an_option(self, tmp_path, fixture_tree):
        argv = ["generate-pairs", "--config", str(fixture_tree["config"])]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--category-locations", "c.jsonl", "--output", str(tmp_path / "p")])
        assert excinfo.value.code == 2


class TestRank:
    def test_worker_count_does_not_change_output(self, tmp_path, fixture_tree):
        config = str(fixture_tree["config"])
        serial = tmp_path / "serial.jsonl"
        threaded = tmp_path / "threaded.jsonl"
        assert main(["rank", "--config", config, "--workers", "1", "--output", str(serial)]) == 0
        assert main(["rank", "--config", config, "--workers", "4", "--output", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    @pytest.mark.parametrize("blocked", ["read-only directory", "index path is a directory"])
    def test_a_failed_index_write_leaves_the_output_alone(self, tmp_path, fixture_tree, blocked):
        folder = fixture_tree["cache"].parent
        index = folder / "kb_cache.jsonl.index"
        index.unlink(missing_ok=True)
        argv = ["rank", "--config", str(fixture_tree["config"]), "--output"]
        if blocked == "read-only directory":
            folder.chmod(0o555)
        else:
            index.mkdir()
        before = sorted(folder.iterdir())
        try:
            if os.access(folder, os.W_OK) and blocked == "read-only directory":
                pytest.skip("permission bits do not stop this user's writes")
            assert main([*argv, str(tmp_path / "blocked.jsonl")]) == 0
            assert sorted(folder.iterdir()) == before
        finally:
            folder.chmod(0o755)
        if index.is_dir():
            index.rmdir()
        assert main([*argv, str(tmp_path / "writes_index.jsonl")]) == 0
        assert index.is_file()
        assert main([*argv, str(tmp_path / "reads_index.jsonl")]) == 0
        outputs = {(tmp_path / name).read_bytes() for name in
                   ("blocked.jsonl", "writes_index.jsonl", "reads_index.jsonl")}
        assert len(outputs) == 1

    def test_mode_flag_overrides_config(self, tmp_path, fixture_tree):
        output = tmp_path / "ranked.jsonl"
        code = main(
            [
                "rank",
                "--config",
                str(fixture_tree["config"]),
                "--mode",
                "only_locations",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in read_lines(output)]
        assert len(records) == 10
        for record in records:
            assert set(record) == {"article_id", "mode", "candidates"}
            assert record["mode"] == "only_locations"
            scores = [candidate["score"] for candidate in record["candidates"]]
            assert scores == sorted(scores, reverse=True)


class TestEvaluate:
    def test_baseline_report_and_trace(self, tmp_path, fixture_tree, capsys):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "evaluate",
                "--config",
                str(fixture_tree["config"]),
                "--baseline",
                "first-location",
                "--output",
                str(report_path),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "baseline-first-location" in stdout
        assert "country" in stdout and "city" in stdout
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["system"] == "baseline-first-location"
        assert report["country"]["macro"] == 1.0
        trace = [json.loads(line) for line in read_lines(trace_path)]
        assert len(trace) == 10
        assert all(entry["error"] is None for entry in trace)

    def test_reruns_and_worker_counts_byte_identical(self, tmp_path, fixture_tree):
        config = str(fixture_tree["config"])
        outputs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            path = tmp_path / f"report_{name}.json"
            code = main(
                ["evaluate", "--config", config, "--workers", workers, "--output", str(path)]
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_online_run_creates_the_cache_directory(self, tmp_path, fixture_tree, monkeypatch):
        answer_every_lookup_as_absent(monkeypatch)
        reports = []
        for cache in (tmp_path / "kb_cache.jsonl", tmp_path / "new" / "dir" / "kb_cache.jsonl"):
            report = tmp_path / "report.json"
            argv = ["evaluate", "--config", str(fixture_tree["config"]), "--network", "online"]
            assert main([*argv, "--cache", str(cache), "--output", str(report)]) == 0
            reports.append(report.read_bytes())
            assert cache.read_bytes() == (tmp_path / "kb_cache.jsonl").read_bytes()
        assert reports[0] == reports[1]

    def test_gold_flag_overrides_config(self, tmp_path, fixture_tree, capsys):
        config = json.loads(fixture_tree["config"].read_text(encoding="utf-8"))
        del config["gold"]
        stripped = fixture_tree["config"].parent / "config_nogold.json"
        stripped.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")

        code = main(["evaluate", "--config", str(stripped), "--baseline", "first-location"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert any("gold" in problem for problem in error["details"])

        code = main(
            [
                "evaluate",
                "--config",
                str(stripped),
                "--baseline",
                "first-location",
                "--gold",
                str(fixture_tree["gold"]),
            ]
        )
        assert code == 0


class TestTrain:
    def test_train_from_pairs_file(self, tmp_path, fixture_tree, capsys):
        config = str(fixture_tree["config"])
        pairs = tmp_path / "pairs.jsonl"
        report_path = tmp_path / "training.json"
        checkpoint = tmp_path / "adapter.npz"
        assert main(["generate-pairs", "--config", config, "--output", str(pairs)]) == 0
        code = main(
            [
                "train",
                "--config",
                config,
                "--pairs",
                str(pairs),
                "--output",
                str(report_path),
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "trained loss=contrastive batch=4" in stdout
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["loss"] == "contrastive"
        assert report["epochs_run"] >= 1
        assert len(report["validation_losses"]) == report["epochs_run"]
        assert checkpoint.exists() and checkpoint.stat().st_size > 0

    def test_loss_flag_overrides_config(self, tmp_path, fixture_tree, capsys):
        config = str(fixture_tree["config"])
        pairs = tmp_path / "pairs.jsonl"
        assert main(["generate-pairs", "--config", config, "--output", str(pairs)]) == 0
        code = main(
            ["train", "--config", config, "--pairs", str(pairs), "--loss", "cosine_mse", "--epochs", "2"]
        )
        assert code == 0
        assert "loss=cosine_mse" in capsys.readouterr().out

    def test_diverged_training_is_a_structured_error(
        self, tmp_path, fixture_tree, monkeypatch, capsys
    ):
        def non_finite(u, v, y, *args):
            return math.nan, np.zeros_like(u), np.zeros_like(v)

        monkeypatch.setattr("newsgeo.training.loss_contrastive_grad", non_finite)
        output = tmp_path / "training.json"
        argv = ["train", "--config", str(fixture_tree["config"]), "--output", str(output)]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "training-diverged",
            "details": ["non-finite loss nan at epoch 1, batch starting at 0"],
        }
        assert not output.exists()

    @pytest.mark.parametrize(
        "flag, value, problem",
        [
            ("--learning-rate", "nan", "learning_rate must be finite and > 0, got nan"),
            ("--learning-rate", "inf", "learning_rate must be finite and > 0, got inf"),
            ("--margin", "inf", "margin must be finite and >= 0, got inf"),
            ("--margin", "nan", "margin must be finite and >= 0, got nan"),
        ],
    )
    def test_non_finite_flag_is_a_config_error(
        self, tmp_path, fixture_tree, monkeypatch, capsys, flag, value, problem
    ):
        embeds = count_calls(monkeypatch, MockEmbedder, "embed")
        output = tmp_path / "training.json"
        argv = ["train", "--config", str(fixture_tree["config"]), flag, value]
        assert main([*argv, "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config",
            "details": [f"loss: {problem}"],
        }
        assert embeds == [] and not output.exists()


class TestCacheExport:
    def test_sorted_snapshot_and_rerun_identical(self, tmp_path, fixture_tree, capsys):
        first = tmp_path / "snapshot_a.jsonl"
        second = tmp_path / "snapshot_b.jsonl"
        config = str(fixture_tree["config"])
        assert main(["cache-export", "--config", config, "--output", str(first)]) == 0
        stdout = capsys.readouterr().out
        records = [json.loads(line) for line in read_lines(first)]
        keys = [(record["source"], record["key"]) for record in records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert f"exported {len(records)} cache entries" in stdout
        assert main(["cache-export", "--config", config, "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestFailureModes:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["rank"])
        assert excinfo.value.code == 2

    def test_missing_config_file_reports_structured_error(self, tmp_path, capsys):
        code = main(
            [
                "cache-export",
                "--config",
                str(tmp_path / "nope.json"),
                "--output",
                str(tmp_path / "snapshot.jsonl"),
            ]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert any("no such file" in problem for problem in error["details"])

    def test_bad_config_lists_every_problem(self, tmp_path, capsys):
        broken = tmp_path / "config.json"
        broken.write_text(
            json.dumps({"workers": 0, "network": "carrier-pigeon"}), encoding="utf-8"
        )
        code = main(
            ["cache-export", "--config", str(broken), "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert any("workers" in problem for problem in error["details"])
        assert any("network" in problem for problem in error["details"])

    def test_malformed_corpus_override_rejected(self, tmp_path, fixture_tree, capsys):
        code = main(
            [
                "classify-categories",
                "--corpus",
                "missing-equals-sign",
                "--cache",
                str(fixture_tree["cache"]),
                "--output",
                str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert any("LANG=PATH" in problem for problem in error["details"])

    @pytest.mark.parametrize("language", ["EN", "xx"])
    def test_unsupported_corpus_language_is_a_config_error(
        self, tmp_path, fixture_tree, capsys, language
    ):
        corpus = f"{language}={fixture_tree['articles_en']}"
        output = tmp_path / "ranking.jsonl"
        argv = ["rank", "--config", str(fixture_tree["config"]), "--corpus", corpus]
        assert main([*argv, "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config",
            "details": [f"corpus[{language}]: {UNSUPPORTED_LANGUAGE}"],
        }
        assert not output.exists()

    def test_cache_miss_names_source_and_key(self, tmp_path, fixture_tree, capsys):
        record = json.loads(read_lines(fixture_tree["articles_en"])[0])
        record["categories"] = ["Atlantis"]
        corpus = tmp_path / "atlantis.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = main(
            [
                "classify-categories",
                "--corpus",
                f"en={corpus}",
                "--cache",
                str(fixture_tree["cache"]),
                "--output",
                str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "cache-miss"
        assert error["details"] == ["wplink:en:Atlantis"]
        assert "--network online" in error["hint"]

    def test_removed_segmenter_field_is_unknown(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"segmenter": "rule"}), encoding="utf-8")
        code = main(
            ["cache-export", "--config", str(config), "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {
            "error": "config",
            "details": ["segmenter: unknown configuration field"],
        }

    def test_bad_cache_line_names_file_and_line(self, tmp_path, fixture_tree, capsys):
        cache = tmp_path / "kb_cache.jsonl"
        lines = fixture_tree["cache"].read_text(encoding="utf-8").splitlines()
        cache.write_text("\n".join([lines[0], "{torn", *lines[1:]]) + "\n", encoding="utf-8")
        code = main(
            ["cache-export", "--cache", str(cache), "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "valueerror"
        assert error["details"][0].startswith(f"{cache}:2: bad cache record")

    @pytest.mark.parametrize(
        "command", [["rank"], ["evaluate", "--workers", "1"], ["evaluate", "--workers", "2"]]
    )
    def test_corrupt_value_read_fails_the_command(self, tmp_path, fixture_tree, command, capsys):
        """A record whose value does not decode is found when read, not at load."""
        cache = tmp_path / "kb_cache.jsonl"
        lines = fixture_tree["cache"].read_text(encoding="utf-8").splitlines()
        number = next(i for i, line in enumerate(lines, 1) if '"key": "Q142"' in line)
        lines[number - 1] = '{"source": "wikidata", "key": "Q142", "value": {oops}'
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        output = tmp_path / "out.json"
        argv = [*command, "--config", str(fixture_tree["config"]), "--cache", str(cache)]
        assert main([*argv, "--output", str(output)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "valueerror"
        assert error["details"][0].startswith(f"{cache}:{number}: bad cache record")
        assert not output.exists()

    @pytest.mark.parametrize(
        "source, key, value",
        [
            ("wikidata", "Q90", {"qid": "Q90"}),
            ("dbpedia", "en:Eiffel Tower", {"title": "Eiffel Tower", "language": "en"}),
            ("wplink", "en:Paris", {"surface": "Paris"}),
        ],
    )
    def test_record_missing_a_field_fails_the_command(
        self, tmp_path, fixture_tree, source, key, value, capsys
    ):
        """A record the client cannot read is corrupt, never a wrong prediction."""
        cache = tmp_path / "kb_cache.jsonl"
        lines = read_lines(fixture_tree["cache"])
        wanted = f'{{"source": "{source}", "key": "{key}",'
        number = next(i for i, line in enumerate(lines, 1) if line.startswith(wanted))
        lines[number - 1] = json.dumps({"source": source, "key": key, "value": value})
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        output, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
        argv = ["evaluate", "--config", str(fixture_tree["config"]), "--cache", str(cache)]
        assert main([*argv, "--output", str(output), "--trace", str(trace)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "valueerror"
        assert error["details"][0].startswith(f"{cache}:{number}: bad cache record (no field ")
        assert not output.exists() and not trace.exists()

    @pytest.mark.parametrize(
        "raw, problem",
        [
            ({"loss": {"nope": 1}}, "loss.nope: unknown configuration field"),
            ({"workers": "2"}, 'workers: expected an integer, got "2"'),
            (1, "config: expected a JSON object, got 1"),
            ({"loss": {"batch_size": "4"}}, 'loss.batch_size: expected an integer, got "4"'),
            ({"corpus": ["a"]}, 'corpus: expected an object of strings, got ["a"]'),
            ({"loss": {"scale": 2.0}}, "loss.scale: unknown configuration field"),
            ({"loss": {"literal_cosine": True}}, "loss.literal_cosine: unknown configuration field"),
        ],
    )
    def test_config_field_of_the_wrong_json_type(self, tmp_path, raw, problem, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        code = main(
            ["cache-export", "--config", str(config), "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {"error": "config", "details": [problem]}

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("embedder", "mock:abc", "embedder: mock dimension must be an integer >= 2, got 'abc'"),
            ("embedder", "mock:1", "embedder: mock dimension must be an integer >= 2, got '1'"),
            (
                "ner_providers",
                ["gazetteer:missing.json"],
                "ner_providers: no such gazetteer file '{dir}/missing.json'",
            ),
            ("corpus", {"pt": "articles_en.jsonl"}, f"corpus[pt]: {UNSUPPORTED_LANGUAGE}"),
            ("loss", {"learning_rate": math.nan}, "loss: learning_rate must be finite and > 0, got nan"),
            ("loss", {"margin": math.inf}, "loss: margin must be finite and >= 0, got inf"),
        ],
        ids=["mock-abc", "mock-1", "missing-gazetteer", "corpus-pt", "loss-nan", "loss-inf"],
    )
    def test_unusable_component_is_a_config_error(
        self, tmp_path, fixture_tree, field, value, problem, capsys
    ):
        config = json.loads(fixture_tree["config"].read_text(encoding="utf-8"))
        config[field] = value
        path = fixture_tree["config"].parent / "config_bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        output = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(path), "--output", str(output)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "config", "details": [problem.format(dir=path.parent)]}
        assert not output.exists()

    @pytest.mark.parametrize(
        "command, module",
        [
            ("rank", "sentence_transformers"),
            ("evaluate", "sentence_transformers"),
            ("train", "sentence_transformers"),
            ("rank", "spacy"),
            ("evaluate", "spacy"),
        ],
    )
    def test_missing_optional_dependency_is_a_config_error(
        self, tmp_path, fixture_tree, monkeypatch, command, module, capsys
    ):
        field, value, problem = OPTIONAL_COMPONENTS[module]
        monkeypatch.setitem(sys.modules, module, None)
        config = json.loads(fixture_tree["config"].read_text(encoding="utf-8"))
        config[field] = value
        path = fixture_tree["config"].parent / "config_optional.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        output = tmp_path / "out.json"
        assert main([command, "--config", str(path), "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "config", "details": [problem]}
        assert not output.exists()

    @pytest.mark.parametrize(
        "content, problem",
        [
            ('["Paris"]', "must map non-empty strings to strings"),
            ('{"Paris": 5}', "must map non-empty strings to strings"),
            ('{"": "LOC"}', "must map non-empty strings to strings"),
            (
                "{torn",
                "is not valid JSON (Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1))",
            ),
        ],
        ids=["list", "non-string-label", "empty-name", "invalid-json"],
    )
    @pytest.mark.parametrize("command", ["rank", "evaluate"])
    def test_malformed_gazetteer_is_a_config_error(
        self, tmp_path, fixture_tree, command, content, problem, capsys
    ):
        gazetteer = fixture_tree["gazetteer"]
        gazetteer.write_text(content, encoding="utf-8")
        output = tmp_path / "out.json"
        argv = [command, "--config", str(fixture_tree["config"]), "--output", str(output)]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config",
            "details": [f"ner_providers: gazetteer file {str(gazetteer)!r} {problem}"],
        }
        assert not output.exists()

    def test_bad_gold_line_names_file_and_line(self, tmp_path, fixture_tree, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(fixture_tree["gold"].read_text(encoding="utf-8") + "[1]\n", encoding="utf-8")
        number = len(read_lines(gold))
        output = tmp_path / "report.json"
        argv = ["evaluate", "--config", str(fixture_tree["config"]), "--gold", str(gold)]
        assert main([*argv, "--output", str(output)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {
            "error": "valueerror",
            "details": [f"{gold}:{number}: not a JSON object (list)"],
        }
        assert not output.exists()

    @pytest.mark.parametrize("source", ["articles_en", "articles_de"])
    def test_duplicate_article_id_fails_the_command(self, tmp_path, fixture_tree, source, capsys):
        """A repeated id would score one gold row twice and rank it twice."""
        record = json.loads(read_lines(fixture_tree[source])[0])
        del record["lang"]
        corpus = fixture_tree["articles_en"]
        with corpus.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        files = corpus if source == "articles_en" else f"{fixture_tree[source]} and {corpus}"
        output, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
        argv = ["evaluate", "--config", str(fixture_tree["config"])]
        assert main([*argv, "--output", str(output), "--trace", str(trace)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "valueerror",
            "details": [f"duplicate article id {record['id']!r} in {files}"],
        }
        assert not output.exists() and not trace.exists()

    def test_duplicate_gold_row_names_file_and_line(self, tmp_path, fixture_tree, capsys):
        gold = fixture_tree["gold"]
        first = read_lines(gold)[0]
        with gold.open("a", encoding="utf-8") as handle:
            handle.write(first + "\n")
        number = len(read_lines(gold))
        output = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(fixture_tree["config"]), "--output", str(output)]) == 1
        article_id = json.loads(first)["article_id"]
        assert json.loads(capsys.readouterr().err) == {
            "error": "valueerror",
            "details": [f"{gold}:{number}: duplicate article_id {article_id!r}"],
        }
        assert not output.exists()

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"article_id": "a", "doc": "d", "label": 1}', "missing field 'entity'"),
            ("[1]", "not a JSON object (list)"),
            ("{torn", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ('{"article_id": "a", "doc": "d", "entity": "e", "label": 2}', "label must be 0 or 1, got 2"),
            (
                '{"article_id": null, "doc": "d", "entity": "e", "label": 1}',
                "article_id must be a non-empty string, got None",
            ),
            (
                '{"article_id": ["a"], "doc": "d", "entity": "e", "label": 1}',
                "article_id must be a non-empty string, got ['a']",
            ),
        ],
        ids=["missing-field", "not-an-object", "invalid-json", "bad-label", "id-null", "id-list"],
    )
    def test_bad_pairs_line_names_file_and_line(self, tmp_path, fixture_tree, line, problem, capsys):
        config = str(fixture_tree["config"])
        pairs = tmp_path / "pairs.jsonl"
        assert main(["generate-pairs", "--config", config, "--output", str(pairs)]) == 0
        lines = read_lines(pairs)
        lines.insert(3, line)
        pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        output = tmp_path / "training.json"
        assert main(["train", "--config", config, "--pairs", str(pairs), "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "valueerror",
            "details": [f"{pairs}:4: {problem}"],
        }
        assert not output.exists()


# Every command that reads the KB, with the output file flags it writes.
KB_COMMANDS = {
    "evaluate-1": ["evaluate", "--workers", "1", "--output", "{out}", "--trace", "{out}.trace"],
    "evaluate-2": ["evaluate", "--workers", "2", "--output", "{out}", "--trace", "{out}.trace"],
    "rank": ["rank", "--output", "{out}"],
    "generate-pairs": ["generate-pairs", "--output", "{out}"],
    "classify-categories": ["classify-categories", "--output", "{out}"],
    "train": ["train", "--output", "{out}", "--checkpoint", "{out}.npz"],
}


def dbpedia_value_without_value(url):
    page = url.rsplit("/", 1)[1].removesuffix(".json")
    node = {"http://dbpedia.org/ontology/country": [{"type": "uri"}]}
    return {f"http://dbpedia.org/resource/{page}": node}


# By the source whose records a run fetches: a part of the URLs that ask for
# them, and a payload (from the URL) without the shape the endpoint documents.
MALFORMED_PAYLOADS = {
    "wplink": ("list=search", lambda url: {"query": {"search": [{"pageid": 1}]}}),
    "wikidata": ("wikidata.org", lambda url: {"entities": []}),
    "dbpedia": ("dbpedia.org", dbpedia_value_without_value),
}

# The sources whose records the answer to a source's URLs fills: a search
# answers a title lookup (`wptitle`) and, with its page's id, a full one.
# A failed search leaves neither link record behind; `rank` links surfaces
# only for their titles, so its later run writes the title record alone.
UNCACHED_SOURCES = {"wplink": {"wplink", "wptitle"}, "wikidata": {"wikidata"}, "dbpedia": {"dbpedia"}}

# The commands that read each source's records; generate-pairs reads no DBpedia page.
MALFORMED_CASES = [
    pytest.param(command, source, id=f"{command}-{source}")
    for source in sorted(MALFORMED_PAYLOADS)
    for command in ["evaluate-1", "rank", "generate-pairs"]
    if (command, source) != ("generate-pairs", "dbpedia")
]


def answer_every_lookup_as_absent(monkeypatch):
    """Make the online KB answer 404 to every request, without waiting."""

    def absent(url):
        raise LookupError(url)

    monkeypatch.setattr("newsgeo.kb.default_transport", absent)
    monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)


class TestKbFailures:
    """A KB that cannot be asked fails the command; it is never scored as a miss."""

    def run(self, tmp_path, fixture_tree, command, cache, *flags):
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in KB_COMMANDS[command]]
        code = main([*argv, "--config", str(fixture_tree["config"]), "--cache", str(cache), *flags])
        assert code == 1
        assert not any(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", sorted(KB_COMMANDS))
    def test_unreachable_kb_is_a_remote_error(
        self, tmp_path, fixture_tree, command, monkeypatch, capsys
    ):
        def down(url):
            raise ConnectionError("connection refused")

        monkeypatch.setattr("newsgeo.kb.default_transport", down)
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        monkeypatch.setattr("newsgeo.kb.time.sleep", lambda seconds: None)
        self.run(tmp_path, fixture_tree, command, tmp_path / "empty.jsonl", "--network", "online")
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "remote-error"
        assert error["details"][0].startswith("https://")
        assert error["details"][0].endswith(": connection refused")

    @pytest.mark.parametrize("command, source", MALFORMED_CASES)
    def test_malformed_payload_is_a_remote_error_and_is_not_cached(
        self, tmp_path, fixture_tree, command, source, monkeypatch, capsys
    ):
        marker, malformed = MALFORMED_PAYLOADS[source]
        cache = tmp_path / "cache.jsonl"
        lines = read_lines(fixture_tree["cache"])
        cache.write_text(
            "".join(line + "\n" for line in lines if f'"source": "{source}",' not in line),
            encoding="utf-8",
        )
        asked = []

        def answer(payload):
            def transport(url):
                asked.append(url)
                if marker not in url or payload is None:
                    raise LookupError(url)
                return payload(url)

            monkeypatch.setattr("newsgeo.kb.default_transport", transport)

        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        answer(malformed)
        self.run(tmp_path, fixture_tree, command, cache, "--network", "online")
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "remote-error"
        url, reason = error["details"][0].split(": ", 1)
        assert url == asked[-1] and marker in url
        assert reason.startswith("malformed payload (")
        assert not any(key[0] in UNCACHED_SOURCES[source] for key in KbCache(cache).keys())

        # A later run whose KB answers (every page absent) fetches the key.
        asked.clear()
        answer(None)
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in KB_COMMANDS[command]]
        flags = ["--config", str(fixture_tree["config"]), "--cache", str(cache)]
        assert main([*argv, *flags, "--network", "online"]) == 0
        assert url in asked
        answered = {"wplink", "wptitle"} if (command, source) == ("rank", "wplink") else {source}
        assert any(key[0] in answered for key in KbCache(cache).keys())

    def test_generate_pairs_asks_dbpedia_nothing(
        self, tmp_path, fixture_tree, monkeypatch, capsys
    ):
        """Category locations come from WikiData claims alone, so a cache
        without DBpedia pages and a DBpedia that answers malformed payloads
        leave generate-pairs unchanged."""
        cache = tmp_path / "cache.jsonl"
        lines = read_lines(fixture_tree["cache"])
        cache.write_text(
            "".join(line + "\n" for line in lines if '"source": "dbpedia",' not in line),
            encoding="utf-8",
        )
        asked = []
        _, malformed = MALFORMED_PAYLOADS["dbpedia"]

        def transport(url):
            asked.append(url)
            return malformed(url)

        monkeypatch.setattr("newsgeo.kb.default_transport", transport)
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        flags = ["--config", str(fixture_tree["config"])]
        online, offline = tmp_path / "online.jsonl", tmp_path / "offline.jsonl"
        argv = ["generate-pairs", *flags, "--cache", str(cache), "--network", "online"]
        assert main([*argv, "--output", str(online)]) == 0
        assert main(["generate-pairs", *flags, "--output", str(offline)]) == 0
        assert asked == []
        assert online.read_bytes() == offline.read_bytes()
        assert not any(key[0] == "dbpedia" for key in KbCache(cache).keys())

    @pytest.mark.parametrize("command", sorted(KB_COMMANDS))
    def test_cache_without_link_records_is_a_cache_miss(
        self, tmp_path, fixture_tree, command, capsys
    ):
        cache = tmp_path / "no_links.jsonl"
        lines = read_lines(fixture_tree["cache"])
        cache.write_text(
            "".join(line + "\n" for line in lines if '"source": "wplink"' not in line),
            encoding="utf-8",
        )
        self.run(tmp_path, fixture_tree, command, cache)
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "cache-miss"
        assert error["details"][0].startswith("wplink:")

    @pytest.mark.parametrize("command", sorted(KB_COMMANDS))
    def test_a_failed_cache_write_fails_the_command(
        self, tmp_path, fixture_tree, command, monkeypatch, capsys
    ):
        answer_every_lookup_as_absent(monkeypatch)
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        self.run(tmp_path, fixture_tree, command, blocker / "kb_cache.jsonl", "--network", "online")
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "fileexistserror"
        assert str(blocker) in error["details"][0]


# Run `newsgeo.cli.main` on the arguments after the first in a fresh
# interpreter and report, as the last line of stdout, whether the module the
# first argument names was imported.
IMPORT_PROBE = """
import sys
from newsgeo.cli import main
code = main(sys.argv[2:])
print(sys.argv[1] in sys.modules)
sys.exit(code)
"""


def loads_module(tmp_path, fixture_tree, command, module):
    paths = {"out": tmp_path / "out", "articles_en": fixture_tree["articles_en"]}
    argv = [part.format(**paths) for part in command]
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, module, *argv, "--config", str(fixture_tree["config"])],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


class TestImports:
    """Commands that only read the corpus and the KB never load numpy, and
    serial commands never load the thread pool."""

    @pytest.mark.parametrize(
        "command, loads_numpy",
        [
            (["generate-pairs", "--output", "{out}"], False),
            (["generate-pairs", "--workers", "2", "--output", "{out}"], False),
            (["classify-categories", "--output", "{out}"], False),
            (["classify-categories", "--workers", "2", "--output", "{out}"], False),
            (["cache-export", "--output", "{out}"], False),
            (["ingest", "--input", "{articles_en}", "--language", "en", "--output", "{out}"], False),
            (["rank", "--output", "{out}"], True),
            (["evaluate", "--output", "{out}"], True),
            (["train", "--epochs", "1", "--output", "{out}"], True),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_numpy_only_in_commands_that_embed(self, tmp_path, fixture_tree, command, loads_numpy):
        assert loads_module(tmp_path, fixture_tree, command, "numpy") == loads_numpy

    @pytest.mark.parametrize("command", ["rank", "evaluate", "generate-pairs", "classify-categories"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_thread_pool_only_with_workers(self, tmp_path, fixture_tree, command, workers):
        argv = [command, "--workers", str(workers), "--output", "{out}"]
        assert loads_module(tmp_path, fixture_tree, argv, "concurrent.futures") == (workers > 1)


# Boundaries the benchmark's tracer wraps that the program no longer has at
# these names. A module that drops or renames another traced boundary makes
# the benchmark lose its span without an error.
KNOWN_MISSING_BOUNDARIES = {
    f"newsgeo.cli:{name}"
    for name in (
        "ensemble_spans", "build_candidate_pool", "rank_candidates", "ranked_predictor", "train"
    )
}

TRACER_PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_benchmark_tracer_finds_every_boundary():
    """The tracer patches module globals, so it is installed in its own interpreter."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", TRACER_PROBE],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    missing = json.loads(result.stdout.splitlines()[-1])
    assert set(missing) <= KNOWN_MISSING_BOUNDARIES
