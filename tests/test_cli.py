"""End-to-end command-line tests on the bundled fixture world.

Every command promises deterministic artifacts (sorted keys, stable record
order, no timestamps), so reruns and worker-count changes are compared
byte-for-byte rather than merely structurally.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

import numpy as np
import pytest

from newsgeo.cli import _effective_config, build_parser, cmd_cache_export, main
from newsgeo.config import PipelineConfig, load_config
from newsgeo.corpus import LocationTuple, load_corpus, render_location
from newsgeo.embedding import MockEmbedder
from newsgeo.kb import DBPEDIA_DATA_URL, WIKIDATA_ENTITY_URL, KbCache
from newsgeo.linking import PAGEPROPS_URL, SEARCH_URL
from newsgeo.locations import Resolver
from newsgeo.memo import article_index

from conftest import count_calls
from test_kb import wikidata_payload

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


def spoil_line(path: Path, number: int) -> None:
    """Put a 0xFF byte, which no UTF-8 text holds, into the first string
    value on line `number` of `path`."""
    lines = path.read_bytes().split(b"\n")
    assert b'": "' in lines[number - 1]
    lines[number - 1] = lines[number - 1].replace(b'": "', b'": "\xff', 1)
    path.write_bytes(b"\n".join(lines))


# The flags more than one command takes, and those each command takes.
SHARED_FLAGS = {"--config", "--cache", "--network", "--workers", "--corpus", "--seed", "--embedder"}
KB_FLAGS = {"--config", "--cache", "--network", "--workers", "--corpus"}
SHARED_FLAGS_BY_COMMAND = {
    "ingest": set(),
    "cache-export": {"--config", "--cache"},
    "classify-categories": KB_FLAGS,
    "generate-pairs": KB_FLAGS | {"--seed"},
    "rank": SHARED_FLAGS,
    "evaluate": SHARED_FLAGS,
    "train": SHARED_FLAGS,
}


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

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_positives_are_the_classified_locations(self, tmp_path, fixture_tree, workers):
        """Each article's label-1 texts are the rendered locations that
        classify-categories writes for it, though each command classifies
        the articles on its own."""
        pairs, classified = tmp_path / "pairs.jsonl", tmp_path / "classified.jsonl"
        argv = ["--config", str(fixture_tree["config"]), "--workers", workers]
        assert main(["generate-pairs", *argv, "--output", str(pairs)]) == 0
        assert main(["classify-categories", *argv, "--output", str(classified)]) == 0
        positives = {}
        for line in read_lines(pairs):
            pair = json.loads(line)
            if pair["label"] == 1:
                positives.setdefault(pair["article_id"], []).append(pair["entity"])
        rendered = {}
        for line in read_lines(classified):
            record = json.loads(line)
            texts = [render_location(LocationTuple.from_json(d)) for d in record["locations"]]
            if any(texts):
                rendered[record["article_id"]] = list(dict.fromkeys(filter(None, texts)))
        assert positives == rendered and rendered

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

    def test_mode_with_baseline_is_a_config_error(self, tmp_path, fixture_tree, capsys):
        """A baseline reads the modes it names, so --mode would be ignored."""
        report = tmp_path / "report.json"
        argv = ["evaluate", "--config", str(fixture_tree["config"]), "--baseline", "first-location"]
        assert main([*argv, "--mode", "non_locations", "--output", str(report)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config",
            "details": ["--mode: not used with --baseline, which reads the modes it names"],
        }
        assert not report.exists()

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["rank", "evaluate", "generate-pairs"])
    def test_program_defect_fails_the_command(
        self, tmp_path, fixture_tree, monkeypatch, command, workers, capsys
    ):
        """A prediction that raises is a failed run, never a scored miss, and
        every command names the article it failed on."""
        original = Resolver.locate_qid

        def broken(self, qid):
            if qid == "Q90":
                raise ValueError("injected defect")
            return original(self, qid)

        monkeypatch.setattr(Resolver, "locate_qid", broken)
        output = tmp_path / "out.json"
        argv = [command, "--config", str(fixture_tree["config"]), "--workers", workers]
        assert main([*argv, "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "valueerror",
            "details": ["article en-001: injected defect"],
        }
        assert not output.exists()


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

    def test_export_leaves_the_callers_network_unchanged(self, tmp_path, fixture_tree):
        config = load_config(fixture_tree["config"])._replace(network="online")
        args = argparse.Namespace(output=str(tmp_path / "snapshot.jsonl"))
        assert cmd_cache_export(args, config) == 0
        assert config.network == "online"

    def test_missing_cache_file_is_an_error(self, tmp_path, capsys):
        """A mistyped path is not an empty cache."""
        cache = tmp_path / "typo" / "kb_cache.jsonl"
        output = tmp_path / "snapshot.jsonl"
        assert main(["cache-export", "--cache", str(cache), "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "missing-file",
            "details": [f"no KB cache file {str(cache)!r}"],
        }
        assert not output.exists() and not cache.parent.exists()

    # Where the cache is read from, first to last: --cache, the config
    # file's `cache`, NEWSGEO_CACHE_DIR, and `kb_cache` in the working directory.
    CACHE_SOURCES = ["flag", "config", "environment", "default"]

    @pytest.mark.parametrize("source", CACHE_SOURCES)
    def test_cache_path_takes_the_first_source_set(
        self, tmp_path, fixture_tree, monkeypatch, source, capsys
    ):
        """Each source from `source` on is set, each to a cache of its own record."""
        monkeypatch.chdir(tmp_path)
        lines = read_lines(fixture_tree["cache"])
        caches = {name: tmp_path / name / "kb_cache.jsonl" for name in self.CACHE_SOURCES}
        caches["default"] = tmp_path / "kb_cache" / "kb_cache.jsonl"
        for line, cache in zip(lines, caches.values()):
            cache.parent.mkdir()
            cache.write_text(line + "\n", encoding="utf-8")
        given = self.CACHE_SOURCES[self.CACHE_SOURCES.index(source):]
        argv = ["cache-export", "--output", "snapshot.jsonl"]
        if "flag" in given:
            argv += ["--cache", str(caches["flag"])]
        if "config" in given:
            config = caches["config"].parent / "config.json"
            config.write_text(json.dumps({"cache": "kb_cache.jsonl"}), encoding="utf-8")
            argv += ["--config", str(config)]
        if "environment" in given:
            monkeypatch.setenv("NEWSGEO_CACHE_DIR", str(caches["environment"].parent))
        else:
            monkeypatch.delenv("NEWSGEO_CACHE_DIR", raising=False)
        assert main(argv) == 0
        assert "exported 1 cache entries" in capsys.readouterr().out
        exported = [json.loads(line)["key"] for line in read_lines(tmp_path / "snapshot.jsonl")]
        assert exported == [json.loads(caches[source].read_text(encoding="utf-8"))["key"]]


class TestFlags:
    def test_each_command_takes_the_shared_flags_it_reads(self):
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        taken = {
            command: SHARED_FLAGS & {flag for action in p._actions for flag in action.option_strings}
            for command, p in subparsers.choices.items()
        }
        assert taken == SHARED_FLAGS_BY_COMMAND
        assert sum(map(len, taken.values())) == 34

    @pytest.mark.parametrize(
        "argv",
        [
            [
                "ingest", "--input", "{articles_en}", "--language", "en", "--output", "{out}",
                "--corpus", "en=nonexistent.jsonl",
            ],
            ["cache-export", "--config", "{config}", "--output", "{out}", "--workers", "0"],
        ],
        ids=["ingest-corpus", "cache-export-workers"],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
        self, tmp_path, fixture_tree, argv, capsys
    ):
        output = tmp_path / "out.jsonl"
        paths = dict(out=output, articles_en=fixture_tree["articles_en"], config=fixture_tree["config"])
        with pytest.raises(SystemExit) as excinfo:
            main([part.format(**paths) for part in argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
        assert not output.exists()


class TestInvalidUtf8:
    """A byte that is not UTF-8 is reported as the bad file or line it is in."""

    def test_config_file(self, tmp_path, fixture_tree, capsys):
        spoil_line(fixture_tree["config"], 2)
        output = tmp_path / "out.jsonl"
        argv = ["cache-export", "--config", str(fixture_tree["config"]), "--output", str(output)]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert error["details"][0].startswith("config: invalid JSON ('utf-8' codec can't decode byte 0xff")
        assert not output.exists()

    def test_gazetteer(self, tmp_path, fixture_tree, capsys):
        gazetteer = fixture_tree["gazetteer"]
        spoil_line(gazetteer, 2)
        output = tmp_path / "out.jsonl"
        argv = ["rank", "--config", str(fixture_tree["config"]), "--output", str(output)]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert error["details"][0].startswith(
            f"ner_providers: gazetteer file {str(gazetteer)!r} is not valid JSON "
            "('utf-8' codec can't decode byte 0xff"
        )
        assert not output.exists()

    def test_gold_file(self, tmp_path, fixture_tree, capsys):
        gold = fixture_tree["gold"]
        spoil_line(gold, 2)
        output = tmp_path / "report.json"
        argv = ["evaluate", "--config", str(fixture_tree["config"]), "--output", str(output)]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "valueerror"
        assert error["details"][0].startswith(f"{gold}:2: 'utf-8' codec can't decode byte 0xff")
        assert not output.exists()

    def test_pairs_file(self, tmp_path, fixture_tree, capsys):
        config, pairs = str(fixture_tree["config"]), tmp_path / "pairs.jsonl"
        assert main(["generate-pairs", "--config", config, "--output", str(pairs)]) == 0
        capsys.readouterr()
        spoil_line(pairs, 2)
        output = tmp_path / "report.json"
        argv = ["train", "--config", config, "--pairs", str(pairs), "--output", str(output)]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "valueerror"
        assert error["details"][0].startswith(f"{pairs}:2: 'utf-8' codec can't decode byte 0xff")
        assert not output.exists()

    def test_corpus_line_is_skipped(self, tmp_path, fixture_tree):
        first, second = read_lines(fixture_tree["articles_en"])
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([first, second, "{torn"]) + "\n", encoding="utf-8")
        spoil_line(corpus, 1)
        articles, report = load_corpus(corpus, "en")
        assert [article.id for article in articles] == [json.loads(second)["id"]]
        assert (len(articles), report.skipped) == (1, 2)
        assert report.warnings[0].startswith(
            "line 1: invalid JSON ('utf-8' codec can't decode byte 0xff"
        )
        assert report.warnings[1].startswith("line 3: invalid JSON (")


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

    def test_repeated_corpus_language_is_a_config_error(self, tmp_path, fixture_tree, capsys):
        """A second file for one language would replace the first."""
        english, german = str(fixture_tree["articles_en"]), str(fixture_tree["articles_de"])
        output = tmp_path / "ranking.jsonl"
        argv = ["rank", "--config", str(fixture_tree["config"])]
        argv += ["--corpus", f"en={english}", "--corpus", f"en={german}"]
        assert main([*argv, "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config",
            "details": [f"corpus: language 'en' given twice ({english!r} and {german!r})"],
        }
        assert not output.exists()

    @pytest.mark.parametrize(
        "command", ["rank", "evaluate", "classify-categories", "generate-pairs", "train"]
    )
    def test_cache_only_run_without_a_cache_file_is_missing_file(
        self, tmp_path, fixture_tree, command, capsys
    ):
        """A mistyped cache path is not a cache that misses every key."""
        cache = tmp_path / "typo" / "kb_cache.jsonl"
        output = tmp_path / "out.json"
        argv = [command, "--config", str(fixture_tree["config"]), "--network", "cache-only"]
        assert main([*argv, "--cache", str(cache), "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "missing-file",
            "details": [f"no KB cache file {str(cache)!r}"],
        }
        assert not output.exists() and not cache.parent.exists()

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

    @pytest.mark.parametrize("command", ["rank", "evaluate"])
    @pytest.mark.parametrize(
        "source, key, edit, problem",
        [
            ("wikidata", "Q90", lambda v: v.update(qid="X9"), "malformed WikiData id 'X9'"),
            ("wikidata", "Q90", lambda v: v.update(p17=""), "p17 must be a list of item ids, got ''"),
            (
                "wikidata",
                "Q90",
                lambda v: v.update(p17="Q142"),
                "p17 must be a list of item ids, got 'Q142'",
            ),
            (
                "dbpedia",
                "en:Eiffel Tower",
                lambda v: v["properties"].update(location="Paris"),
                "property 'location' must be a list of strings, got 'Paris'",
            ),
            (
                "wplink",
                "en:Eiffel Tower",
                lambda v: v.update(page_title=5),
                "page title must be a string, got 5",
            ),
        ],
        ids=[
            "wikidata-qid", "wikidata-p17-empty", "wikidata-p17-id", "dbpedia-property", "wplink-title"
        ],
    )
    def test_a_field_of_the_wrong_type_fails_the_command(
        self, tmp_path, fixture_tree, command, source, key, edit, problem, capsys
    ):
        """A cached record whose field has the wrong type is corrupt: it is
        neither scored nor read as something else."""
        cache = tmp_path / "kb_cache.jsonl"
        lines = read_lines(fixture_tree["cache"])
        wanted = f'{{"source": "{source}", "key": "{key}",'
        number = next(i for i, line in enumerate(lines, 1) if line.startswith(wanted))
        record = json.loads(lines[number - 1])
        edit(record["value"])
        lines[number - 1] = json.dumps(record, ensure_ascii=False)
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        output = tmp_path / "out.json"
        argv = [command, "--config", str(fixture_tree["config"]), "--cache", str(cache)]
        assert main([*argv, "--output", str(output)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "valueerror",
            "details": [f"{cache}:{number}: bad cache record ({problem})"],
        }
        assert not output.exists()

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
            ("corpus", {"en": "missing.jsonl"}, "corpus[en]: no such file '{dir}/missing.jsonl'"),
            ("gold", "missing.jsonl", "gold: no such file '{dir}/missing.jsonl'"),
            ("chunking_mode", "sentences", "chunking_mode: unknown mode 'sentences'"),
            ("representation_modes", ["all"], "representation_modes: unknown mode 'all'"),
            ("representation_modes", [], "representation_modes: at least one mode required"),
            ("max_depth", 0, "max_depth: must be >= 1"),
            ("embedder", "openai:x", "embedder: unknown provider kind 'openai'"),
            ("ner_providers", ["flair"], "ner_providers: unknown provider kind 'flair'"),
        ],
        ids=[
            "mock-abc", "mock-1", "missing-gazetteer", "corpus-pt", "loss-nan", "loss-inf",
            "missing-corpus", "missing-gold", "chunking-mode", "representation-mode",
            "no-representation-mode", "max-depth-0", "embedder-kind", "ner-kind",
        ],
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

    def test_seed_and_embedder_flags_override_the_config(self, fixture_tree):
        argv = ["rank", "--config", str(fixture_tree["config"]), "--output", "out.jsonl"]
        args = build_parser().parse_args([*argv, "--seed", "7", "--embedder", "mock:8"])
        config = _effective_config(args)
        assert (config.seed, config.loss.seed, config.embedder) == (7, 7, "mock:8")

    def test_flags_leave_the_default_configuration_unchanged(self, fixture_tree):
        """Every PipelineConfig() shares its default dict and lists, so a
        flag builds a new configuration and changes none of them."""
        corpus = str(fixture_tree["articles_en"])
        for language, modes, epochs in [("en", ["non_locations"], 2), ("fr", ["only_locations"], 5)]:
            args = argparse.Namespace(
                config=None, corpus=[f"{language}={corpus}"], mode=modes, epochs=epochs
            )
            config = _effective_config(args)
            assert (config.corpus, config.representation_modes, config.loss.epochs) == (
                {language: corpus}, modes, epochs
            )
        default = PipelineConfig()
        assert (default.corpus, default.ner_providers, default.loss.epochs) == ({}, [], 32)
        assert default.representation_modes == ["only_locations", "located_non_locations"]

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

    def test_a_claim_target_that_is_not_an_item_id_is_a_remote_error(
        self, tmp_path, fixture_tree, monkeypatch, capsys
    ):
        """An item located in "X9" is a malformed payload: it is not cached,
        and evaluate fails instead of scoring the articles that reach it as misses."""
        cache = tmp_path / "cache.jsonl"
        lines = read_lines(fixture_tree["cache"])
        cache.write_text(
            "".join(line + "\n" for line in lines if '"source": "wikidata",' not in line),
            encoding="utf-8",
        )

        def transport(url):
            if "wikidata.org" not in url:
                raise LookupError(url)
            qid = url.rsplit("/", 1)[1].removesuffix(".json")
            return wikidata_payload(qid, {"en": qid}, p131=["X9"])

        monkeypatch.setattr("newsgeo.kb.default_transport", transport)
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        self.run(tmp_path, fixture_tree, "evaluate-1", cache, "--network", "online")
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "remote-error"
        assert error["details"][0].endswith("(ValueError: malformed WikiData id 'X9')")
        assert not any(source == "wikidata" for source, _ in KbCache(cache).keys())

    def test_a_pageprops_id_that_is_not_an_item_id_is_a_remote_error(
        self, tmp_path, fixture_tree, monkeypatch, capsys
    ):
        """A page whose WikiData id is "X9" is a malformed payload: no link is
        cached, and evaluate fails instead of scoring the article as a miss."""
        cache = tmp_path / "cache.jsonl"
        lines = read_lines(fixture_tree["cache"])
        cache.write_text(
            "".join(line + "\n" for line in lines if '"source": "wplink",' not in line),
            encoding="utf-8",
        )
        asked = []

        def transport(url):
            asked.append(url)
            query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
            if "srsearch" in query:
                return {"query": {"search": [{"title": query["srsearch"][0]}]}}
            if "titles" in query:
                return {"query": {"pages": {"1": {"pageprops": {"wikibase_item": "X9"}}}}}
            raise LookupError(url)

        monkeypatch.setattr("newsgeo.kb.default_transport", transport)
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        self.run(tmp_path, fixture_tree, "evaluate-1", cache, "--network", "online")
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "remote-error"
        reason = "malformed payload (ValueError: malformed WikiData id 'X9')"
        assert error["details"][0] == f"{asked[-1]}: {reason}"
        assert "prop=pageprops" in asked[-1]
        assert not any(source == "wplink" for source, _ in KbCache(cache).keys())

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(KB_COMMANDS))
    def test_cache_without_link_records_is_a_cache_miss(
        self, tmp_path, fixture_tree, command, workers, capsys
    ):
        """A KB error keeps its own error and detail at any worker count."""
        cache = tmp_path / "no_links.jsonl"
        lines = read_lines(fixture_tree["cache"])
        cache.write_text(
            "".join(line + "\n" for line in lines if '"source": "wplink"' not in line),
            encoding="utf-8",
        )
        self.run(tmp_path, fixture_tree, command, cache, "--workers", workers)
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
# interpreter and report, as the last line of stdout, which of the modules the
# first argument names (comma-separated) were imported and how many threads
# the command started.
IMPORT_PROBE = """
import json, sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda thread: (started.append(thread.name), start(thread))[-1]
from newsgeo.cli import main
code = main(sys.argv[2:])
loaded = [name for name in sys.argv[1].split(",") if name in sys.modules]
print(json.dumps({"modules": loaded, "threads": len(started)}))
sys.exit(code)
"""

# The modules of the KB clients, the linker, the resolver and NER.
KB_LAYERS = ("newsgeo.kb", "newsgeo.linking", "newsgeo.locations")
LAYERS = (*KB_LAYERS, "newsgeo.ner")


def run_probe(tmp_path, fixture_tree, command, modules) -> dict:
    """The `modules` a command loaded and the threads it started, in a fresh interpreter."""
    paths = {
        "out": tmp_path / "out",
        "articles_en": fixture_tree["articles_en"],
        "pairs": tmp_path / "pairs.jsonl",
        "nameless": tmp_path / "nameless.jsonl",
        "nameless_gold": tmp_path / "nameless_gold.jsonl",
    }
    # One article that names no gazetteer entry, so it yields no candidate,
    # with the gold locations of another.
    article = dict(
        id="en-quiet", lang="en", title="Quiet day",
        text="Quiet day\nnothing of note was reported today.", categories=[], mentions=[], url=None,
    )
    gold = json.loads(read_lines(fixture_tree["gold"])[0]) | {"article_id": article["id"]}
    paths["nameless"].write_text(json.dumps(article) + "\n", encoding="utf-8")
    paths["nameless_gold"].write_text(json.dumps(gold) + "\n", encoding="utf-8")
    argv = [part.format(**paths) for part in command]
    if command[0] != "ingest":  # the one command that reads no config
        argv += ["--config", str(fixture_tree["config"])]
    if "{pairs}" in command:
        config = str(fixture_tree["config"])
        assert main(["generate-pairs", "--config", config, "--output", str(paths["pairs"])]) == 0
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable, "-c", IMPORT_PROBE, ",".join(modules), *argv,
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_modules(tmp_path, fixture_tree, command, modules) -> set[str]:
    return set(run_probe(tmp_path, fixture_tree, command, modules)["modules"])


def loads_module(tmp_path, fixture_tree, command, module) -> bool:
    return module in loaded_modules(tmp_path, fixture_tree, command, [module])


# Each probed command, with whether it loads numpy.
PROBED_COMMANDS = [
    (["generate-pairs", "--output", "{out}"], False),
    (["generate-pairs", "--workers", "2", "--output", "{out}"], False),
    (["classify-categories", "--output", "{out}"], False),
    (["classify-categories", "--workers", "2", "--output", "{out}"], False),
    (["cache-export", "--output", "{out}"], False),
    (["ingest", "--input", "{articles_en}", "--language", "en", "--output", "{out}"], False),
    pytest.param(
        ["evaluate", "--baseline", "first-location", "--output", "{out}"], False,
        id="evaluate-baseline-first-location-False",
    ),
    pytest.param(
        ["evaluate", "--baseline", "first-location-located", "--output", "{out}"], False,
        id="evaluate-baseline-first-location-located-False",
    ),
    pytest.param(
        ["rank", "--corpus", "en={nameless}", "--output", "{out}"], False,
        id="rank-no-candidate-False",
    ),
    pytest.param(
        ["evaluate", "--corpus", "en={nameless}", "--gold", "{nameless_gold}", "--output", "{out}"],
        False,
        id="evaluate-no-candidate-False",
    ),
    (["rank", "--output", "{out}"], True),
    (["evaluate", "--output", "{out}"], True),
    (["train", "--epochs", "1", "--output", "{out}"], True),
]


def probe_id(value):
    return value[0] if isinstance(value, list) else None


class TestImports:
    """Commands that only read the corpus and the KB never load numpy, no
    command loads dataclasses, and each command loads only the KB and NER
    layers it runs."""

    @pytest.mark.parametrize("command, loads_numpy", PROBED_COMMANDS, ids=probe_id)
    def test_numpy_only_in_commands_that_embed(self, tmp_path, fixture_tree, command, loads_numpy):
        """numpy loads at a command's first vector: a baseline never embeds,
        and an article that names no gazetteer entry yields no candidate."""
        assert loads_module(tmp_path, fixture_tree, command, "numpy") == loads_numpy
        if "{nameless_gold}" in command:
            report = json.loads((tmp_path / "out").read_text(encoding="utf-8"))
            assert (report["country"]["macro"], report["city"]["macro"]) == (0.0, 0.0)

    @pytest.mark.parametrize("command, loads_numpy", PROBED_COMMANDS, ids=probe_id)
    def test_no_command_loads_dataclasses(self, tmp_path, fixture_tree, command, loads_numpy):
        """The record types are NamedTuples or slotted classes: importing
        dataclasses and building its generated methods would cost every
        command start-up time."""
        assert not loads_module(tmp_path, fixture_tree, command, "dataclasses")

    @pytest.mark.parametrize(
        "command, layers",
        [
            (["train", "--pairs", "{pairs}", "--epochs", "1", "--output", "{out}"], ()),
            (["ingest", "--input", "{articles_en}", "--language", "en", "--output", "{out}"], ()),
            (["cache-export", "--output", "{out}"], ("newsgeo.kb",)),
            (["generate-pairs", "--output", "{out}"], KB_LAYERS),
            (["classify-categories", "--output", "{out}"], KB_LAYERS),
            (["train", "--epochs", "1", "--output", "{out}"], KB_LAYERS),
            (["evaluate", "--output", "{out}"], LAYERS),
            (["rank", "--output", "{out}"], LAYERS),
            (["evaluate", "--baseline", "first-location", "--output", "{out}"], LAYERS),
        ],
        ids=lambda value: "-".join(p.lstrip("-") for p in value[:2]) if isinstance(value, list) else None,
    )
    def test_layers_only_in_commands_that_run_them(self, tmp_path, fixture_tree, command, layers):
        assert loaded_modules(tmp_path, fixture_tree, command, LAYERS) == set(layers)


class TestThreads:
    """`workers` is the most articles in flight while some wait on the KB: a
    run that the cache answers stays on one thread, and one that fetches
    starts more without changing its output."""

    @pytest.mark.parametrize("command", ["rank", "evaluate", "generate-pairs", "classify-categories"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_warm_run_starts_no_thread(self, tmp_path, fixture_tree, command, workers):
        argv = [command, "--workers", workers, "--output", "{out}"]
        probe = run_probe(tmp_path, fixture_tree, argv, ["concurrent.futures"])
        assert probe == {"modules": [], "threads": 0}

    @pytest.mark.parametrize("command", ["rank", "evaluate-1", "generate-pairs"])
    def test_an_online_run_starts_threads_and_keeps_its_output(
        self, tmp_path, fixture_tree, command, monkeypatch
    ):
        """The WikiData records are fetched again, from payloads that hold
        what the fixture records hold."""
        payloads = {}
        for line in read_lines(fixture_tree["cache"]):
            record = json.loads(line)
            if record["source"] == "wikidata":
                item = record["value"]
                for qid, label in item["p31"]:
                    payloads.setdefault(qid, wikidata_payload(qid, {"en": label}))
                payloads[item["qid"]] = wikidata_payload(
                    item["qid"], item["labels"], item["p17"], [qid for qid, _ in item["p31"]],
                    item["p131"],
                )

        def transport(url):
            qid = url.rsplit("/", 1)[1].removesuffix(".json")
            if "wikidata.org" not in url or qid not in payloads:
                raise LookupError(url)
            return payloads[qid]

        monkeypatch.setattr("newsgeo.kb.default_transport", transport)
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        started = count_calls(monkeypatch, threading.Thread, "start")
        warm = tmp_path / "warm"
        flags = ["--config", str(fixture_tree["config"])]
        argv = [arg.format(out=warm) for arg in KB_COMMANDS[command]]
        assert main([*argv, *flags]) == 0
        assert started == []
        lines = read_lines(fixture_tree["cache"])
        for workers in ("1", "2"):
            cache = tmp_path / f"cache-{workers}.jsonl"
            cache.write_text(
                "".join(line + "\n" for line in lines if '"source": "wikidata",' not in line),
                encoding="utf-8",
            )
            out = tmp_path / f"out-{workers}"
            argv = [arg.format(out=out) for arg in KB_COMMANDS[command]]
            online = ["--cache", str(cache), "--network", "online", "--workers", workers]
            assert main([*argv, *flags, *online]) == 0
            assert bool(started) == (workers == "2")
            assert out.read_bytes() == warm.read_bytes()


class RemoteFixtureKb:
    """A transport that answers, after `delay` seconds, what the fixture
    cache's `wplink`, `dbpedia` and `wikidata` records hold, and 404 to any
    other request. It logs each request's URL, start, end and article index."""

    def __init__(self, lines: list[str], delay: float):
        self.delay = delay
        self.requests: list[tuple[str, float, float, int | None]] = []
        self._lock = threading.Lock()
        self._payloads: dict[str, object] = {}
        for line in lines:
            record = json.loads(line)
            source, value = record["source"], record["value"]
            if source == "wplink" and value["page_title"] is not None:
                language, title = value["language"], value["page_title"]
                search = SEARCH_URL.format(lang=language, query=urllib.parse.quote(value["surface"]))
                self._payloads[search] = {"query": {"search": [{"title": title}]}}
                pageprops = PAGEPROPS_URL.format(lang=language, title=urllib.parse.quote(title))
                page = {"pageprops": {"wikibase_item": value["qid"]}} if value["qid"] else {}
                self._payloads[pageprops] = {"query": {"pages": {"1": page}}}
            elif source == "wikidata":
                for qid, label in value["p31"]:
                    self._payloads.setdefault(
                        WIKIDATA_ENTITY_URL.format(qid=qid), wikidata_payload(qid, {"en": label})
                    )
                self._payloads[WIKIDATA_ENTITY_URL.format(qid=value["qid"])] = wikidata_payload(
                    value["qid"], value["labels"], value["p17"],
                    [qid for qid, _ in value["p31"]], value["p131"],
                )
            elif source == "dbpedia":
                page = urllib.parse.quote(value["title"].replace(" ", "_"))
                node = {
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type": [
                        {"type": "uri", "value": f"http://dbpedia.org/ontology/{name}"}
                        for name in value["ontology_types"]
                    ],
                    **{
                        f"http://dbpedia.org/ontology/{name}": [
                            {"type": "literal", "value": text} for text in texts
                        ]
                        for name, texts in value["properties"].items()
                    },
                }
                if value["abstract"] is not None:
                    node["http://dbpedia.org/ontology/abstract"] = [
                        {"type": "literal", "lang": value["language"], "value": value["abstract"]}
                    ]
                url = DBPEDIA_DATA_URL.format(lang=value["language"], title=page)
                self._payloads[url] = {f"http://dbpedia.org/resource/{page}": node}

    def __call__(self, url):
        start = time.perf_counter()
        time.sleep(self.delay)
        with self._lock:
            self.requests.append((url, start, time.perf_counter(), article_index()))
        if url not in self._payloads:
            raise LookupError(url)
        return self._payloads[url]

    def overlapping_articles(self) -> set[int | None]:
        """The articles two of whose requests were in flight at once."""
        found = set()
        for a, (_, start_a, end_a, article) in enumerate(self.requests):
            for _, start_b, end_b, other in self.requests[a + 1:]:
                if article == other and start_a < end_b and start_b < end_a:
                    found.add(article)
        return found


class TestColdRun:
    """A run that fetches every record sends an article's candidate-pool
    lookups side by side, without changing what it writes or asks for."""

    REMOTE_SOURCES = ('"source": "wplink",', '"source": "dbpedia",', '"source": "wikidata",')

    def run(self, tmp_path, fixture_tree, monkeypatch, name, argv):
        """Run `argv` online on a copy of the fixture cache without the remote
        records; the output, the cache's keys and the transport."""
        lines = read_lines(fixture_tree["cache"])
        cache = tmp_path / f"cache-{name}.jsonl"
        cache.write_text(
            "".join(
                line + "\n" for line in lines if not any(s in line for s in self.REMOTE_SOURCES)
            ),
            encoding="utf-8",
        )
        remote = RemoteFixtureKb(lines, delay=0.01)
        monkeypatch.setattr("newsgeo.kb.default_transport", remote)
        out = tmp_path / f"out-{name}"
        flags = ["--config", str(fixture_tree["config"]), "--cache", str(cache)]
        assert main([*argv, *flags, "--network", "online", "--output", str(out)]) == 0
        return out.read_bytes(), set(KbCache(cache).keys()), remote

    @pytest.mark.parametrize("command", ["evaluate", "rank"])
    def test_worker_counts_keep_the_output_and_overlap_an_articles_lookups(
        self, tmp_path, fixture_tree, monkeypatch, command
    ):
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        # Abstracts of the location spans: several pool lookups per article.
        argv = [command, "--mode", "location_abstracts", "--mode", "located_non_locations"]
        warm = tmp_path / "warm"
        assert main([*argv, "--config", str(fixture_tree["config"]), "--output", str(warm)]) == 0
        runs = {
            workers: self.run(tmp_path, fixture_tree, monkeypatch, workers, [*argv, "--workers", workers])
            for workers in ("1", "2", "4")
        }
        for output, keys, remote in runs.values():
            assert output == warm.read_bytes()
            assert keys == runs["1"][1]
            urls = [url for url, *_ in remote.requests]
            assert len(urls) == len(set(urls)) == len(runs["1"][2].requests)
        assert runs["1"][2].overlapping_articles() == set()
        assert runs["2"][2].overlapping_articles() - {None}

    def test_a_first_mention_baseline_asks_no_more_at_two_workers(
        self, tmp_path, fixture_tree, monkeypatch
    ):
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        argv = ["evaluate", "--baseline", "first-location-located", "--workers"]
        outputs, asked = set(), {}
        for workers in ("1", "2"):
            output, _, remote = self.run(
                tmp_path, fixture_tree, monkeypatch, workers, [*argv, workers]
            )
            outputs.add(output)
            asked[workers] = len(remote.requests)
        assert len(outputs) == 1
        assert 0 < asked["2"] <= asked["1"]


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
