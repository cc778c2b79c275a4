"""End-to-end command-line tests on the bundled fixture world.

Every command promises deterministic artifacts (sorted keys, stable record
order, no timestamps), so reruns and worker-count changes are compared
byte-for-byte rather than merely structurally.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from newsgeo.cli import main


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

    def test_non_object_lines_are_skipped(self, tmp_path, fixture_tree, capsys):
        clean_lines = read_lines(fixture_tree["articles_en"])
        messy = tmp_path / "messy.jsonl"
        messy.write_text("\n".join(["[1, 2]", *clean_lines, '"x"']) + "\n", encoding="utf-8")
        output = tmp_path / "clean.jsonl"
        code = main(["ingest", "--input", str(messy), "--language", "en", "--output", str(output)])
        assert code == 0
        assert f"loaded {len(clean_lines)} articles, skipped 2" in capsys.readouterr().out
        assert read_lines(output) == clean_lines

    def test_idempotent_on_its_own_output(self, tmp_path, fixture_tree):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        source = str(fixture_tree["articles_de"])
        assert main(["ingest", "--input", source, "--language", "de", "--output", str(first)]) == 0
        assert main(["ingest", "--input", str(first), "--language", "de", "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

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
        stdout = capsys.readouterr().out
        assert "Documents" in stdout
        assert "Total" in stdout


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
    def test_precomputed_category_locations_match_internal(self, tmp_path, fixture_tree, capsys):
        config = str(fixture_tree["config"])
        categories = tmp_path / "category_locations.jsonl"
        internal = tmp_path / "pairs_internal.jsonl"
        precomputed = tmp_path / "pairs_precomputed.jsonl"
        assert main(["classify-categories", "--config", config, "--output", str(categories)]) == 0
        assert main(["generate-pairs", "--config", config, "--output", str(internal)]) == 0
        assert (
            main(
                [
                    "generate-pairs",
                    "--config",
                    config,
                    "--category-locations",
                    str(categories),
                    "--output",
                    str(precomputed),
                ]
            )
            == 0
        )
        assert internal.read_bytes() == precomputed.read_bytes()
        stdout = capsys.readouterr().out
        assert "(10 positive, 5 negative)" in stdout
        assert len(read_lines(internal)) == 15


class TestRank:
    def test_worker_count_does_not_change_output(self, tmp_path, fixture_tree):
        config = str(fixture_tree["config"])
        serial = tmp_path / "serial.jsonl"
        threaded = tmp_path / "threaded.jsonl"
        assert main(["rank", "--config", config, "--workers", "1", "--output", str(serial)]) == 0
        assert main(["rank", "--config", config, "--workers", "4", "--output", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

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


# Every command that reads the KB, with the output file flags it writes.
KB_COMMANDS = {
    "evaluate-1": ["evaluate", "--workers", "1", "--output", "{out}", "--trace", "{out}.trace"],
    "evaluate-2": ["evaluate", "--workers", "2", "--output", "{out}", "--trace", "{out}.trace"],
    "rank": ["rank", "--output", "{out}"],
    "generate-pairs": ["generate-pairs", "--output", "{out}"],
    "classify-categories": ["classify-categories", "--output", "{out}"],
    "train": ["train", "--output", "{out}", "--checkpoint", "{out}.npz"],
}


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
        def down(url, params=None):
            raise ConnectionError("connection refused")

        monkeypatch.setattr("newsgeo.kb.default_transport", down)
        monkeypatch.setattr("newsgeo.kb.RateLimiter.wait", lambda self: None)
        monkeypatch.setattr("newsgeo.kb.time.sleep", lambda seconds: None)
        self.run(tmp_path, fixture_tree, command, tmp_path / "empty.jsonl", "--network", "online")
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "remote-error"
        assert error["details"][0].startswith("https://")
        assert error["details"][0].endswith(": connection refused")

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
