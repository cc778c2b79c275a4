"""Benchmark the newsgeo command line on a seeded synthetic news world.

    python3 perfbench/run.py --workload newswire --seed 1 --seconds 55 --trace 0

Run from the repository root. The harness generates the workload's world
from the seed, then drives the ``newsgeo`` commands from outside, each in a
fresh interpreter, one at a time: a set-up probe (``evaluate`` over one
article without entities), ``evaluate``, ``rank``, ``generate-pairs`` and
``train`` for each loss. It repeats that round until ``--seconds`` have
passed (at least two rounds). A reference probe (``calibrate.py``) runs
before and after every command, and each command's busy time is rescaled by
how much slower than usual the probe ran around it (``at_reference_speed``).
Throughput is a command's work over its median rescaled time; set-up time is
the median rescaled time of the set-up probe.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it runs one untraced round and two traced rounds instead and
reports per-layer metrics from spans recorded inside each command. Every
output is checked; a failed check prints the reason to stderr and exits 1
without a result line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import percentile, self_times  # noqa: E402
from workloads import BATCH_SIZE, LOSSES, PLANS, world_for  # noqa: E402

CHILD_TIMEOUT_S = 150
# One BLAS thread per command: the load stays one thread of one process (a
# second kb-cold worker aside), and a BLAS call split over both vCPUs of a
# shared host waits for whichever of them another tenant is slowing.
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Metric names and units are those of BENCHMARK.json, beside this directory.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


@dataclasses.dataclass
class Phase:
    """One command of a round: its newsgeo arguments, the file it writes and
    how many items (documents, or epochs for ``train``) it works through."""

    name: str
    command: list[str]
    output: str
    items: int


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.plan = PLANS[workload]
        self.work = work
        self.world = world_for(workload, seed)
        self.dir = work / "world"
        self.world.write(self.dir, network="online" if self.plan.cold else "cache-only",
                         workers=2 if self.plan.cold else 1)
        self.validate_world()
        self.languages = {a["id"]: a["lang"] for a in self.world.articles}
        self.gold = {g["article_id"]: g["locations"] for g in self.world.gold}
        self.truth = self.world.truth_by_text()
        texts = {a["text"]: a["id"] for a in self.world.articles}
        (self.dir / "texts.json").write_text(json.dumps(texts, ensure_ascii=False), encoding="utf-8")
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.phase_counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])

    # -- world ---------------------------------------------------------------

    def validate_world(self) -> None:
        """Every article passes ``Article.validate`` and every gold location
        resolves, through a cache-only resolver, to itself."""
        from newsgeo.corpus import Article
        from newsgeo.kb import CACHE_ONLY, DbpediaClient, KbCache, WikidataClient, forbidden_transport
        from newsgeo.linking import WikipediaLinker
        from newsgeo.locations import Resolver

        for record in self.world.articles:
            Article.from_json(record).validate()
        cache = KbCache(self.dir / "kb_cache.jsonl")
        clients = dict(policy=CACHE_ONLY, transport=forbidden_transport)
        resolver = Resolver(WikidataClient(cache, **clients), DbpediaClient(cache, **clients),
                            WikipediaLinker(cache, **clients))
        seen = set()
        for row in self.world.gold:
            for location in row["locations"]:
                if location["city_qid"] in seen:
                    continue
                seen.add(location["city_qid"])
                found = resolver.locate_qid(location["city_qid"])
                if found is None or found.to_json() != location:
                    raise CheckFailed(f"world: gold {location} resolves to {found}")

    # -- phases --------------------------------------------------------------

    def phases(self, round_: int) -> list[Phase]:
        cfg = ["--config", "config.json"]
        setup_cache: list[str] = []
        cold: list[str] = []
        if self.plan.cold:
            for name in ("setup", "cold"):
                (self.dir / f"{name}-{round_}").mkdir(exist_ok=True)
            setup_cache = ["--cache", f"setup-{round_}/kb_cache.jsonl"]
            cold = ["--cache", f"cold-{round_}/kb_cache.jsonl"]
        phases = [
            Phase("setup", ["evaluate", *cfg, *setup_cache, "--corpus", "en=setup_articles.jsonl",
                            "--gold", "setup_gold.jsonl"], f"setup-{round_}.json", 1),
            Phase("evaluate", ["evaluate", *cfg, *cold], f"report-{round_}.json", len(self.world.articles)),
            Phase("rank", ["rank", *cfg, *cold], f"ranked-{round_}.jsonl", len(self.world.articles)),
            Phase("pairs", ["generate-pairs", *cfg, *cold], f"pairs-{round_}.jsonl", len(self.world.articles)),
        ]
        for loss in LOSSES:
            epochs = self.plan.train[loss][1]
            phases.append(Phase(
                f"train.{loss}",
                ["train", *cfg, "--pairs", f"pairs_{loss}.jsonl", "--loss", loss, "--epochs", str(epochs),
                 "--patience", str(epochs), "--batch-size", str(BATCH_SIZE)],
                f"train-{loss}-{round_}.json", epochs,
            ))
        return phases

    def run_phase(self, phase: Phase, round_: int, trace_out: str | None = None) -> dict[str, Any]:
        argv = [sys.executable, str(HERE / "child.py")]
        if self.plan.cold:
            argv += ["--sim", f"{self.workload}:{self.seed}"]
        if trace_out:
            argv += ["--trace-out", trace_out, "--texts", "texts.json"]
        argv += ["--", *phase.command, "--output", phase.output]
        code, wall, cpu, rss_mb, stderr = run_child(argv, self.dir)
        counts = self.phase_counts[phase.name]
        attempted, failed = phase.items, 0
        if code != 0:
            failed = phase.items
            sys.stderr.write(stderr[-2000:])
        elif phase.name == "evaluate":
            report = json.loads((self.dir / phase.output).read_text(encoding="utf-8"))
            failed = sum(1 for entry in report["trace"] if entry["error"] is not None)
        elif phase.name.startswith("train."):
            report = json.loads((self.dir / phase.output).read_text(encoding="utf-8"))
            failed = phase.items - report["epochs_run"]
        counts[0] += attempted
        counts[1] += attempted - failed
        counts[2] += failed
        self.attempted += attempted
        self.failed += failed
        if code != 0:
            raise CheckFailed(f"{phase.name}: command exited {code}")
        self.check(phase)
        return dict(wall=wall, cpu=cpu, rss_mb=rss_mb)

    # -- checks --------------------------------------------------------------

    def check(self, phase: Phase) -> None:
        data = (self.dir / phase.output).read_bytes()
        if phase.name not in self.first:
            self.first[phase.name] = data
            self.first_check(phase, data)
        checks.identical(phase.name, self.first[phase.name], data)

    def first_check(self, phase: Phase, data: bytes) -> None:
        if phase.name == "evaluate":
            report = json.loads(data)
            checks.recount_p1(report, self.gold, self.languages)
            if self.plan.cold:
                self.check_warm_equivalence(data)
        elif phase.name == "rank":
            report = json.loads(self.first["evaluate"])
            ranked = [json.loads(line) for line in data.decode("utf-8").splitlines()]
            checks.predictions_follow_ranking(report, ranked, self.truth, self.languages)
        elif phase.name == "pairs":
            self.split_pairs(data)
        elif phase.name.startswith("train."):
            loss = phase.name[6:]
            checks.training_report(json.loads(data), loss, self.plan.train[loss][1])

    def check_warm_equivalence(self, cold_report: bytes) -> None:
        """The cache a cold run filled must give the same report, byte for
        byte, as the generator's warm cache."""
        command = ["evaluate", "--config", "config.json", "--network", "cache-only", "--cache", "kb_cache.jsonl",
                   "--output", "warm.json"]
        code, _, _, _, stderr = run_child([sys.executable, str(HERE / "child.py"), "--", *command], self.dir)
        if code != 0:
            raise CheckFailed(f"warm-cache evaluate exited {code}: {stderr[-500:]}")
        checks.identical("evaluate (cold cache vs generator's warm cache)",
                         cold_report, (self.dir / "warm.json").read_bytes())

    def split_pairs(self, data: bytes) -> None:
        """Write each loss's training set: whole documents, in corpus order,
        until the loss has the number of items its plan asks for."""
        by_document: dict[str, list[dict]] = defaultdict(list)
        for line in data.decode("utf-8").splitlines():
            pair = json.loads(line)
            by_document[pair["article_id"]].append(pair)
        for loss in LOSSES:
            wanted, _ = self.plan.train[loss]
            chosen, items = [], 0
            for pairs in by_document.values():
                positives = sum(p["label"] == 1 for p in pairs)
                negatives = len(pairs) - positives
                gain = {"triplet": min(positives, negatives), "infonce": positives}.get(loss, len(pairs))
                if gain == 0:
                    continue
                chosen += pairs
                items += gain
                if items >= wanted:
                    break
            if items < wanted:
                raise CheckFailed(f"pairs: only {items} {loss} items, the plan needs {wanted}")
            (self.dir / f"pairs_{loss}.jsonl").write_text(
                "".join(json.dumps(p, ensure_ascii=False) + "\n" for p in chosen), encoding="utf-8")

    # -- runs ----------------------------------------------------------------

    def calibrate(self) -> float:
        """Wall seconds of one run of the reference probe (``calibrate.py``)."""
        code, wall, _, _, stderr = run_child([sys.executable, str(HERE / "calibrate.py")], self.dir)
        if code != 0:
            raise CheckFailed(f"calibrate.py exited {code}: {stderr[-500:]}")
        return wall

    def measure(self, seconds: float) -> dict[str, Any]:
        """Repeat rounds of every phase for about `seconds` (at least two
        rounds); a round starts only if half of it fits before the deadline.
        The reference probe runs between commands, and each command's time
        is taken at the mean speed of the probes just before and after it."""
        samples: dict[str, list[dict[str, Any]]] = defaultdict(list)
        probes: list[float] = []
        peaks: list[float] = []
        started = time.perf_counter()
        round_s = 0.0
        round_ = 0
        while round_ < 2 or time.perf_counter() - started + round_s / 2 < seconds:
            round_start = time.perf_counter()
            peak = 0.0
            for phase in self.phases(round_):
                probes.append(self.calibrate())
                sample = self.run_phase(phase, round_)
                sample["probe"] = len(probes) - 1
                samples[phase.name].append(sample)
                peak = max(peak, sample["rss_mb"])
            peaks.append(peak)
            round_s = time.perf_counter() - round_start
            round_ += 1
        probes.append(self.calibrate())
        for values in samples.values():
            for sample in values:
                before, after = probes[sample["probe"]], probes[sample["probe"] + 1]
                sample["slowdown"] = (before + after) / 2 / REFERENCE_S
        times = {name: [at_reference_speed(s["wall"], s["cpu"], s["slowdown"]) for s in values]
                 for name, values in samples.items()}
        report = json.loads(self.first["evaluate"])

        def per_second(phase: str, items: int) -> float:
            return items / statistics.median(times[phase])

        metrics = {
            "setup_s": statistics.median(times["setup"]),
            "peak_rss_mb": statistics.median(peaks),
            "evaluate.docs_per_s": per_second("evaluate", len(self.world.articles)),
            "evaluate.p1_country_macro": report["country"]["macro"],
            "evaluate.p1_city_macro": report["city"]["macro"],
            "rank.docs_per_s": per_second("rank", len(self.world.articles)),
            "pairs.docs_per_s": per_second("pairs", len(self.world.articles)),
        }
        for loss in LOSSES:
            metrics[f"train.epoch_s.{loss}"] = 1 / per_second(f"train.{loss}", self.plan.train[loss][1])
        for name, values in samples.items():
            walls = ",".join(f"{s['wall']:.4f}" for s in values)
            cpus = ",".join(f"{s['cpu']:.4f}" for s in values)
            slowdowns = ",".join(f"{s['slowdown']:.4f}" for s in values)
            print(f"phase {name}: n={len(values)} "
                  f"attempted/succeeded/failed={'/'.join(map(str, self.phase_counts[name]))} "
                  f"wall={walls} cpu={cpus} slowdown={slowdowns} "
                  f"at_reference={','.join(f'{v:.4f}' for v in times[name])}")
        return {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}

    def trace(self) -> dict[str, Any]:
        """One untraced round, then two traced rounds whose counters must agree."""
        untraced = [self.run_phase(phase, 0)["wall"] for phase in self.phases(0)]
        rounds = []
        for round_ in (1, 2):
            walls, payloads = [], []
            for index, phase in enumerate(self.phases(round_)):
                out = self.work / f"spans-{index}-{round_}.json"
                walls.append(self.run_phase(phase, round_, trace_out=str(out))["wall"])
                payloads.append(json.loads(out.read_text(encoding="utf-8")))
                if round_ == 1:
                    times, covered = self_times(payloads[-1]["spans"])
                    times["cli.other"] = payloads[-1]["wall_s"] - covered
                    top = sorted(times.items(), key=lambda kv: -kv[1])[:4]
                    print(f"{phase.name}: top self time " + ", ".join(f"{n}={v:.3f}s" for n, v in top)
                          + f"; dominant layer group after set-up: {dominant_group(times)}")
            rounds.append((walls, layer_metrics(payloads)))
        (walls_1, (counts_1, times_1, table_1)), (walls_2, (counts_2, times_2, _)) = rounds
        # With two workers, both threads can miss the same key at once and
        # both fetch it, so remote and cache traffic may differ between runs.
        racy = RACY_COUNTERS if self.plan.cold else ()
        diff = {name: (counts_1[name], counts_2[name]) for name in counts_1
                if name not in racy and counts_1[name] != counts_2[name]}
        if diff:
            raise CheckFailed(f"trace: counters differ between traced runs: {diff}")
        metrics = dict(counts_1)
        for name in times_1:
            metrics[name] = (times_1[name] + times_2[name]) / 2
        base = sum(untraced)
        metrics["trace.overhead_share"] = ((sum(walls_1) + sum(walls_2)) / 2 - base) / base
        print("layer self time (s), first traced round: " + ", ".join(
            f"{name}={value:.3f}" for name, value in sorted(table_1.items(), key=lambda kv: -kv[1])))
        groups = {group: sum(table_1.get(name, 0.0) for name in names) for group, names in LAYER_GROUPS.items()}
        ranked = sorted(groups.items(), key=lambda kv: -kv[1])
        print("layer groups (s), first traced round: " + ", ".join(f"{g}={v:.3f}" for g, v in ranked))
        print(f"dominant layer group after set-up: {dominant_group(table_1)}")
        return {name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in sorted(metrics.items())}


# The reference probe's wall time on a quiet host: about its fastest run on
# the 2-vCPU virtual machine (Xeon at 2.0 GHz) the benchmark was tuned on.
REFERENCE_S = 0.2


def at_reference_speed(wall: float, cpu: float, slowdown: float) -> float:
    """A command's wall time with its busy share run at the reference speed.

    Other tenants of a shared host slow the CPU down for seconds to minutes
    at a time (a command's CPU time grows with its wall time), but not the
    time a command waits, so only the share of the wall time in which the
    command kept a CPU busy is divided by the slowdown the probes around it
    found.
    """
    busy = min(cpu / wall, 1.0) if wall > 0 else 0.0
    return wall * (1 - busy) + wall * busy / slowdown


# Per-layer time metric -> span names whose self times it sums.
TIME_LAYERS = {
    "ner.s": ("ner.ensemble", "ner.gazetteer"),
    "embedding.embed_s": ("embedding.embed",),
    "ranking.rank_s": ("ranking.rank",),
    "embedding.chunk_s": ("embedding.chunk",),
    "kb.s": ("kb.wikidata", "kb.dbpedia", "kb.wplink"),
    "locations.implicit_locate.s": ("locations.implicit_locate",),
    "locations.locate_qid.s": ("locations.locate_qid",),
    "ranking.pool_s": ("ranking.pool",),
    "ranking.predict_s": ("ranking.predict", "ranking.resolve_span"),
    "kb.rate_limit_wait_s": ("kb.rate_limit_wait",),
    "kb.transport_s": ("kb.transport",),
    "kb.cache_put_s": ("kb.cache_put",),
    "kb.cache_load_s": ("kb.cache_load",),
    "corpus.load_s": ("corpus.load",),
    **{f"training.loss_grad_s.{loss}": (f"training.loss_grad.{loss}",) for loss in LOSSES},
    "training.train_s": ("training.train",),
    "training.pairs_s": ("training.pairs",),
    "evaluation.score_s": ("evaluation.score",),
}
COUNTERS = (
    "ner.calls", "ner.spans", "ner.bytes", "embedding.embed_calls", "embedding.texts",
    "embedding.token_count_calls", "kb.lookups.wikidata", "kb.lookups.dbpedia", "kb.lookups.wplink",
    "kb.cache_gets", "locations.implicit_locate.calls", "locations.locate_qid.calls", "ranking.fallthroughs",
    "kb.remote_fetches", "kb.remote_retries", "kb.remote_failed", "kb.cache_puts", "training.feature_embeds",
    *(f"training.loss_grad_calls.{loss}" for loss in LOSSES),
)


# Span names by layer family, for the dominant-layer summary of a traced run.
LAYER_GROUPS = {
    "set-up": ("cli.other", "kb.cache_load", "corpus.load"),
    "ner": ("ner.ensemble", "ner.gazetteer"),
    "kb lookups": ("kb.wikidata", "kb.dbpedia", "kb.wplink", "kb.cache_put",
                   "locations.implicit_locate", "locations.locate_qid"),
    "kb remote waits": ("kb.rate_limit_wait", "kb.transport"),
    "embedding+ranking": ("embedding.embed", "embedding.embed_document", "embedding.chunk", "ranking.rank",
                          "ranking.pool", "ranking.predict", "ranking.resolve_span", "evaluation.predict"),
    "training": ("training.train", "training.feature_embed", "training.pairs",
                 *(f"training.loss_grad.{loss}" for loss in LOSSES)),
}


def dominant_group(table: dict[str, float]) -> str:
    """The layer group, set-up aside, with the most self time in `table`."""
    groups = {group: sum(table.get(name, 0.0) for name in names)
              for group, names in LAYER_GROUPS.items() if group != "set-up"}
    return max(groups, key=groups.get)


RACY_COUNTERS = (
    "kb.remote_fetches", "kb.remote_retries", "kb.cache_puts", "kb.cache_gets",
    "kb.lookups.wikidata", "kb.lookups.dbpedia", "kb.lookups.wplink", "kb.unique_key_ratio",
)


def layer_metrics(payloads: list[dict[str, Any]]) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Deterministic counts, per-layer self times and the full self-time table
    of one traced round (every command of the round summed)."""
    counters: dict[str, int] = defaultdict(int)
    unique: dict[str, int] = defaultdict(int)
    table: dict[str, float] = defaultdict(float)
    missing: set[str] = set()
    other = 0.0
    latencies: list[float] = []
    for payload in payloads:
        for name, value in payload["counters"].items():
            counters[name] += value
        for name, value in payload["unique"].items():
            unique[name] += value
        missing.update(payload["missing"])
        times, covered = self_times(payload["spans"])
        for name, value in times.items():
            table[name] += value
        other += payload["wall_s"] - covered
        latencies += [(end - start) * 1000 for name, start, end, *_ in payload["spans"]
                      if name == "evaluation.predict"]
    counts: dict[str, float] = {name: counters.get(name, 0) for name in COUNTERS}
    lookups = sum(counters.get(f"kb.lookups.{s}", 0) for s in ("wikidata", "dbpedia", "wplink"))
    calls = counters.get("locations.implicit_locate.calls", 0)
    doc_calls = counters.get("embedding.doc_chunk_calls", 0)
    loads = counters.get("kb.cache_loads", 0)
    counts.update({
        "embedding.unique_text_ratio": ratio(unique.get("embedding.texts", 0), counters.get("embedding.texts", 0)),
        "kb.unique_key_ratio": ratio(unique.get("kb.keys", 0), lookups),
        "locations.implicit_locate.located_ratio": ratio(counters.get("locations.implicit_locate.located", 0), calls),
        "embedding.chunks_per_doc": ratio(counters.get("embedding.doc_chunks", 0), doc_calls),
        "kb.cache_entries": ratio(counters.get("kb.cache_entries", 0), loads),
        "evaluation.doc_latency_samples": len(latencies),
        "trace.missing_boundaries": len(missing),
    })
    if missing:
        print("trace: missing layer boundaries: " + ", ".join(sorted(missing)))
    times = {name: sum(table.get(span, 0.0) for span in spans) for name, spans in TIME_LAYERS.items()}
    times["cli.other_s"] = other
    times["evaluation.doc_latency_p50_ms"] = percentile(latencies, 50)
    times["evaluation.doc_latency_p99_ms"] = percentile(latencies, 99)
    table["cli.other"] = other
    return counts, times, dict(table)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_child(argv: list[str], cwd: Path) -> tuple[int, float, float, float, str]:
    """Run one command to completion; returns (exit code, wall seconds, CPU
    seconds, peak RSS in MB of that process, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ONE_THREAD)
    err_path = cwd / "stderr.txt"
    with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return (proc.returncode, wall, cpu, usage.ru_maxrss / 1024,
            err_path.read_text(encoding="utf-8", errors="replace"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "newsgeo" / "cli.py").is_file():
        print(f"newsgeo sources not found under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work)
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    expected = PER_LAYER_UNITS if args.trace else END_TO_END
    if set(metrics) != set(expected):
        print(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    # The worlds are built so that no document fails; any failure is a defect.
    correct = bench.failed == 0
    print(json.dumps(dict(correct=correct, attempted=bench.attempted, failed=bench.failed, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
