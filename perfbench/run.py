#!/usr/bin/env python3
"""Build, open and query semrag bundles on a generated workload.

    python3 perfbench/run.py --workload many-docs --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process is one closed-loop client. It writes the workload's
documents, then for ``--seconds`` of wall time builds a bundle from them
(what ``semrag index`` does), opens it (what every ``semrag query`` pays)
and asks the workload's questions and header lookups in seeded shuffled
rounds, the next only when the previous answer is back. Later builds and
opens are spread over the window between the rounds. Every output is
checked against the generator's record; a failed check or an exception
counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run of the same workload, together with the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import checks
import layers
import workload
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Builds (B) and opens (O) of one run, in order. The first build is
# checked in full; the events after it are spread evenly over the rest of
# the run, with question rounds between them, so that drift in machine
# speed during a run falls alike on builds, opens and questions.
SCHEDULE = {"many-docs": "BOOOOOOOOOO", "tables-formulas": "BOOBOOBOOBOOBOO"}
# At least ten answered questions must lie beyond the 95th percentile.
MIN_QUESTIONS = 200


class Ops:
    """Attempted and failed operations by kind, with the reasons."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.problems: list[str] = []

    def record(self, kind: str, problems: list[str]) -> bool:
        self.attempted[kind] += 1
        if problems:
            self.failed[kind] += 1
            self.problems += [f"{kind}: {p}" for p in problems[:5]]
        return not problems


def write_corpus(w, corpus: Path) -> None:
    corpus.mkdir(parents=True)
    for doc in w.documents:
        (corpus / f"{doc['id']}.json").write_text(json.dumps(doc), "utf-8")
    (corpus / "gazetteer.json").write_text(json.dumps(w.gazetteer), "utf-8")


def index_corpus(semrag, corpus: Path, out: Path, config):
    """Read the corpus files and build a bundle, as ``semrag index`` does."""
    docs = [
        semrag.doc_model.load_document(path.read_bytes())
        for path in sorted(corpus.glob("*.json"))
        if path.name != "gazetteer.json"
    ]
    gazetteer = json.loads((corpus / "gazetteer.json").read_text("utf-8"))
    return semrag.pipeline.build_bundle(docs, gazetteer, out, config=config)


def open_engine(semrag, bundle_dir: Path):
    bundle = semrag.pipeline.load_bundle(bundle_dir)
    return bundle, semrag.pipeline.make_engine(bundle)


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / 1e6


def ms(seconds: float) -> float:
    return seconds * 1000.0


class Runner:
    """One run: the scheduled builds and opens with question rounds between.

    With a tracer, every build and open is done twice, and every question
    and lookup asked twice in a row, untraced and traced in alternating
    order, so that the machine's drift falls alike on both and their
    difference is the tracing overhead.
    """

    def __init__(self, semrag, w, seed: int, seconds: float, work: Path, tracer=None):
        self.semrag, self.w, self.seconds, self.work = semrag, w, seconds, work
        self.tracer = tracer
        self.ops = Ops()
        self.config = semrag.pipeline.PipelineConfig(align=w.align)
        self.llm = None
        self.bundle_dir = work / "bundle"
        self.facts = None
        self.manifest = None
        self.engine = None
        self.build_s: dict[bool, list[float]] = {False: [], True: []}
        self.open_s: dict[bool, list[float]] = {False: [], True: []}
        self.question_s: dict[bool, list[float]] = {False: [], True: []}
        self.by_route: dict[str, list[float]] = {"low": [], "med": [], "high": []}
        self.lookups: list[float] = []
        self.prompts: list[int] = []
        self.quality: dict[str, list[int]] = {}  # kind -> [asked, hits, correct]
        self.med_traced = 0
        self.rounds = 0
        self.loop_cpu = self.loop_wall = 0.0
        self.order_rng = random.Random(f"order:{w.name}:{seed}")

    def modes(self, n: int) -> list[bool]:
        return [False] if self.tracer is None else [n % 2 == 1, n % 2 == 0]

    def timed(self, on: bool, phase: str, root: str, call):
        """``call()`` and its wall time; with ``on``, under traced wrappers."""
        if on:
            layers.install(self.tracer, self.semrag, phase)
        try:
            with self.tracer.span(f"bench.{root}") if on else nullcontext():
                start = time.perf_counter()
                result = call()
                return result, time.perf_counter() - start
        finally:
            if on:
                self.tracer.uninstall()

    def run(self, corpus: Path) -> None:
        deadline = time.perf_counter() + self.seconds
        events = SCHEDULE[self.w.name]
        self.build(0, corpus)
        if self.facts is None:
            raise RuntimeError("the first build failed: " + "; ".join(self.ops.problems))
        start = time.perf_counter()
        rest = events[1:]
        for j, event in enumerate(rest):
            due = start + (deadline - start) * j / len(rest)
            while self.engine is not None and time.perf_counter() < due:
                self.ask_round()
            if event == "B":
                self.build(j + 1, corpus)
            else:
                self.open(j + 1)
        if self.engine is None:
            raise RuntimeError("the last open failed: " + "; ".join(self.ops.problems))
        while (self.rounds < len(self.w.rounds)
               or sum(map(len, self.by_route.values())) < MIN_QUESTIONS
               or time.perf_counter() < deadline):
            self.ask_round()

    def build(self, event: int, corpus: Path) -> None:
        """Read the corpus files and build a bundle, as ``semrag index`` does."""
        self.engine = None  # a user's build runs without an open engine
        for on in self.modes(event):
            out = self.bundle_dir if self.facts is None else self.work / "rebuild"
            gc.collect()
            try:
                bundle, elapsed = self.timed(on, "build", "build", lambda: index_corpus(
                    self.semrag, corpus, out, self.config))
            except Exception as exc:  # a build that raises is a failed operation
                self.ops.record("build", [repr(exc)])
                continue
            self.build_s[on].append(elapsed)
            merges, communities = len(bundle.index.dendrogram), len(bundle.index.communities)
            del bundle
            manifest = (out / "manifest.json").read_bytes()
            if self.facts is None:
                facts, problems = checks.check_bundle(self.w, out)
                facts.dendrogram_merges = merges
                if communities != facts.communities:
                    problems.append("bundle and index.json disagree on the community count")
                self.facts, self.manifest = facts, manifest
            else:
                problems = [] if manifest == self.manifest else [
                    "manifest differs from the first build of the same corpus"]
                shutil.rmtree(out)
            self.ops.record("build", problems)

    def open(self, event: int) -> None:
        """``load_bundle`` plus ``make_engine``, what every ``semrag query`` pays."""
        for on in self.modes(event):
            self.engine = None
            gc.collect()
            try:
                (bundle, engine), elapsed = self.timed(on, "open", "open", lambda: (
                    open_engine(self.semrag, self.bundle_dir)))
            except Exception as exc:
                self.ops.record("open", [repr(exc)])
                continue
            self.open_s[on].append(elapsed)
            counts = (len(bundle.graph.nodes), len(bundle.graph.edges))
            built = (self.facts.nodes, self.facts.edges)
            if self.ops.record("open", [] if counts == built else [
                    f"opened graph has {counts}, built graph had {built}"]):
                self.engine, self.llm = engine, bundle.clients.llm

    def ask_round(self) -> None:
        """One seeded shuffle of the next round, the next item only when the
        previous answer is back."""
        w, facts, engine = self.w, self.facts, self.engine
        no_evidence = self.semrag.llm_clients.NO_EVIDENCE_ANSWER
        count_tokens = self.semrag.llm_clients.count_tokens
        first_pass = self.rounds < len(w.rounds)
        items = list(w.rounds[self.rounds % len(w.rounds)])
        self.order_rng.shuffle(items)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for n, item in enumerate(items):
            kind = "lookup" if isinstance(item, workload.Lookup) else "question"
            for on in self.modes(n):
                try:
                    if kind == "lookup":
                        result, elapsed = self.timed(on, "question", kind, lambda: (
                            engine.lookup(item.row_path, item.col_path)))
                    else:
                        result, elapsed = self.timed(on, "question", kind, lambda: (
                            engine.answer(item.text, self.llm)))
                except Exception as exc:
                    self.ops.record(kind, [repr(exc)])
                    continue
                if kind == "lookup":
                    if self.ops.record(kind, checks.check_lookup(w, facts, item, result)):
                        self.lookups.append(elapsed)
                    continue
                if not self.ops.record(kind, checks.check_answer(
                        w, facts, result, engine.config.khop, no_evidence)):
                    continue
                self.question_s[on].append(elapsed)
                if on:
                    self.med_traced += result.route == "med"
                    continue
                self.by_route[result.route].append(elapsed)
                self.prompts.append(count_tokens(result.prompt))
                if first_pass:
                    tally = self.quality.setdefault(item.kind, [0, 0, 0])
                    hit, right = checks.gold(w, facts, item, result)
                    tally[0] += 1
                    tally[1] += hit
                    tally[2] += right
        self.loop_cpu += time.process_time() - cpu0
        self.loop_wall += time.perf_counter() - wall0
        self.rounds += 1


def end_to_end(runner: Runner) -> dict:
    facts, quality = runner.facts, runner.quality.values()
    answered = [t for v in runner.by_route.values() for t in v]
    for route, times in runner.by_route.items():
        if not times:
            raise RuntimeError(f"no question took the {route} route")
    return {
        "setup_s": (statistics.median(runner.open_s[False]), "s"),
        "build_s": (statistics.median(runner.build_s[False]), "s"),
        "low_p50_ms": (ms(statistics.median(runner.by_route["low"])), "ms"),
        "med_p50_ms": (ms(statistics.median(runner.by_route["med"])), "ms"),
        "high_p50_ms": (ms(statistics.median(runner.by_route["high"])), "ms"),
        "lookup_p50_ms": (ms(statistics.median(runner.lookups)), "ms"),
        "query_p95_ms": (ms(statistics.quantiles(answered, n=20)[18]), "ms"),
        "queries_per_s": (len(answered) / sum(answered), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bundle_mb": (dir_mb(runner.bundle_dir), "MB"),
        "index_tokens": (facts.index_tokens, "tokens"),
        "prompt_tokens": (statistics.fmean(runner.prompts), "tokens"),
        "evidence_hits": (sum(t[1] for t in quality), "count"),
        "answers_correct": (sum(t[2] for t in quality), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("many-docs", "tables-formulas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semrag" / "__init__.py").is_file():
        print(f"no semrag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semrag
    import semrag.pipeline  # noqa: F401  (modules the benchmark calls by name)

    w = workload.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        write_corpus(w, work / "corpus")
        runner = Runner(semrag, w, args.seed, args.seconds, work, tracer)
        runner.run(work / "corpus")
        metrics = end_to_end(runner) if tracer is None else layers.per_layer(runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    ops = runner.ops
    for kind in ("build", "open", "question", "lookup"):
        print(f"{kind:>9}: {ops.attempted[kind]} attempted, {ops.failed[kind]} failed")
    routes = {route: len(v) for route, v in runner.by_route.items()}
    print(f"   rounds: {runner.rounds}, untraced answers by route {routes}")
    for kind, (asked, hits, right) in sorted(runner.quality.items()):
        print(f"  quality: {kind}: {asked} asked, {hits} evidence hits, {right} correct")
    for line in ops.problems[:20]:
        print(f"  problem: {line}", file=sys.stderr)
    attempted = sum(ops.attempted.values())
    failed = sum(ops.failed.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
