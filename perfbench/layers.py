"""Which public functions the traced run wraps, and the per-layer metrics
it derives from their spans.

Each function is wrapped under the name its caller looks it up by: the
compilers, ``sem_minimize`` and the savers as ``semrag.pipeline`` imports
them, ``khop_expand``, ``embed_text``, ``evidence_record``, ``build_prompt``
and ``lookup_cell`` as ``semrag.query_engine`` imports them, and methods on
their classes. ``embed_text`` is wrapped only while questions run, so its
build-time calls stay inside ``index_vectors``.
"""

from __future__ import annotations

import statistics


def _patches(semrag, phase: str) -> list[tuple]:
    pipeline, engine = semrag.pipeline, semrag.query_engine
    if phase == "build":
        return [
            (semrag.doc_model, "load_document", "doc_model.load_document"),
            (pipeline, "build_bundle", "pipeline.build_bundle"),
            (pipeline, "compile_text", "layout_compiler.compile_text"),
            (pipeline, "compile_table", "layout_compiler.compile_table"),
            (pipeline, "compile_formula", "formula_compiler.compile_formula"),
            (pipeline, "link_symbol_definitions", "formula_compiler.link_symbol_definitions"),
            (pipeline, "merge_units", "graph_core.merge_units"),
            (pipeline, "sem_minimize", "sem_index.sem_minimize"),
            (pipeline, "materialize_macronodes", "sem_index.materialize_macronodes"),
            (pipeline, "summarize_with", "llm_clients.summarize_with"),
            (pipeline, "train_alignment", "pipeline.train_alignment"),
            (pipeline, "index_vectors", "query_engine.index_vectors"),
            (pipeline, "save_graph", "graph_core.save_graph"),
            (pipeline, "save_vectors", "vector_align.save_vectors"),
        ]
    if phase == "open":
        return [
            (pipeline, "load_bundle", "pipeline.load_bundle"),
            (pipeline, "load_graph", "graph_core.load_graph"),
            (pipeline, "load_vectors", "vector_align.load_vectors"),
            (pipeline, "make_engine", "pipeline.make_engine"),
        ]
    qe = engine.QueryEngine
    return [
        (qe, "answer", "query_engine.answer"),
        (qe, "features", "query_engine.features"),
        (qe, "entity_count", "query_engine.gazetteer"),
        (qe, "entity_matches", "query_engine.gazetteer"),
        (qe, "search", "query_engine.search"),
        (engine, "embed_text", "vector_align.embed_text"),
        (engine, "khop_expand", "graph_core.khop_expand"),
        (engine, "evidence_record", "query_engine.evidence_record"),
        (engine, "build_prompt", "query_engine.build_prompt"),
        (engine, "lookup_cell", "layout_compiler.lookup_cell"),
        (semrag.llm_clients.OfflineLlmClient, "generate", "llm_clients.generate"),
    ]


def install(tracer, semrag, phase: str) -> None:
    budget = semrag.graph_core.DEFAULT_KHOP_BUDGET

    def khop_counts(t, subgraph) -> None:
        t.count("khop_nodes", len(subgraph.nodes))
        t.count("khop_budget_cuts", len(subgraph.nodes) >= budget)

    for owner, attr, name in _patches(semrag, phase):
        tracer.patch(owner, attr, name,
                     khop_counts if name == "graph_core.khop_expand" else None)


# (metric, span, phase) for self times; build and open per build or open,
# question spans in ms per question.
BUILD_TIMES = (
    ("doc_model.load_document_s", "doc_model.load_document"),
    ("layout_compiler.compile_text_s", "layout_compiler.compile_text"),
    ("layout_compiler.compile_table_s", "layout_compiler.compile_table"),
    ("formula_compiler.compile_formula_s", "formula_compiler.compile_formula"),
    ("formula_compiler.link_symbol_definitions_s",
     "formula_compiler.link_symbol_definitions"),
    ("graph_core.merge_units_s", "graph_core.merge_units"),
    ("sem_index.sem_minimize_s", "sem_index.sem_minimize"),
    ("sem_index.materialize_macronodes_s", "sem_index.materialize_macronodes"),
    ("llm_clients.summarize_with_s", "llm_clients.summarize_with"),
    ("query_engine.index_vectors_s", "query_engine.index_vectors"),
    ("graph_core.save_graph_s", "graph_core.save_graph"),
    ("vector_align.save_vectors_s", "vector_align.save_vectors"),
    ("pipeline.build_bundle_self_s", "pipeline.build_bundle"),
)
OPEN_TIMES = (
    ("pipeline.load_bundle_self_s", "pipeline.load_bundle"),
    ("graph_core.load_graph_s", "graph_core.load_graph"),
    ("vector_align.load_vectors_s", "vector_align.load_vectors"),
    ("pipeline.make_engine_s", "pipeline.make_engine"),
)
QUESTION_TIMES = (
    ("query_engine.features_self_ms", "query_engine.features"),
    ("query_engine.gazetteer_ms", "query_engine.gazetteer"),
    ("query_engine.search_ms", "query_engine.search"),
    ("vector_align.embed_text_ms", "vector_align.embed_text"),
    ("query_engine.evidence_record_ms", "query_engine.evidence_record"),
    ("query_engine.build_prompt_ms", "query_engine.build_prompt"),
    ("llm_clients.generate_ms", "llm_clients.generate"),
    ("query_engine.answer_self_ms", "query_engine.answer"),
)


def per_layer(runner) -> dict:
    """Per-layer metrics of a traced run: {name: (value, unit)}."""
    tracer, facts = runner.tracer, runner.facts
    build, _, builds = tracer.self_times("bench.build")
    opened, _, opens = tracer.self_times("bench.open")
    asked, calls, questions = tracer.self_times("bench.question")
    looked, _, lookups = tracer.self_times("bench.lookup")
    out: dict[str, tuple[float, str]] = {}
    for metric, span in BUILD_TIMES:
        out[metric] = (build.get(span, 0.0) / builds, "s")
    # zero on a workload built without alignment: the build never calls it
    out["pipeline.train_alignment_s"] = (
        build.get("pipeline.train_alignment", 0.0) / builds, "s")
    out["graph_core.nodes"] = (facts.nodes, "count")
    out["graph_core.edges"] = (facts.edges, "count")
    out["sem_index.communities"] = (facts.communities, "count")
    out["sem_index.dendrogram_merges"] = (facts.dendrogram_merges, "count")
    for metric, span in OPEN_TIMES:
        out[metric] = (opened.get(span, 0.0) / opens, "s")
    for metric, span in QUESTION_TIMES:
        out[metric] = (1000.0 * asked.get(span, 0.0) / questions, "ms/question")
    out["query_engine.search_calls"] = (
        calls.get("query_engine.search", 0) / questions, "calls/question")
    out["vector_align.embed_text_calls"] = (
        calls.get("vector_align.embed_text", 0) / questions, "calls/question")
    khop_calls = max(calls.get("graph_core.khop_expand", 0), 1)
    out["graph_core.khop_expand_ms"] = (
        1000.0 * asked.get("graph_core.khop_expand", 0.0) / max(runner.med_traced, 1),
        "ms/med_question")
    out["graph_core.khop_nodes"] = (tracer.counts.get("khop_nodes", 0) / khop_calls,
                                    "nodes/call")
    out["graph_core.khop_budget_cuts"] = (
        tracer.counts.get("khop_budget_cuts", 0) / khop_calls, "ratio")
    out["layout_compiler.lookup_cell_ms"] = (
        1000.0 * looked.get("layout_compiler.lookup_cell", 0.0) / lookups, "ms/lookup")

    # the traced run against the untraced parts of the same process; the
    # layer self times plus the unaccounted time below add up to the mean
    # traced time, so they account for the mean untraced time within this
    out["trace.build_overhead_s"] = (
        statistics.fmean(runner.build_s[True]) - statistics.fmean(runner.build_s[False]),
        "s")
    out["trace.setup_overhead_s"] = (
        statistics.fmean(runner.open_s[True]) - statistics.fmean(runner.open_s[False]),
        "s")
    out["trace.question_overhead_ms"] = (
        1000.0 * (statistics.fmean(runner.question_s[True])
                  - statistics.fmean(runner.question_s[False])), "ms/question")
    # time inside the root spans that no listed layer accounts for
    out["trace.build_unaccounted_s"] = (build.get("bench.build", 0.0) / builds, "s")
    out["trace.setup_unaccounted_s"] = (opened.get("bench.open", 0.0) / opens, "s")
    out["trace.question_unaccounted_ms"] = (
        1000.0 * asked.get("bench.question", 0.0) / questions, "ms/question")
    out["bench.question_cpu_per_wall"] = (runner.loop_cpu / runner.loop_wall, "ratio")
    return out
