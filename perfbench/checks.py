"""Output checks: the program's results against the generator's record and
against properties the method must have.

Every check returns a list of problems; an empty list means the output
passed. Nothing here compares against a saved copy of earlier output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from workload import Workload, cell_key

ENTROPY_TOLERANCE = 1e-9  # h1, h2 in index.json against the benchmark's recomputation
VALUE_TOLERANCE = 1e-9  # relative, equation values


# --- the benchmark's own expression evaluator -------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z][A-Za-z0-9_]*)|(.))")
_CALLS = {"log2": math.log2, "log": math.log, "sqrt": math.sqrt, "exp": math.exp,
          "abs": abs, "max": max, "min": min}


def evaluate_text(text: str, env: dict[str, float]) -> float:
    """Value of a printed expression; an equation yields its right-hand side."""
    tokens = [m.group(1) or m.group(2) or m.group(3)
              for m in _TOKEN.finditer(text) if (m.group(0).strip())]
    if "=" in tokens:
        if tokens.index("=") != 1 or not tokens[0][0].isalpha():
            raise ValueError(f"the left side of {text!r} is not one name")
        tokens = tokens[2:]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'a token'} at {pos} in {text!r}")
        pos += 1
        return tok

    def additive():
        value = multiplicative()
        while peek() in ("+", "-"):
            op = take()
            right = multiplicative()
            value = value + right if op == "+" else value - right
        return value

    def multiplicative():
        value = unary()
        while peek() in ("*", "/"):
            op = take()
            right = unary()
            value = value * right if op == "*" else value / right
        return value

    def unary():
        if peek() == "-":
            take()
            return -unary()
        return power()

    def power():
        base = atom()
        if peek() == "^":
            take()
            return math.pow(base, unary())
        return base

    def atom():
        tok = take()
        if tok == "(":
            value = additive()
            take(")")
            return value
        if tok[0].isdigit():
            return float(tok)
        if tok[0].isalpha():
            if peek() == "(" and tok in _CALLS:
                take("(")
                args = [additive()]
                while peek() == ",":
                    take()
                    args.append(additive())
                take(")")
                return float(_CALLS[tok](*args))
            if tok not in env:
                raise ValueError(f"unbound name {tok!r} in {text!r}")
            return float(env[tok])
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    value = additive()
    if peek() is not None:
        raise ValueError(f"trailing {peek()!r} in {text!r}")
    return value


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=VALUE_TOLERANCE, abs_tol=VALUE_TOLERANCE)


# --- entropy, recomputed from the saved bundle ------------------------------------

def entropies(node_types: dict[str, str], edges: list[dict],
              partition: dict[str, str]) -> tuple[float, float]:
    """(h1, h2) in bits on the graph without macro nodes and MemberOf edges."""
    base = {nid for nid, t in node_types.items() if t != "MacroNode"}
    deg = dict.fromkeys(base, 0)
    cut: dict[str, int] = {}
    for edge in edges:
        src, dst = edge["src"], edge["dst"]
        if edge["rel"] == "MemberOf" or src not in base or dst not in base:
            continue
        if src == dst:
            deg[src] += 2
            continue
        deg[src] += 1
        deg[dst] += 1
        a, b = partition[src], partition[dst]
        if a != b:
            cut[a] = cut.get(a, 0) + 1
            cut[b] = cut.get(b, 0) + 1
    total = float(sum(deg.values()))
    flat = -sum((d / total) * math.log2(d / total) for d in deg.values() if d)
    members: dict[str, list[str]] = {}
    for nid, key in partition.items():
        members.setdefault(key, []).append(nid)
    two_level = 0.0
    for key, nodes in members.items():
        vol = sum(deg[n] for n in nodes)
        if vol == 0:
            continue
        intra = -sum((deg[n] / vol) * math.log2(deg[n] / vol) for n in nodes if deg[n])
        two_level += (vol / total) * intra - (cut.get(key, 0) / total) * math.log2(vol / total)
    return flat, two_level


# --- the built bundle ----------------------------------------------------------------

@dataclass
class BundleFacts:
    """What one build produced, mapped onto the generator's record."""

    nodes: int = 0
    edges: int = 0
    communities: int = 0
    index_tokens: int = 0
    dendrogram_merges: int = 0
    node_of: dict[tuple, str] = field(default_factory=dict)  # target -> node id
    cell_of_node: dict[str, tuple] = field(default_factory=dict)
    paragraph_of_node: dict[str, tuple] = field(default_factory=dict)
    equation_of_node: dict[str, tuple] = field(default_factory=dict)


def _no_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_bytes().splitlines() if line.strip()]


def prov_key(prov: dict) -> tuple:
    return (prov["doc_id"], prov["clause_id"], prov["page"], tuple(prov["bbox"]))


def check_bundle(w: Workload, bundle_dir: Path) -> tuple[BundleFacts, list[str]]:
    """Check a built bundle from its files; return its facts and problems."""
    problems: list[str] = []
    facts = BundleFacts()
    nodes = _read_jsonl(bundle_dir / "nodes.jsonl")
    edges = _read_jsonl(bundle_dir / "edges.jsonl")
    index = json.loads((bundle_dir / "index.json").read_text("utf-8"),
                       object_pairs_hook=_no_duplicate_keys)
    facts.nodes, facts.edges = len(nodes), len(edges)
    types = {n["id"]: n["type"] for n in nodes}

    # provenance, cells, paragraphs, equations against the record
    operators: dict[tuple, int] = {}
    seen_cells: set[tuple] = set()
    for node in nodes:
        attrs, nid = node["attrs"], node["id"]
        prov = attrs.get("prov")
        if prov is not None and prov_key(prov) not in w.provenances:
            problems.append(f"{nid}: provenance {prov} was never written")
            continue
        kind = node["type"]
        if kind == "Cell":
            key = cell_key(prov_key(prov), attrs["row_path"], attrs["col_path"])
            truth = w.cells.get(key)
            if truth is None or key in seen_cells:
                problems.append(f"{nid}: cell {key} is unknown or repeated")
                continue
            seen_cells.add(key)
            markers = [truth.marker] if truth.marker else []
            if (attrs["value"], attrs["unit"], attrs["markers"]) != (
                    truth.value, truth.unit, markers):
                problems.append(f"{nid}: cell holds {attrs['value']} {attrs['unit']} "
                                f"{attrs['markers']}, generator wrote {truth.value} "
                                f"{truth.unit} {markers}")
            facts.cell_of_node[nid] = key
            facts.node_of[("cell", key)] = nid
        elif kind == "Paragraph":
            key = prov_key(prov)
            truth = w.paragraphs.get(key)
            if truth is None or truth.text != node["text"]:
                problems.append(f"{nid}: paragraph text differs from the generator's")
                continue
            facts.paragraph_of_node[nid] = key
            facts.node_of[("paragraph", key)] = nid
        elif kind == "Operator":
            key = prov_key(prov)
            operators[key] = operators.get(key, 0) + 1
            if "label" in attrs:
                truth = w.equations.get(key)
                if truth is None or not attrs["expr"].startswith(f"{truth.lhs} = "):
                    problems.append(f"{nid}: equation root {attrs.get('expr')!r} is unknown")
                    continue
                try:
                    value = evaluate_text(attrs["expr"], dict(truth.bindings))
                except (ValueError, ArithmeticError) as exc:
                    problems.append(f"{nid}: cannot evaluate {attrs['expr']!r}: {exc}")
                    continue
                if not close(value, truth.value):
                    problems.append(f"{nid}: {attrs['expr']!r} gives {value}, "
                                    f"generator computed {truth.value}")
                facts.equation_of_node[nid] = key
                facts.node_of[("equation", key)] = nid
    if seen_cells != set(w.cells):
        problems.append(f"{len(set(w.cells) - seen_cells)} generator cells have no node")
    for key, truth in w.equations.items():
        if ("equation", key) not in facts.node_of:
            problems.append(f"equation {truth.label} of {key[0]} has no root node")
        elif operators.get(key) != truth.operators:
            problems.append(f"equation {truth.label} of {key[0]} has {operators.get(key)} "
                            f"operators, generator wrote {truth.operators}")
    if len(facts.paragraph_of_node) != len(w.paragraphs):
        problems.append("some generator paragraphs have no node")

    # partition, entropy, macro nodes
    partition = index["partition"]
    base = {nid for nid, t in types.items() if t != "MacroNode"}
    if set(partition) != base:
        problems.append(f"partition covers {len(partition)} ids, the graph has "
                        f"{len(base)} non-macro nodes")
        return facts, problems
    flat, two_level = entropies(types, edges, partition)
    if abs(two_level - index["h2"]) > ENTROPY_TOLERANCE:
        problems.append(f"h2 recomputed {two_level!r}, index.json has {index['h2']!r}")
    if abs(flat - index["h1"]) > ENTROPY_TOLERANCE:
        problems.append(f"h1 recomputed {flat!r}, index.json has {index['h1']!r}")
    if index["h2"] > index["h1"]:
        problems.append(f"h2 {index['h2']} exceeds h1 {index['h1']}")
    communities: dict[str, set[str]] = {}
    for nid, key in partition.items():
        communities.setdefault(key, set()).add(nid)
    facts.communities = len(communities)
    macros = {n["id"]: n["attrs"] for n in nodes if n["type"] == "MacroNode"}
    by_community = {attrs.get("community"): mid for mid, attrs in macros.items()}
    if len(macros) != len(communities) or set(by_community) != set(communities):
        problems.append(f"{len(macros)} macro nodes for {len(communities)} communities")
        return facts, problems
    member_of: dict[str, set[str]] = {mid: set() for mid in macros}
    for edge in edges:
        if edge["rel"] == "MemberOf":
            member_of.setdefault(edge["dst"], set()).add(edge["src"])
    for key, members in communities.items():
        if member_of.get(by_community[key]) != members:
            problems.append(f"macro of community {key} has MemberOf edges from "
                            "other nodes than its members")
    facts.index_tokens = sum(int(attrs.get("tokens_used", 0)) for attrs in macros.values())
    return facts, problems


# --- answers and lookups -------------------------------------------------------------

CITATION = re.compile(r"^(.*) \(clause ([^()]*)\)$", re.S)


def check_answer(w: Workload, facts: BundleFacts, result, khop: int,
                 no_evidence: str) -> list[str]:
    """Route properties, provenance and record contents of one answer."""
    problems = []
    records = result.records
    for r in records:
        if prov_key(r.provenance) not in w.provenances:
            problems.append(f"record {r.node_id}: provenance was never written")
        if r.node_type == "Cell":
            truth = w.cells[facts.cell_of_node[r.node_id]]
            rendered = f"{' / '.join(truth.col_path)} = {truth.value} {truth.unit}"
            if (r.subject, r.object) != (" / ".join(truth.row_path), rendered):
                problems.append(f"record {r.node_id}: {r.subject!r} {r.object!r} differs "
                                "from the generator's cell")
            if r.condition != truth.guard:
                problems.append(f"record {r.node_id}: condition {r.condition!r}, "
                                f"generator guard {truth.guard!r}")
    if result.route == "low":
        if any(r.node_type not in ("Paragraph", "Cell") for r in records):
            problems.append("low-route evidence holds other types than Paragraph or Cell")
        if any(a.score < b.score for a, b in zip(records, records[1:])):
            problems.append("low-route scores increase")
    elif result.route == "med":
        if any(r.hop is None or r.hop > khop for r in records):
            problems.append(f"med-route record beyond {khop} hops")
    elif any(r.node_type != "MacroNode" for r in records):
        problems.append("high-route evidence holds other types than MacroNode")
    if records:
        cited = CITATION.match(result.answer)
        if cited is None or cited.group(2) != records[0].clause:
            problems.append(f"answer {result.answer!r} does not cite clause "
                            f"{records[0].clause}")
    elif result.answer != no_evidence:
        problems.append(f"answer {result.answer!r} without evidence")
    return problems


def gold(w: Workload, facts: BundleFacts, question, result) -> tuple[bool, bool]:
    """(target among the evidence, answer carries the known value and clause)."""
    if question.target is None:
        return False, False
    kind, key = question.target
    hit = facts.node_of.get(question.target) in {r.node_id for r in result.records}
    cited = CITATION.match(result.answer)
    if cited is None:
        return hit, False
    body, clause = cited.groups()
    if kind == "cell":
        # the object may be followed by the cell's guard: ", given NOTE ..."
        truth = w.cells[key]
        carried = re.search(f"= {re.escape(truth.value)} {re.escape(truth.unit)}(,|$)", body)
        return hit, clause == truth.prov.clause_id and carried is not None
    if kind == "paragraph":
        truth = w.paragraphs[key]
        return hit, (body, clause) == (truth.text, truth.prov.clause_id)
    truth = w.equations[key]
    try:
        value = evaluate_text(body, dict(truth.bindings))
    except (ValueError, ArithmeticError):
        return hit, False
    return hit, clause == truth.prov.clause_id and close(value, truth.value)


def check_lookup(w: Workload, facts: BundleFacts, lookup, hits) -> list[str]:
    truth = w.cells[lookup.cell]
    if len(hits) != 1:
        return [f"lookup {lookup.row_path} {lookup.col_path} gave {len(hits)} cells"]
    hit = hits[0]
    problems = []
    if hit.node_id != facts.node_of[("cell", lookup.cell)]:
        problems.append(f"lookup returned {hit.node_id}, not the generator's cell")
    if (hit.value, hit.unit) != (truth.value, truth.unit):
        problems.append(f"lookup gave {hit.value} {hit.unit}, generator wrote "
                        f"{truth.value} {truth.unit}")
    if hit.condition != truth.guard:
        problems.append(f"lookup condition {hit.condition!r}, generator guard {truth.guard!r}")
    if prov_key(hit.prov) != truth.prov.key:
        problems.append("lookup provenance differs from the generator's")
    return problems
