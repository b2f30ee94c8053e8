"""Seeded workload generator for the semrag benchmark.

Writes intermediate-JSON documents, a gazetteer and a question set, and
keeps its own record of what is true: every cell's header paths, value,
unit and footnote guard; every block's provenance; every equation's
operator count and its value at seeded bindings. The checks in checks.py
compare the program's outputs against this record, never against a saved
copy of earlier output.

The generator is self-contained (it does not use ``semrag.synth``), so a
change to the test fixtures cannot change a workload. Identifiers in
low-route questions hold no ``_``, ``/`` or ``=``, because the router's
symbolic pattern sends any of them to the med route.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

SYLLABLES = (
    "ka", "lo", "ri", "ven", "tor", "mi", "sa", "del", "fu", "gor", "pra",
    "nex", "quo", "zen", "vil", "ur", "ob", "tel", "dra", "ki", "mon", "pel",
)
TOPICS = (
    "admission", "scheduling", "handover", "paging", "measurement",
    "retransmission", "synchronization", "beam", "carrier", "bearer",
    "session", "mobility", "security", "coverage", "reselection", "timing",
)
PARAM_WORDS = (
    "txpower", "rxlevel", "offset", "window", "timer", "backoff", "margin",
    "threshold", "gain", "hysteresis", "period", "budget",
)
QUANTITIES = (
    "received power", "path loss", "antenna gain", "noise floor",
    "bandwidth", "rate", "delay spread", "load factor", "duty cycle",
)
UNITS = ("dBm", "dB", "MHz", "ms", "kHz", "%")
SUBCOLUMNS = ("Minimum", "Typical", "Maximum")
BANDS = ("Low band", "Mid band", "High band", "Narrow band", "Wide band")
OVERVIEW_VERBS = ("organize", "arrange", "structure", "group", "present")
OVERVIEW_NOUNS = (
    "procedures", "parameters", "behaviour", "configuration", "limits",
    "signalling", "requirements", "conditions",
)


@dataclass(frozen=True)
class Prov:
    doc_id: str
    clause_id: str
    page: int
    bbox: tuple[float, float, float, float]

    def to_json(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "clause_id": self.clause_id,
            "page": self.page,
            "bbox": list(self.bbox),
            "release_tag": "Rel-18",
        }

    @property
    def key(self) -> tuple:
        return (self.doc_id, self.clause_id, self.page, self.bbox)


@dataclass(frozen=True)
class CellTruth:
    prov: Prov
    row_path: tuple[str, ...]
    col_path: tuple[str, ...]
    value: str
    unit: str
    marker: Optional[str]
    guard: Optional[str]  # footnote text when marked


@dataclass(frozen=True)
class EquationTruth:
    prov: Prov
    label: str
    lhs: str
    bindings: tuple[tuple[str, float], ...]
    value: float
    operators: int


@dataclass(frozen=True)
class ParagraphTruth:
    prov: Prov
    text: str


@dataclass(frozen=True)
class Question:
    """One question; ``target`` names the truth record it asks about."""

    kind: str  # factoid | relational | linked | formula | overview
    text: str
    target: Optional[tuple] = None  # ("cell"|"paragraph"|"equation", key)


@dataclass(frozen=True)
class Lookup:
    row_path: tuple[str, ...]
    col_path: tuple[str, ...]
    cell: tuple  # CellTruth key


@dataclass
class Workload:
    name: str
    align: bool
    documents: list[dict] = field(default_factory=list)
    gazetteer: list[str] = field(default_factory=list)
    cells: dict[tuple, CellTruth] = field(default_factory=dict)
    paragraphs: dict[tuple, ParagraphTruth] = field(default_factory=dict)
    equations: dict[tuple, EquationTruth] = field(default_factory=dict)
    provenances: set[tuple] = field(default_factory=set)
    # Each round asks the same number of questions of every kind and of
    # lookups; the rounds hold distinct items.
    rounds: list[list] = field(default_factory=list)


def cell_key(prov: tuple, row_path, col_path) -> tuple:
    """A cell is known by its table's provenance and its header paths."""
    return (prov, tuple(row_path), tuple(col_path))


# --- expressions --------------------------------------------------------------
# A tiny expression tree of tuples: ("var", name) | ("const", literal) |
# (op, left, right) for + - * / ^ | ("neg", x) | (call, arg...) for
# log2, sqrt, max, min. Positive subtrees keep log2 and sqrt in domain.

CALLS = ("log2", "sqrt", "max", "min")


def _positive(rng: random.Random, names: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.8:
            return ("var", rng.choice(names))
        return ("const", str(rng.randint(2, 9)))
    choice = rng.randrange(7)
    if choice == 0:
        return ("+", _positive(rng, names, depth - 1), _positive(rng, names, depth - 1))
    if choice == 1:
        return ("*", _positive(rng, names, depth - 1), _positive(rng, names, depth - 1))
    if choice == 2:
        return ("/", _positive(rng, names, depth - 1), _positive(rng, names, depth - 1))
    if choice == 3:
        return ("log2", ("+", ("const", "1"), _positive(rng, names, depth - 1)))
    if choice == 4:
        return ("sqrt", _positive(rng, names, depth - 1))
    if choice == 5:
        return (rng.choice(("max", "min")), _positive(rng, names, depth - 1),
                _positive(rng, names, depth - 1))
    return ("^", _positive(rng, names, depth - 1), ("const", "2"))


def random_rhs(rng: random.Random, names: list[str], depth: int):
    """A right-hand side that uses every name at least once."""
    tree = _positive(rng, names, depth)
    for name in names:
        if name not in _variables(tree):
            tree = ("+", tree, ("*", ("const", str(rng.randint(2, 9))), ("var", name)))
    if rng.random() < 0.3:
        tree = ("-", tree, ("neg", ("var", names[0])))
    return tree


def _variables(tree) -> set[str]:
    if tree[0] == "var":
        return {tree[1]}
    if tree[0] == "const":
        return set()
    out: set[str] = set()
    for child in tree[1:]:
        out |= _variables(child)
    return out


def operator_count(tree) -> int:
    if tree[0] in ("var", "const"):
        return 0
    return 1 + sum(operator_count(child) for child in tree[1:])


def evaluate(tree, env: dict[str, float]) -> float:
    op = tree[0]
    if op == "var":
        return env[tree[1]]
    if op == "const":
        return float(tree[1])
    if op == "neg":
        return -evaluate(tree[1], env)
    args = [evaluate(child, env) for child in tree[1:]]
    if op == "log2":
        return math.log2(args[0])
    if op == "sqrt":
        return math.sqrt(args[0])
    if op == "max":
        return max(args)
    if op == "min":
        return min(args)
    a, b = args
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return math.pow(a, b)


def to_latex(tree) -> str:
    """The LaTeX subset the formula compiler normalizes; every compound
    operand is bracketed, so the parse tree is exactly this tree."""
    op = tree[0]
    if op in ("var", "const"):
        return tree[1]

    def inner(child) -> str:
        text = to_latex(child)
        return text if child[0] in ("var", "const") or child[0] in CALLS else f"({text})"

    if op == "neg":
        return f"-{inner(tree[1])}"
    if op == "log2":
        return f"\\log_2({to_latex(tree[1])})"
    if op == "sqrt":
        return f"\\sqrt{{{to_latex(tree[1])}}}"
    if op in ("max", "min"):
        return f"{op}({to_latex(tree[1])}, {to_latex(tree[2])})"
    if op == "/":
        return f"\\frac{{{to_latex(tree[1])}}}{{{to_latex(tree[2])}}}"
    if op == "^":
        return f"{{{to_latex(tree[1])}}}^{{{to_latex(tree[2])}}}"
    if op == "*":
        return f"{inner(tree[1])} \\cdot {inner(tree[2])}"
    return f"{inner(tree[1])} {op} {inner(tree[2])}"


# --- shared pieces --------------------------------------------------------------

def _word(rng: random.Random, used: set[str], suffix: str) -> str:
    while True:
        stem = "".join(rng.choice(SYLLABLES) for _ in range(3))
        surface = stem.capitalize() + suffix
        if surface.lower() not in used:
            used.add(surface.lower())
            return surface


class _Doc:
    """Block builder that hands out a distinct bbox per block."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.blocks: list[dict] = []
        self.slots: dict[int, int] = {}

    def prov(self, clause: str, page: int) -> Prov:
        slot = self.slots.get(page, 0)
        self.slots[page] = slot + 1
        y = 72.0 + 15.0 * slot
        return Prov(self.doc_id, clause, page, (40.0, y, 555.0, y + 12.5))

    def to_json(self) -> dict:
        return {
            "id": self.doc_id,
            "blocks": self.blocks,
            "reading_order": list(range(len(self.blocks))),
        }


def _section(w: Workload, doc: _Doc, block_id: str, clause: str, page: int, title: str):
    prov = doc.prov(clause, page)
    w.provenances.add(prov.key)
    doc.blocks.append(
        {"kind": "section", "id": block_id, "prov": prov.to_json(), "level": 1,
         "title": title}
    )


def _paragraph(w: Workload, doc: _Doc, block_id: str, clause: str, page: int,
               text: str, section: str) -> ParagraphTruth:
    prov = doc.prov(clause, page)
    w.provenances.add(prov.key)
    truth = ParagraphTruth(prov, text)
    w.paragraphs[prov.key] = truth
    doc.blocks.append(
        {"kind": "paragraph", "id": block_id, "prov": prov.to_json(), "text": text,
         "parent_section": section}
    )
    return truth


def _header(text: str, rows: int = 1, cols: int = 1) -> dict:
    return {"text": text, "row_span": rows, "col_span": cols, "is_header": True,
            "footnotes": [], "unit": None}


def _table(w: Workload, rng: random.Random, doc: _Doc, block_id: str, clause: str,
           page: int, caption: str, groups: list[str], subs: tuple[str, ...],
           row_names: list[str], guard_share: float,
           notes: list[str]) -> list[CellTruth]:
    """A table with a two-level column header: groups over sub-columns."""
    prov = doc.prov(clause, page)
    w.provenances.add(prov.key)
    rows = [
        [_header("Parameter", rows=2)] + [_header(g, cols=len(subs)) for g in groups],
        [_header(s) for _ in groups for s in subs],
    ]
    markers = [str(i + 1) for i in range(len(notes))]
    out = []
    for r, name in enumerate(row_names):
        unit = rng.choice(UNITS)
        row = [_header(name)]
        base = rng.randint(-40, 60)
        for g in groups:
            for s, sub in enumerate(subs):
                value = str(base + 7 * s + rng.randint(0, 5))
                marker = None
                if (r == 0 and s == len(subs) - 1) or rng.random() < guard_share:
                    marker = rng.choice(markers)
                text = f"{value}[{marker}]" if marker and rng.random() < 0.5 else value
                row.append({"text": text, "row_span": 1, "col_span": 1,
                            "is_header": False, "footnotes": [marker] if marker else [],
                            "unit": unit})
                truth = CellTruth(prov, (name,), (g, sub), value, unit, marker,
                                  notes[markers.index(marker)] if marker else None)
                w.cells[cell_key(prov.key, (name,), (g, sub))] = truth
                out.append(truth)
        rows.append(row)
    doc.blocks.append(
        {"kind": "table", "id": block_id, "prov": prov.to_json(), "rows": rows,
         "caption": caption,
         "footnotes": [{"marker": m, "text": t} for m, t in zip(markers, notes)]}
    )
    return out


def _equation(w: Workload, rng: random.Random, doc: _Doc, block_id: str, clause: str,
              page: int, label: str, names: list[str], depth: int) -> EquationTruth:
    prov = doc.prov(clause, page)
    w.provenances.add(prov.key)
    lhs, operands = names[0], names[1:]
    rhs = random_rhs(rng, operands, depth)
    bindings = {n: round(rng.uniform(1.5, 9.5), 3) for n in operands}
    truth = EquationTruth(
        prov, label, lhs, tuple(sorted(bindings.items())),
        evaluate(rhs, bindings), operator_count(rhs) + 1,  # + the "=" root
    )
    w.equations[prov.key] = truth
    doc.blocks.append(
        {"kind": "equation", "id": block_id, "prov": prov.to_json(),
         "math_src": f"{lhs} = {to_latex(rhs)}", "label": label}
    )
    return truth


def _cell_questions(cell: CellTruth) -> tuple[Question, Question]:
    (name,), (group, sub) = cell.row_path, cell.col_path
    target = ("cell", cell_key(cell.prov.key, cell.row_path, cell.col_path))
    # The factoid names only the row and the columns: every filler word
    # would be shared by all factoids, and a row name whose hash bucket it
    # shares would then win every one of them in the 256-bucket text
    # embedding, which makes answer quality swing with the seed.
    return (
        Question("factoid", f"{name} {group} {sub}", target),
        Question("relational", f"Which limit applies for {name} under {group} / {sub}?",
                 target),
    )


def _overview(rng: random.Random, n: int) -> list[Question]:
    out = []
    for _ in range(n):
        a, b, c = rng.sample(TOPICS, 3)
        x, y = rng.sample(OVERVIEW_NOUNS, 2)
        verb = rng.choice(OVERVIEW_VERBS)
        out.append(Question(
            "overview",
            f"Give a broad overview of how these specifications {verb} {a} {x} "
            f"and {b} {y} together with {c} handling across all documents",
        ))
    return out


def _symbols(rng: random.Random, used: set[str], suffix: str, n: int) -> list[str]:
    out = []
    while len(out) < n:
        stem = rng.choice(SYLLABLES).capitalize() + rng.choice(SYLLABLES)
        name = f"{stem}{suffix}"
        if name.lower() not in used:
            used.add(name.lower())
            out.append(name)
    return out


# --- workloads --------------------------------------------------------------------

# Items per round, by kind, and the number of distinct rounds. A run asks
# every distinct round once, then repeats them until its time is up; the
# answer-quality counts are taken over that first pass. A round lasts one
# to two seconds on a 2-core machine, so the timed loop ends close to its
# deadline, and every round holds every route, so machine drift during a
# run falls alike on all of them.
ROUND = {
    "many-docs": {"factoid": 8, "relational": 4, "linked": 3, "formula": 3,
                  "overview": 3, "lookup": 6},
    "tables-formulas": {"factoid": 12, "relational": 6, "linked": 3, "formula": 3,
                        "overview": 4, "lookup": 8},
}
DISTINCT_ROUNDS = {"many-docs": 10, "tables-formulas": 20}


def many_docs(seed: int, n_docs: int = 300) -> Workload:
    """About 300 standard-shape documents; the gazetteer exceeds 512 surfaces."""
    rng = random.Random(f"many-docs:{seed}")
    w = Workload("many-docs", align=False)
    used: set[str] = set()
    shared = [_word(rng, used, "") for _ in range(48)]
    pools: dict[str, list] = {k: [] for k in ROUND[w.name]}
    for d in range(n_docs):
        doc = _Doc(f"D{d:03d}")
        clause_a, clause_b = f"{d + 1}.1", f"{d + 1}.2"
        alpha, beta = _word(rng, used, str(d)), _word(rng, used, f"{d}x")
        w.gazetteer += [alpha, beta]
        t1, t2, t3 = rng.sample(TOPICS, 3)
        label = f"({d + 1})"
        lhs, *operands = _symbols(rng, used, str(d), 4)
        _section(w, doc, "s1", clause_a, 1, f"General description of {t1} {t2}")
        _paragraph(w, doc, "p1", clause_a, 1,
                   f"{alpha} is the {t1} procedure evaluated before {t2}. "
                   f"It applies in clause {clause_b}.", "s1")
        _paragraph(w, doc, "p2", clause_a, 1,
                   f"{beta} denotes the fallback {t2} procedure shared with "
                   f"{rng.choice(shared)}. See Table 1 for the parameter limits.", "s1")
        p3 = _paragraph(w, doc, "p3", clause_a, 1,
                        f"{alpha} interacts with {beta} when {t3} occurs. {lhs} denotes "
                        f"the {rng.choice(QUANTITIES)} given by Equation {label}.", "s1")
        eq = _equation(w, rng, doc, "e1", clause_a, 1, label, [lhs, *operands], depth=2)
        _section(w, doc, "s2", clause_b, 2, f"Parameters for {t1}")
        for t in range(2):
            names = [f"{rng.choice(PARAM_WORDS)}{d:03d}{t}{r}" for r in range(3)]
            cells = _table(
                w, rng, doc, f"t{t + 1}", clause_b, 2,
                f"Table {t + 1}: {t1} limits set {d}{t}", [f"Set{d:03d}{t}"],
                ("Minimum", "Maximum"), names,
                0.0, [f"NOTE 1: Applies only when {t2} is configured."])
            for cell in cells:
                factoid, relational = _cell_questions(cell)
                pools["factoid"].append(factoid)
                pools["relational"].append(relational)
                pools["lookup"].append(Lookup(cell.row_path, cell.col_path, (
                    cell_key(cell.prov.key, cell.row_path, cell.col_path))))
        pools["linked"].append(Question(
            "linked", f"How does {alpha} relate to {beta} during {t3} handling?",
            ("paragraph", p3.prov.key)))
        pools["formula"].append(_formula_question(eq, operands))
        w.documents.append(doc.to_json())
    w.gazetteer += shared
    _pick_rounds(w, rng, pools)
    return w


def tables_formulas(seed: int, n_docs: int = 12) -> Workload:
    """A dozen documents of wide guarded tables and defined equations."""
    rng = random.Random(f"tables-formulas:{seed}")
    w = Workload("tables-formulas", align=True)
    used: set[str] = set()
    shared = [_word(rng, used, "") for _ in range(6)]
    pools: dict[str, list] = {k: [] for k in ROUND[w.name]}
    for d in range(n_docs):
        doc = _Doc(f"TF{d:02d}")
        alpha, beta, gamma = (_word(rng, used, f"{d}{c}") for c in "abc")
        w.gazetteer += [alpha, beta, gamma]
        t1, t2, t3 = rng.sample(TOPICS, 3)
        c1 = f"{d + 1}.1"
        _section(w, doc, "s1", c1, 1, f"Overview of {t1}")
        _paragraph(w, doc, "p1", c1, 1,
                   f"{alpha} is the {t1} procedure applied with {rng.choice(shared)}.",
                   "s1")
        _paragraph(w, doc, "p2", c1, 1,
                   f"{beta} denotes the {t2} procedure that follows {gamma}.", "s1")
        p3 = _paragraph(w, doc, "p3", c1, 1,
                        f"{alpha} interacts with {beta} when {t3} occurs.", "s1")
        pools["linked"].append(Question(
            "linked", f"How does {alpha} relate to {beta} during {t3} handling?",
            ("paragraph", p3.prov.key)))
        c2 = f"{d + 1}.2"
        _section(w, doc, "s2", c2, 2, f"Parameters for {t2}")
        for t in range(5):
            page = 2 + t
            other = rng.choice((beta, gamma))
            lead = _paragraph(w, doc, f"q{t + 1}", c2, page,
                              f"Table {t + 1} lists the {t2} limits that {alpha} and "
                              f"{other} apply.", "s2")
            pools["linked"].append(Question(
                "linked", f"How does {alpha} relate to {other} for the limits of "
                f"Table {t + 1}?", ("paragraph", lead.prov.key)))
            groups = rng.sample(BANDS, 3)
            names = [f"{rng.choice(PARAM_WORDS)}{d:02d}{t}{r:02d}" for r in range(10)]
            notes = [f"NOTE {m}: Applies only when {topic} is configured."
                     for m, topic in zip((1, 2, 3), rng.sample(TOPICS, 3))]
            cells = _table(w, rng, doc, f"t{t + 1}", c2, page,
                           f"Table {t + 1}: {t2} limits {d}.{t}", groups, SUBCOLUMNS, names,
                           0.15, notes)
            for cell in cells:
                factoid, relational = _cell_questions(cell)
                pools["factoid"].append(factoid)
                pools["relational"].append(relational)
                pools["lookup"].append(Lookup(cell.row_path, cell.col_path, (
                    cell_key(cell.prov.key, cell.row_path, cell.col_path))))
        for k in range(5):
            clause = f"{d + 1}.{3 + k}"
            page = 7 + k
            label = f"({d + 1}.{k + 1})"
            section = f"s{3 + k}"
            names = _symbols(rng, used, f"{d}{k}", rng.randint(3, 5))
            quantities = rng.sample(QUANTITIES, len(names))
            _section(w, doc, section, clause, page, f"Computation of {quantities[0]}")
            verbs = ("is", "denotes", "represents")
            _paragraph(w, doc, f"d{k + 1}", clause, page, " ".join(
                f"{n} {rng.choice(verbs)} the {q}." for n, q in zip(names, quantities)
            ), section)
            eq = _equation(w, rng, doc, f"e{k + 1}", clause, page, label, names, depth=3)
            pools["formula"].append(_formula_question(eq, names[1:]))
        w.documents.append(doc.to_json())
    w.gazetteer += shared
    _pick_rounds(w, rng, pools)
    return w


def _formula_question(eq: EquationTruth, operands: list[str]) -> Question:
    a, b = operands[0], operands[-1]
    return Question("formula", f"How is {eq.lhs} = computed from {a} and {b}?",
                    ("equation", eq.prov.key))


def _pick_rounds(w: Workload, rng: random.Random, pools: dict[str, list]) -> None:
    rounds = DISTINCT_ROUNDS[w.name]
    pools["overview"] = _overview(rng, rounds * ROUND[w.name]["overview"])
    picked = {kind: rng.sample(pools[kind], rounds * count)
              for kind, count in ROUND[w.name].items()}
    for r in range(rounds):
        w.rounds.append([item for kind, count in ROUND[w.name].items()
                         for item in picked[kind][r * count:(r + 1) * count]])


WORKLOADS = {"many-docs": many_docs, "tables-formulas": tables_formulas}
