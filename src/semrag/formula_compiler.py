"""Math normalization, parsing, canonical printing, and formula graphs.

The pipeline is normalize_math -> parse_math -> compile_formula. The
normalizer rewrites a small LaTeX subset into plain operator text with
bit-exact rules (listed in normalize_math's docstring); the parser builds an
immutable expression tree; print_math emits the one canonical rendering
that parses back to the identical tree. compile_formula turns the tree
into Operator/Variable/Constant nodes where each distinct variable name
and literal appears exactly once.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .doc_model import (
    EquationBlock,
    ParagraphBlock,
    SectionBlock,
    SourceDocument,
)
from .errors import NotAnOperator, NotFound, ParseError, UnsupportedConstructError
from .graph_core import GraphFragment, Node, NodeType, RelationType, prov_attrs

logger = logging.getLogger(__name__)

KNOWN_CALLS = ("abs", "exp", "log", "log2", "max", "min", "sqrt", "sum")


# --- expression tree --------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    literal: str  # exact source spelling, never re-formatted


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["MathAST", ...]


@dataclass(frozen=True)
class Unary:
    op: str  # "neg"
    operand: "MathAST"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of = + - * / ^
    left: "MathAST"
    right: "MathAST"


MathAST = Union[Var, Const, Call, Unary, BinOp]


# --- normalization ----------------------------------------------------------

_SIMPLE_SUBSCRIPT = re.compile(r"[A-Za-z0-9]+")


def _read_group(s: str, i: int) -> tuple[str, int]:
    """Content of the brace group starting at s[i] == '{', and the index after."""
    depth = 0
    start = i + 1
    for j in range(i, len(s)):
        if s[j] == "{":
            depth += 1
        elif s[j] == "}":
            depth -= 1
            if depth == 0:
                return s[start:j], j + 1
    raise UnsupportedConstructError("{", "unbalanced brace group")


def _read_command(s: str, i: int) -> tuple[str, int]:
    j = i + 1
    while j < len(s) and s[j].isalpha():
        j += 1
    return s[i + 1 : j], j


def _read_sum_body(s: str, i: int) -> tuple[str, int]:
    while i < len(s) and s[i].isspace():
        i += 1
    if i >= len(s):
        raise UnsupportedConstructError("sum", "summation has no body")
    if s[i] == "{":
        return _read_group(s, i)
    if s[i] == "\\":
        name, j = _read_command(s, i)
        if name == "frac":
            while j < len(s) and s[j].isspace():
                j += 1
            a, j = _read_group(s, j)
            while j < len(s) and s[j].isspace():
                j += 1
            b, j = _read_group(s, j)
            return f"\\frac{{{a}}}{{{b}}}", j
        raise UnsupportedConstructError(
            name, "summation body must be a group, a fraction, or a simple factor"
        )
    m = re.match(r"[A-Za-z0-9_.]+", s[i:])
    if not m:
        raise UnsupportedConstructError(s[i], "summation has no parsable body")
    end = i + m.end()
    if end < len(s) and s[end] == "{" and s[end - 1] in "_^":
        # subscript or superscript braces belong to the factor: x_{i}, x^{2}
        _, end = _read_group(s, end)
        if end < len(s) and s[end] in "_^" and end + 1 < len(s) and s[end + 1] == "{":
            _, end = _read_group(s, end + 1)
    if end < len(s) and s[end] == "(":
        depth = 0
        for j in range(end, len(s)):
            if s[j] == "(":
                depth += 1
            elif s[j] == ")":
                depth -= 1
                if depth == 0:
                    end = j + 1
                    break
    return s[i:end], end


def normalize_math(src: str) -> str:
    """Rewrite a LaTeX subset to plain operator text; idempotent.

    Fractions become "(a)/(b)", \\cdot and \\times become "*", log bases
    collapse into the function name, simple subscript braces unwrap,
    superscript braces become parenthesized exponents, summations become
    sum(index,lo,hi,body) calls, and sizing commands vanish. Any other
    backslash command raises UnsupportedConstructError.
    """
    out: list[str] = []
    i = 0
    s = src
    while i < len(s):
        ch = s[i]
        if ch == "\\":
            name, j = _read_command(s, i)
            if not name:
                raise UnsupportedConstructError("\\", "stray backslash")
            if name == "frac":
                while j < len(s) and s[j].isspace():
                    j += 1
                a, j = _read_group(s, j)
                while j < len(s) and s[j].isspace():
                    j += 1
                b, j = _read_group(s, j)
                out.append(f"({normalize_math(a)})/({normalize_math(b)})")
                i = j
            elif name in ("cdot", "times"):
                out.append("*")
                i = j
            elif name == "log":
                if j < len(s) and s[j] == "_":
                    j += 1
                    if j < len(s) and s[j] == "{":
                        base, j = _read_group(s, j)
                    else:
                        base, j = s[j], j + 1
                    if base.strip() != "2":
                        raise UnsupportedConstructError(
                            f"log_{base}", "only base-2 and natural logs are supported"
                        )
                    out.append("log2")
                else:
                    out.append("log")
                i = j
            elif name == "sum":
                if j + 1 >= len(s) or s[j] != "_" or s[j + 1] != "{":
                    raise UnsupportedConstructError("sum", "summation needs bounds")
                sub, j = _read_group(s, j + 1)
                if j + 1 >= len(s) or s[j] != "^":
                    raise UnsupportedConstructError("sum", "summation needs an upper bound")
                if s[j + 1] == "{":
                    sup, j = _read_group(s, j + 1)
                else:
                    sup, j = s[j + 1], j + 2
                if "=" not in sub:
                    raise UnsupportedConstructError("sum", "lower bound must be index=value")
                idx, lo = (part.strip() for part in sub.split("=", 1))
                body, j = _read_sum_body(s, j)
                out.append(
                    "sum("
                    + ",".join(
                        (idx, normalize_math(lo), normalize_math(sup.strip()),
                         normalize_math(body))
                    )
                    + ")"
                )
                i = j
            elif name == "sqrt":
                while j < len(s) and s[j].isspace():
                    j += 1
                g, j = _read_group(s, j)
                out.append(f"sqrt({normalize_math(g)})")
                i = j
            elif name in ("left", "right"):
                i = j  # sizing only; the delimiter itself stays
            else:
                raise UnsupportedConstructError(name)
        elif ch == "_" and i + 1 < len(s) and s[i + 1] == "{":
            content, j = _read_group(s, i + 1)
            if not _SIMPLE_SUBSCRIPT.fullmatch(content.strip()):
                raise UnsupportedConstructError(
                    f"_{{{content}}}", "only simple subscripts are supported"
                )
            out.append("_" + content.strip())
            i = j
        elif ch == "^" and i + 1 < len(s) and s[i + 1] == "{":
            content, j = _read_group(s, i + 1)
            out.append(f"^({normalize_math(content)})")
            i = j
        elif ch == "{":
            content, j = _read_group(s, i)
            out.append(f"({normalize_math(content)})")
            i = j
        elif ch == "}":
            raise UnsupportedConstructError("}", "unbalanced closing brace")
        else:
            out.append(ch)
            i += 1
    return " ".join("".join(out).split())


# --- parsing ----------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[=+\-*/^(),])"
    r"|(?P<ws>\s+)"
)


@dataclass
class _Token:
    kind: str
    value: str
    offset: int


def _tokenize(s: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(s):
        m = _TOKEN.match(s, i)
        if m is None:
            raise ParseError(i, ("a number, name, or operator",), s[i])
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(0), i))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.text), ("more input",), "end of input")
        self.pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.text), (value,), "end of input")
        if tok.value != value:
            raise ParseError(tok.offset, (value,), repr(tok.value))
        return self.take()

    def parse(self) -> MathAST:
        node = self.equation()
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok.offset, ("end of input",), repr(tok.value))
        return node

    def equation(self) -> MathAST:
        left = self.additive()
        if self.peek() is not None and self.peek().value == "=":
            self.take()
            right = self.additive()
            if self.peek() is not None and self.peek().value == "=":
                raise ParseError(
                    self.peek().offset, ("a single equality",), "chained '='"
                )
            return BinOp("=", left, right)
        return left

    def additive(self) -> MathAST:
        node = self.multiplicative()
        while self.peek() is not None and self.peek().value in ("+", "-"):
            op = self.take().value
            node = BinOp(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> MathAST:
        node = self.unary()
        while self.peek() is not None and self.peek().value in ("*", "/"):
            op = self.take().value
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> MathAST:
        tok = self.peek()
        if tok is not None and tok.value == "-":
            self.take()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> MathAST:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.value == "^":
            self.take()
            return BinOp("^", base, self.unary())  # right-associative
        return base

    def atom(self) -> MathAST:
        tok = self.take()
        if tok.kind == "num":
            return Const(tok.value)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.value == "(":
                return self.call(tok)
            return Var(tok.value)
        if tok.value == "(":
            node = self.equation()
            self.expect(")")
            return node
        raise ParseError(tok.offset, ("a value", "("), repr(tok.value))

    def call(self, name_tok: _Token) -> MathAST:
        name = name_tok.value
        if name not in KNOWN_CALLS:
            raise ParseError(
                name_tok.offset, KNOWN_CALLS, repr(name)
            )
        self.expect("(")
        args: list[MathAST] = [self.additive()]
        while self.peek() is not None and self.peek().value == ",":
            self.take()
            args.append(self.additive())
        self.expect(")")
        if name == "sum":
            if len(args) != 4:
                raise ParseError(
                    name_tok.offset, ("sum(index, lo, hi, body)",), f"{len(args)} arguments"
                )
            if not isinstance(args[0], Var):
                raise ParseError(
                    name_tok.offset, ("an index variable as first sum argument",),
                    type(args[0]).__name__,
                )
        elif name in ("min", "max"):
            if len(args) != 2:
                raise ParseError(
                    name_tok.offset, (f"{name}(a, b)",), f"{len(args)} arguments"
                )
        elif len(args) != 1:
            raise ParseError(
                name_tok.offset, (f"{name} with one argument",), f"{len(args)} arguments"
            )
        return Call(name, tuple(args))


def parse_math(text: str) -> MathAST:
    """Parse normalized math text; offsets in errors index into `text`."""
    return _Parser(text).parse()


# --- canonical printing -----------------------------------------------------

_PREC = {"=": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def print_math(node: MathAST) -> str:
    """The canonical rendering; parse_math(print_math(t)) rebuilds t exactly.

    Parens are minimal with two deliberate exceptions: division operands are
    always parenthesized, and an equal-precedence right operand of a
    left-associative operator keeps its parens so grouping survives the
    round trip.
    """
    return _print(node, 0, "root")


def _print(node: MathAST, parent_prec: int, side: str) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return node.literal
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_print(a, 0, 'root') for a in node.args)})"
    if isinstance(node, Unary):
        inner = _print(node.operand, _PREC["neg"], "right")
        text = f"-{inner}"
        return f"({text})" if _PREC["neg"] < parent_prec else text
    # binary
    prec = _PREC[node.op]
    if node.op == "/":
        text = f"({_print(node.left, 0, 'root')})/({_print(node.right, 0, 'root')})"
    elif node.op == "^":
        left = _print(node.left, prec, "left")
        right = _print(node.right, prec, "right")
        text = f"{left}^{right}"
    else:
        left = _print(node.left, prec, "left")
        right = _print(node.right, prec, "right")
        text = f"{left} {node.op} {right}"
    needs = prec < parent_prec
    if prec == parent_prec:
        if node.op == "^":  # right-associative: protect a left operand
            needs = side == "left"
        elif node.op == "=":  # non-associative: protect either operand
            needs = side in ("left", "right")
        else:  # left-associative: protect a right operand
            needs = side == "right"
    return f"({text})" if needs else text


# --- graph emission ---------------------------------------------------------

@dataclass
class FormulaSubgraph:
    """Operator tree of one equation with shared variable/constant leaves."""

    doc_id: str
    block_id: str
    fragment: GraphFragment
    root_id: str
    ast: MathAST
    variables: dict[str, str] = field(default_factory=dict)  # name -> node id
    constants: dict[str, str] = field(default_factory=dict)  # literal -> node id


def _leaf(out: FormulaSubgraph, base: str, prov, node: Union[Var, Const]) -> str:
    """The one node of a variable name or literal in ``out``, added on
    first use."""
    frag = out.fragment
    if isinstance(node, Var):
        node_id = out.variables.get(node.name)
        if node_id is None:
            node_id = f"{base}:v{node.name}"
            frag.add_node(Node(node_id, NodeType.VARIABLE, node.name, prov_attrs(prov)))
            out.variables[node.name] = node_id
        return node_id
    node_id = out.constants.get(node.literal)
    if node_id is None:
        node_id = f"{base}:k{node.literal}"
        frag.add_node(Node(node_id, NodeType.CONSTANT, node.literal, prov_attrs(prov)))
        out.constants[node.literal] = node_id
    return node_id


def _emit(
    out: FormulaSubgraph, base: str, prov, counter: list[int], node: MathAST
) -> str:
    """The node of one subtree in ``out``, operators numbered in preorder
    from ``counter[0]``."""
    if isinstance(node, (Var, Const)):
        return _leaf(out, base, prov, node)
    index = counter[0]
    counter[0] += 1
    node_id = f"{base}:o{index}"
    if isinstance(node, BinOp):
        symbol = node.op
        children = (node.left, node.right)
    elif isinstance(node, Unary):
        symbol = node.op
        children = (node.operand,)
    elif isinstance(node, Call):
        symbol = node.name
        children = node.args
    else:
        raise NotAnOperator(f"cannot emit operator for {type(node).__name__}")
    frag = out.fragment
    attrs = prov_attrs(prov)
    attrs["expr"] = print_math(node)
    frag.add_node(Node(node_id, NodeType.OPERATOR, symbol, attrs))
    child_ids = [_emit(out, base, prov, counter, child) for child in children]
    for slot, child_id in enumerate(child_ids):
        frag.add_edge(child_id, RelationType.OPERAND_OF, node_id, {"slot": slot})
    for a, b in zip(child_ids, child_ids[1:]):
        frag.add_edge(a, RelationType.PRECEDES, b)
    return node_id


def compile_formula(doc_id: str, eq: EquationBlock) -> FormulaSubgraph:
    """Compile one equation block into an operator-tree fragment.

    Operators are numbered in preorder; a variable name or literal that
    appears several times maps to one shared node. Operand edges run child
    to parent with an argument slot; sibling operands are chained with
    precedence edges so argument order survives undirected traversal.
    The emitters are module functions handed their state, so compiling
    makes no reference cycle and its objects are freed by reference count.
    """
    normalized = normalize_math(eq.math_src)
    ast = parse_math(normalized)
    frag = GraphFragment()
    printed = print_math(ast)
    out = FormulaSubgraph(
        doc_id=doc_id, block_id=eq.id, fragment=frag, root_id="", ast=ast
    )
    root_id = _emit(out, f"{doc_id}:{eq.id}", eq.prov, [0], ast)
    if isinstance(ast, (Var, Const)):
        raise NotAnOperator("an equation must contain at least one operator")
    out.root_id = root_id
    root = next(n for n in frag.nodes if n.id == root_id)
    assert root.attrs["expr"] == printed
    if eq.label is not None:
        root.attrs["label"] = eq.label
    return out


# --- symbol definition linking ----------------------------------------------

DEFINITIONS_TITLE = re.compile(r"\b(definition|symbol|abbreviation|notation)s?\b", re.I)


def link_symbol_definitions(
    variables: Sequence[Var],
    doc: SourceDocument,
    equation: EquationBlock,
) -> tuple[list[tuple[str, str]], list[str]]:
    """Match each formula symbol to the paragraph that defines it.

    Search order per symbol: paragraphs sharing the equation's clause in
    reading order, then the paragraphs of the nearest definitions-titled
    section preceding the equation. The first paragraph saying
    "SYMBOL is/denotes/represents ..." wins. A symbol with no match yields
    no pair and one diagnostic line.
    """
    own_clause: list[ParagraphBlock] = []
    for block in doc.ordered_blocks():
        if (
            isinstance(block, ParagraphBlock)
            and block.prov.clause_id == equation.prov.clause_id
        ):
            own_clause.append(block)

    definitions_block: list[ParagraphBlock] = []
    best_section: Optional[SectionBlock] = None
    paragraphs_by_section: dict[str, list[ParagraphBlock]] = {}
    for block in doc.ordered_blocks():
        if block.id == equation.id:
            break
        if isinstance(block, SectionBlock):
            if DEFINITIONS_TITLE.search(block.title):
                best_section = block
        elif isinstance(block, ParagraphBlock):
            paragraphs_by_section.setdefault(block.parent_section, []).append(block)
    if best_section is not None:
        definitions_block = paragraphs_by_section.get(best_section.id, [])

    pairs: list[tuple[str, str]] = []
    diagnostics: list[str] = []
    for var in variables:
        defines = re.compile(rf"\b{re.escape(var.name)}\b\s+(?:is|denotes|represents)\b")
        found = None
        for para in own_clause + definitions_block:
            if defines.search(para.text):
                found = para.id
                break
        if found is None:
            diagnostics.append(
                f"{doc.id}:{equation.id}: no definition found for symbol {var.name}"
            )
        else:
            pairs.append((var.name, found))
    return pairs, diagnostics


# --- reference evaluation ---------------------------------------------------

_EVAL_CALLS = {
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "log2": math.log2,
    "max": max,
    "min": min,
    "sqrt": math.sqrt,
}


def eval_math(node: MathAST, env: Optional[dict] = None) -> float:
    """Numeric evaluation against an environment of variable bindings.

    An equation evaluates to its right-hand side (the defining expression);
    sum iterates its integer index over both bounds inclusive; an unbound
    variable raises NotFound.
    """
    bindings = env or {}
    if isinstance(node, Var):
        if node.name not in bindings:
            raise NotFound(f"variable {node.name!r} is unbound")
        return float(bindings[node.name])
    if isinstance(node, Const):
        return float(node.literal)
    if isinstance(node, Unary):
        return -eval_math(node.operand, bindings)
    if isinstance(node, Call):
        if node.name == "sum":
            index, lo, hi, body = node.args
            low = int(eval_math(lo, bindings))
            high = int(eval_math(hi, bindings))
            total = 0.0
            inner = dict(bindings)
            for value in range(low, high + 1):
                inner[index.name] = value
                total += eval_math(body, inner)
            return total
        args = [eval_math(a, bindings) for a in node.args]
        return float(_EVAL_CALLS[node.name](*args))
    if node.op == "=":
        return eval_math(node.right, bindings)
    left = eval_math(node.left, bindings)
    right = eval_math(node.right, bindings)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    # math.pow keeps the result real; a negative base with a fractional
    # exponent raises ValueError instead of drifting into complex numbers
    return math.pow(left, right)
