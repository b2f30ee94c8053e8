"""Math normalization, parsing, printing, evaluation, and formula graphs."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semrag.doc_model import EquationBlock, ParagraphBlock, Provenance, SectionBlock, SourceDocument
from semrag.errors import NotFound, ParseError, UnsupportedConstructError
from semrag.formula_compiler import (
    BinOp,
    Call,
    Const,
    KNOWN_CALLS,
    Unary,
    Var,
    compile_formula,
    eval_math,
    link_symbol_definitions,
    normalize_math,
    parse_math,
    print_math,
)
from semrag.graph_core import NodeType, RelationType, merge_units

SHANNON_SRC = r"C = B \cdot \log_2(1 + \frac{S}{N})"
SHANNON_NORM = "C = B * log2(1 + (S)/(N))"


# ---------------------------------------------------------------------------
# normalization


@pytest.mark.parametrize(
    "src,expected",
    [
        (r"\frac{S}{N}", "(S)/(N)"),
        (r"a \cdot b", "a * b"),
        (r"a \times b", "a * b"),
        (r"\log_2(x)", "log2(x)"),
        (r"\log_{2}(x)", "log2(x)"),
        (r"\log(x)", "log(x)"),
        (r"x_{i}", "x_i"),
        (r"x^{n+1}", "x^(n+1)"),
        (r"\sum_{i=1}^{n} f", "sum(i,1,n,f)"),
        (r"\sum_{i=1}^{N} x_{i}", "sum(i,1,N,x_i)"),
        (r"\sqrt{x+1}", "sqrt(x+1)"),
        (r"\left( a \right)", "( a )"),
        ("  a   +  b ", "a + b"),
        (SHANNON_SRC, SHANNON_NORM),
    ],
)
def test_normalization_rule_table(src, expected):
    assert normalize_math(src) == expected


@pytest.mark.parametrize(
    "src",
    [
        r"\frac{S}{N}",
        SHANNON_SRC,
        r"\sum_{i=1}^{n} x_{i}^{2}",
        r"\sqrt{\frac{a}{b}}",
        "plain + text",
    ],
)
def test_normalization_is_idempotent(src):
    once = normalize_math(src)
    assert normalize_math(once) == once


@pytest.mark.parametrize(
    "src",
    [r"\int_0^1 f", r"\alpha + 1", r"\partial x", r"\log_10(x)", "a } b", "\\"],
)
def test_unsupported_constructs_raise(src):
    with pytest.raises(UnsupportedConstructError):
        normalize_math(src)


def test_unsupported_error_names_the_token():
    with pytest.raises(UnsupportedConstructError) as err:
        normalize_math(r"\int_0^1 f")
    assert "int" in str(err.value)


def test_nested_fraction_normalizes_recursively():
    assert normalize_math(r"\frac{\frac{a}{b}}{c}") == "((a)/(b))/(c)"


# ---------------------------------------------------------------------------
# parsing


def test_precedence_product_binds_tighter_than_sum():
    ast = parse_math("1+2*3")
    assert ast == BinOp("+", Const("1"), BinOp("*", Const("2"), Const("3")))


def test_power_is_right_associative():
    ast = parse_math("2^3^2")
    assert ast == BinOp("^", Const("2"), BinOp("^", Const("3"), Const("2")))


def test_subtraction_is_left_associative():
    ast = parse_math("a-b-c")
    assert ast == BinOp("-", BinOp("-", Var("a"), Var("b")), Var("c"))


def test_unary_minus_sits_between_power_and_product():
    assert parse_math("-a*b") == BinOp("*", Unary("neg", Var("a")), Var("b"))
    assert parse_math("-a^b") == Unary("neg", BinOp("^", Var("a"), Var("b")))


def test_shannon_fixture_parses_to_expected_tree():
    ast = parse_math(SHANNON_NORM)
    assert ast == BinOp(
        "=",
        Var("C"),
        BinOp(
            "*",
            Var("B"),
            Call(
                "log2",
                (BinOp("+", Const("1"), BinOp("/", Var("S"), Var("N"))),),
            ),
        ),
    )


def test_equation_is_non_associative():
    with pytest.raises(ParseError):
        parse_math("a = b = c")


def test_sum_call_requires_index_variable_first():
    ast = parse_math("sum(i,1,n,i^2)")
    assert isinstance(ast, Call) and ast.name == "sum"
    assert ast.args[0] == Var("i")
    with pytest.raises(ParseError):
        parse_math("sum(1,1,n,2)")


def test_call_arity_is_enforced():
    with pytest.raises(ParseError):
        parse_math("log2(a, b)")
    with pytest.raises(ParseError):
        parse_math("max(a)")
    assert parse_math("max(a, b)") == Call("max", (Var("a"), Var("b")))


def test_unknown_function_name_is_rejected():
    with pytest.raises(ParseError):
        parse_math("sinc(x)")


def test_parse_error_carries_offset_and_expectation():
    with pytest.raises(ParseError) as err:
        parse_math("1 + ")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_math("(1 + 2")
    assert err.value.offset == 6


def test_parse_error_lists_expected_tokens_whole():
    with pytest.raises(ParseError) as err:
        parse_math("(a + b")
    assert err.value.expected == (")",)
    assert "expected one of [')']" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_math("sinc(x)")
    assert "sqrt" in err.value.expected and "s" not in err.value.expected


def test_implicit_multiplication_is_not_a_rule():
    with pytest.raises(ParseError):
        parse_math("B log2(x)")


# ---------------------------------------------------------------------------
# canonical printing and stability


def random_ast(rng: random.Random, depth: int) -> object:
    """Random expression tree; equations only ever appear at the root."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice("abcxyzBSN"))
        literal = rng.choice(["0", "1", "2", "3.5", "10", "0.25"])
        return Const(literal)
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if pick < 0.7:
        return Unary("neg", random_ast(rng, depth - 1))
    name = rng.choice([c for c in KNOWN_CALLS if c != "sum"])
    if name in ("max", "min"):
        args = (random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    else:
        args = (random_ast(rng, depth - 1),)
    return Call(name, args)


def random_equation(rng: random.Random, depth: int) -> object:
    if rng.random() < 0.3:
        return BinOp("=", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    return random_ast(rng, depth)


@pytest.mark.parametrize("seed", range(50))
def test_parse_print_round_trip_on_random_trees(seed):
    rng = random.Random(seed)
    for _ in range(20):
        tree = random_equation(rng, rng.randint(1, 8))
        text = print_math(tree)
        assert parse_math(text) == tree
        assert print_math(parse_math(text)) == text


def test_round_trip_keeps_sum_bodies():
    tree = Call("sum", (Var("i"), Const("1"), Var("n"), BinOp("^", Var("i"), Const("2"))))
    assert parse_math(print_math(tree)) == tree


def test_division_always_prints_parenthesized():
    assert print_math(BinOp("/", Var("a"), Var("b"))) == "(a)/(b)"
    assert print_math(BinOp("/", BinOp("+", Var("a"), Var("b")), Const("2"))) == "(a + b)/(2)"


# ---------------------------------------------------------------------------
# evaluation


def test_shannon_fixture_evaluates_to_two():
    ast = parse_math(normalize_math(SHANNON_SRC))
    assert eval_math(ast, {"B": 1.0, "S": 3.0, "N": 1.0}) == pytest.approx(2.0, abs=1e-12)


def test_sum_evaluates_inclusive_bounds():
    ast = parse_math("sum(i,1,4,i^2)")
    assert eval_math(ast) == pytest.approx(30.0)


def test_eval_reports_unbound_variable():
    with pytest.raises(NotFound):
        eval_math(parse_math("x + 1"), {})


def test_eval_handles_unary_and_calls():
    assert eval_math(parse_math("-(2^3)")) == -8.0
    assert eval_math(parse_math("sqrt(abs(0 - 9))")) == 3.0
    assert eval_math(parse_math("min(2, max(3, 1))")) == 2.0


@pytest.mark.parametrize("seed", range(20))
def test_print_preserves_value_on_random_trees(seed):
    # The canonical rendering denotes the same function: evaluating the
    # original tree and the reparsed print agree on random bindings.
    rng = random.Random(seed + 500)
    env = {name: rng.uniform(0.5, 3.0) for name in "abcxyzBSN"}
    for _ in range(10):
        tree = random_ast(rng, 5)
        try:
            expected = eval_math(tree, env)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if not math.isfinite(expected):
            continue
        again = eval_math(parse_math(print_math(tree)), env)
        assert again == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# formula graphs


def _eq(src: str, label="(1)") -> EquationBlock:
    prov = Provenance("DOC", "5.2", 4, (12.0, 40.0, 520.0, 60.0))
    return EquationBlock("e1", prov, src, label)


def test_smallest_binary_formula_graph():
    sub = compile_formula("DOC", _eq("a+b", label=None))
    g = merge_units([sub.fragment])
    assert len(g.nodes_of_type(NodeType.OPERATOR)) == 1
    assert len(g.nodes_of_type(NodeType.VARIABLE)) == 2
    operand_edges = [e for e in g.edges if e.rel is RelationType.OPERAND_OF]
    assert sorted(e.attrs["slot"] for e in operand_edges) == [0, 1]
    precedes = [e for e in g.edges if e.rel is RelationType.PRECEDES]
    assert len(precedes) == 1


def test_repeated_variable_shares_one_node():
    sub = compile_formula("DOC", _eq("a+a", label=None))
    g = merge_units([sub.fragment])
    assert len(g.nodes_of_type(NodeType.VARIABLE)) == 1
    operand_edges = [e for e in g.edges if e.rel is RelationType.OPERAND_OF]
    assert len(operand_edges) == 2


def test_shannon_formula_graph_counts():
    sub = compile_formula("DOC", _eq(SHANNON_SRC))
    g = merge_units([sub.fragment])
    assert len(g.nodes_of_type(NodeType.OPERATOR)) == 5
    assert len(g.nodes_of_type(NodeType.VARIABLE)) == 4
    assert len(g.nodes_of_type(NodeType.CONSTANT)) == 1
    root = g.nodes[sub.root_id]
    assert root.text == "="
    assert root.attrs["label"] == "(1)"
    assert root.attrs["expr"] == SHANNON_NORM


def test_operand_slots_reproduce_child_order():
    rng = random.Random(7)
    for _ in range(25):
        tree = random_equation(rng, 5)
        if isinstance(tree, (Var, Const)):
            continue
        block = EquationBlock(
            "e1",
            Provenance("DOC", "5.2", 4, (0.0, 0.0, 1.0, 1.0)),
            print_math(tree),
            None,
        )
        sub = compile_formula("DOC", block)
        g = merge_units([sub.fragment])
        # rebuild each operator's child list from slot attributes and compare
        # against the printed expression stored on the operator node
        for op_node in g.nodes_of_type(NodeType.OPERATOR):
            children = sorted(
                (
                    (e.attrs["slot"], e.src)
                    for e in g.edges
                    if e.rel is RelationType.OPERAND_OF and e.dst == op_node.id
                ),
            )
            slots = [slot for slot, _ in children]
            assert slots == list(range(len(slots)))
            reparsed = parse_math(op_node.attrs["expr"])
            arity = (
                len(reparsed.args)
                if isinstance(reparsed, Call)
                else (1 if isinstance(reparsed, Unary) else 2)
            )
            assert len(slots) == arity


def test_sibling_chain_orders_sum_arguments():
    sub = compile_formula("DOC", _eq("sum(i,1,n,i^2)", label=None))
    g = merge_units([sub.fragment])
    chain = {
        (e.src, e.dst) for e in g.edges if e.rel is RelationType.PRECEDES
    }
    # the four sum arguments chain pairwise; the nested power contributes
    # one more link between its own two operands
    assert ("DOC:e1:vi", "DOC:e1:k1") in chain
    assert ("DOC:e1:k1", "DOC:e1:vn") in chain
    assert ("DOC:e1:vn", "DOC:e1:o1") in chain
    assert ("DOC:e1:vi", "DOC:e1:k2") in chain
    assert len(chain) == 4


# ---------------------------------------------------------------------------
# symbol definition linking


def _doc_with(paragraphs, equation, extra_sections=()):
    prov = lambda c, s: Provenance("DOC", c, 1, (0.0, 10.0 * s, 100.0, 10.0 * s + 8))
    blocks = [SectionBlock("s1", prov("3.1", 0), 1, "Definitions of symbols")]
    blocks += [
        ParagraphBlock(f"pd{i}", prov("3.1", i + 1), text, "s1")
        for i, text in enumerate(extra_sections)
    ]
    blocks.append(SectionBlock("s2", prov("5.2", 10), 1, "Capacity"))
    blocks += [
        ParagraphBlock(f"p{i}", prov("5.2", 11 + i), text, "s2")
        for i, text in enumerate(paragraphs)
    ]
    blocks.append(equation)
    return SourceDocument("DOC", tuple(blocks), tuple(range(len(blocks))))


def test_symbol_links_to_same_clause_paragraph():
    eq = _eq(SHANNON_SRC)
    doc = _doc_with(["where B denotes the channel bandwidth"], eq)
    pairs, diags = link_symbol_definitions([Var("B")], doc, eq)
    assert pairs == [("B", "p0")]
    assert diags == []


def test_unmatched_symbol_yields_diagnostic_only():
    eq = _eq(SHANNON_SRC)
    doc = _doc_with(["no symbols here"], eq)
    pairs, diags = link_symbol_definitions([Var("Q")], doc, eq)
    assert pairs == []
    assert len(diags) == 1 and "Q" in diags[0]


def test_same_clause_definition_beats_definitions_section():
    eq = _eq(SHANNON_SRC)
    doc = _doc_with(
        ["here B is the local bandwidth value"],
        eq,
        extra_sections=["B denotes the global bandwidth symbol"],
    )
    pairs, _ = link_symbol_definitions([Var("B")], doc, eq)
    assert pairs == [("B", "p0")]


def test_definitions_section_used_as_fallback():
    eq = _eq(SHANNON_SRC)
    doc = _doc_with(
        ["nothing relevant"],
        eq,
        extra_sections=["B denotes the global bandwidth symbol"],
    )
    pairs, _ = link_symbol_definitions([Var("B")], doc, eq)
    assert pairs == [("B", "pd0")]


def test_pipeline_emits_definition_edges_for_symbols():
    from semrag.pipeline import compile_corpus

    eq = _eq(SHANNON_SRC)
    doc = _doc_with(["where B denotes the channel bandwidth"], eq)
    g = compile_corpus([doc])
    defines = {
        (e.src, e.dst) for e in g.edges if e.rel is RelationType.DEFINES
    }
    assert ("DOC:e1:vB", "DOC:p0") in defines
