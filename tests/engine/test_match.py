"""Tests for associative matching of path expressions against paths."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Valuation, match_components, match_expression, match_fact
from repro.engine.limits import DEFAULT_LIMITS
from repro.engine.match import lower_pattern
from repro.errors import EvaluationError
from repro.model import EPSILON, Fact, Packed, Path, pack, path
from repro.parser import parse_expression
from repro.storage.columnar import TermTable
from repro.syntax import (
    AtomVariable,
    PackedExpression,
    PathExpression,
    PathVariable,
    atom_var,
    path_var,
    pred,
    pexpr,
)


def bindings(expression_text, concrete):
    """All matching valuations as dictionaries keyed by variable name."""
    expression = parse_expression(expression_text)
    return [
        {str(variable): valuation.path_of(variable) for variable in valuation}
        for valuation in match_expression(expression, concrete)
    ]


class TestConstantsAndAtomicVariables:
    def test_exact_constant_match(self):
        assert bindings("a.b", path("a", "b")) == [{}]
        assert bindings("a.b", path("b", "a")) == []

    def test_atomic_variable_binds_single_atom(self):
        result = bindings("@x.b", path("a", "b"))
        assert result == [{"@x": path("a")}]

    def test_atomic_variable_rejects_packed_value(self):
        assert bindings("@x", path(pack("a"))) == []

    def test_repeated_atomic_variable_must_agree(self):
        assert bindings("@x.@x", path("a", "a")) == [{"@x": path("a")}]
        assert bindings("@x.@x", path("a", "b")) == []


class TestPathVariables:
    def test_path_variable_enumerates_splits(self):
        result = bindings("$x.$y", path("a", "b"))
        assert {(str(b["$x"]), str(b["$y"])) for b in result} == {
            ("ϵ", "a·b"),
            ("a", "b"),
            ("a·b", "ϵ"),
        }

    def test_path_variable_can_be_empty(self):
        assert bindings("$x", EPSILON) == [{"$x": EPSILON}]

    def test_repeated_path_variable(self):
        result = bindings("$x.$x", path("a", "b", "a", "b"))
        assert [b["$x"] for b in result] == [path("a", "b")]
        assert bindings("$x.$x", path("a", "b", "a")) == []

    def test_constants_anchor_the_split(self):
        result = bindings("$u.a.$v", path("b", "a", "c", "a"))
        assert {(str(b["$u"]), str(b["$v"])) for b in result} == {("b", "c·a"), ("b·a·c", "ϵ")}

    def test_only_as_equation_shape(self):
        """The matching behind the equation a·$x = $x·a of Example 3.1."""
        assert bindings("a.$x", path("a", "a", "a")) == [{"$x": path("a", "a")}]


class TestPackingMatches:
    def test_packed_value_matches_packed_expression(self):
        result = bindings("<$x>.@y", path(pack("a", "b"), "c"))
        assert result == [{"$x": path("a", "b"), "@y": path("c")}]

    def test_packed_expression_requires_packed_value(self):
        assert bindings("<$x>", path("a")) == []
        assert bindings("$x", path(pack("a"))) == [{"$x": path(pack("a"))}]

    def test_nested_packing(self):
        result = bindings("<<@x>>", path(pack(pack("a"))))
        assert result == [{"@x": path("a")}]


class TestMatchWithPartialValuation:
    def test_prebound_variable_filters_matches(self):
        expression = parse_expression("$x.$y")
        fixed = Valuation({path_var("x"): path("a")})
        results = list(match_expression(expression, path("a", "b"), fixed))
        assert len(results) == 1
        assert results[0].path_of(path_var("y")) == path("b")

    def test_match_fact_checks_relation_and_arity(self):
        predicate = pred("R", pexpr(atom_var("q"), path_var("x")))
        fact = Fact("R", [path("a", "b", "c")])
        matches = list(match_fact(predicate, fact))
        assert len(matches) == 1
        other = Fact("S", [path("a")])
        assert list(match_fact(predicate, other)) == []
        wider = Fact("R", [path("a"), path("b")])
        assert list(match_fact(predicate, wider)) == []

    def test_every_component_must_be_consumed(self):
        predicate = pred("R", pexpr(path_var("x")), pexpr(path_var("y")))
        fact = Fact("R", [path("a", "b"), path("c")])
        assert list(match_fact(predicate, fact, Valuation({path_var("x"): path("a")}))) == []
        (only,) = match_fact(predicate, fact, Valuation({path_var("x"): path("a", "b")}))
        assert only.path_of(path_var("y")) == path("c")


# -- the split-plan matcher against a brute-force enumerator ------------------------------------------

ATOMS = st.sampled_from(["a", "b", "c"])
VARIABLES = [atom_var("p"), atom_var("q"), path_var("x"), path_var("y"), path_var("z"), path_var("w")]


def _paths(depth=2):
    values = ATOMS if depth == 0 else st.one_of(ATOMS, ATOMS, _paths(depth - 1).map(Packed))
    return st.lists(values, max_size=7).map(lambda items: Path(tuple(items)))


def _expressions(depth=2):
    items = st.one_of(ATOMS, st.sampled_from(VARIABLES), st.sampled_from(VARIABLES[2:]))
    if depth:
        items = st.one_of(items, items, _expressions(depth - 1).map(PackedExpression))
    return st.lists(items, max_size=8).map(PathExpression)


# Built once: a strategy rebuilt on every draw costs more than the oracle.
PATHS_1, PATHS_2 = _paths(1), _paths()
EXPRESSION_LISTS = st.lists(_expressions(), min_size=1, max_size=2)
VARIABLE_SETS = st.sets(st.sampled_from(VARIABLES))


@st.composite
def _match_cases(draw):
    """``(expressions, paths, partial valuation)`` — biased towards cases that do match."""
    expressions = draw(EXPRESSION_LISTS)
    total = Valuation(
        {
            variable: draw(ATOMS if isinstance(variable, AtomVariable) else PATHS_1)
            for variable in VARIABLES
        }
    )
    paths = [
        total.apply_to_expression(expression) if draw(st.booleans()) else draw(PATHS_2)
        for expression in expressions
    ]
    partial = total.restricted(draw(VARIABLE_SETS))
    return expressions, paths, partial


def _brute_force(items, values, binding):
    """Every extension of the dict *binding* under which *items* denote *values*: try all cuts."""
    if not items:
        return [binding] if not values else []
    item, found = items[0], []
    cuts = range(len(values) + 1) if isinstance(item, PathVariable) else range(1, min(len(values), 1) + 1)
    for cut in cuts:
        head = values[:cut]
        if isinstance(item, PackedExpression):
            inner = head[0].contents.elements if isinstance(head[0], Packed) else None
            extended = [] if inner is None else _brute_force(item.inner.items, inner, binding)
        elif isinstance(item, str):
            extended = [binding] if head[0] == item else []
        else:
            value = Path(head) if isinstance(item, PathVariable) else head[0]
            fits = isinstance(value, (str, Path)) and binding.get(item, value) == value
            extended = [{**binding, item: value}] if fits else []
        for candidate in extended:
            found += _brute_force(items[1:], values[cut:], candidate)
    return found


@settings(max_examples=400, deadline=None)
@given(_match_cases())
def test_plan_matcher_agrees_with_brute_force(case):
    expressions, paths, partial = case
    expected = [dict(partial)]
    for expression, concrete in zip(expressions, paths):
        expected = [
            extended
            for binding in expected
            for extended in _brute_force(expression.items, concrete.elements, binding)
        ]
    assert Counter(map(Valuation, expected)) == Counter(match_components(expressions, paths, partial))
    if len(expressions) == 1:
        assert Counter(map(Valuation, expected)) == Counter(
            match_expression(expressions[0], paths[0], partial)
        )


@settings(max_examples=100, deadline=None)
@given(_match_cases(), VARIABLE_SETS)
def test_id_space_driver_agrees_with_the_valuation_matcher(case, dropped):
    """``MatchPlan.extend_id_rows`` (what a lowered binding equation runs) finds
    the matches of ``MatchPlan.match``: same walk, ids in and ids out, and the
    variables outside *keep* projected away with the duplicates they leave."""
    (expression, *_), (concrete, *_), partial = case
    partial = partial.restricted(expression.variables())
    table = TermTable()
    bound = list(partial)
    slots = {variable: index for index, variable in enumerate(bound)}
    row = tuple(table.intern(partial.path_of(variable)) for variable in bound)
    plan = lower_pattern((expression,), frozenset(bound))
    keep = expression.variables() - dropped
    rows, appended = plan.extend_id_rows(
        [row], [table.intern(concrete)], slots, table, DEFAULT_LIMITS, keep
    )
    assert set(appended) == keep - set(bound) and len(set(appended)) == len(appended)
    assert all(found[: len(row)] == row for found in rows)
    names = bound + appended
    found = [
        frozenset(zip(names, (table.path(ident) for ident in extended))) for extended in rows
    ]
    expected = [
        frozenset((variable, valuation.path_of(variable)) for variable in names)
        for valuation in match_expression(expression, concrete, partial)
    ]
    if keep >= expression.variables():
        assert Counter(found) == Counter(expected)
    else:
        assert len(found) == len(set(found)) and set(found) == set(expected)


@pytest.mark.parametrize(
    "expression_text, concrete, bound",
    [
        # extent by length arithmetic, ends checked by index
        ("@p.$y.@q", path("a", "b", "c", "a"), {}),
        ("@p.$y.@q", path("a"), {}),
        ("$x.a.$x", path("b", "a", "b"), {}),
        ("$x.$y.$y", path("a", "b", "c", "b", "c"), {}),
        ("$x.$x.$x", path("a", "a", "a", "a"), {}),
        # a suffix after the last unbound path variable
        ("$u.a.$v.b", path("a", "a", "a", "c"), {}),
        ("$u.a.$v.@p", path("a", "b", "a", pack("c")), {}),
        # anchored splits: constant, ground packed value, bound atom, bound path (also ϵ)
        ("$u.a.$v", path("b", "a", "c", "a"), {}),
        ("$u.<a.b>.$v", path(pack("a", "b"), "c", pack("a", "b")), {}),
        ("$u.@p.$v", path("b", "a", "c", "a"), {"@p": "a"}),
        ("$u.$s.$v", path("a", "c", "d", "b", "c", "d"), {"$s": path("c", "d")}),
        ("$u.$s.$v", path("a", "b"), {"$s": EPSILON}),
        # unanchored: adjacent unbound variables, an unbound atom, a nested match
        ("$u.$s.$v", path("a", "b", "c"), {}),
        ("$u.@p.$v.@p", path("a", "b", "a", "b"), {}),
        ("$u.<$s.@p>.$v", path(pack("a", "b"), pack("c")), {}),
        # a bound variable that overruns the path
        ("$x.@p", path("a", "b"), {"$x": path("a", "b")}),
        ("$u.@p.$s", path("a", "b"), {"$s": path("a", "b")}),
        ("$u.@p.$s", path("a", "b"), {"$s": path("a", "b"), "@p": "a"}),
        ("$u.$s.$s", path("a", "b", "a"), {"$s": path("a", "b")}),
        ("$u.<$x>", path("a"), {}),
        ("$s.<$x>", path("a"), {"$s": path("a")}),
        ("<$x>.$x", path(pack("a"), "a", "b"), {}),
        # ... by more than the whole room: no split at all
        ("$u.a.a.a.$s.$v.a.a.a", path(*"aaaaaa"), {"$s": path("a", "a")}),
        ("$u.@p.$s.$v.a", path("a", "a"), {"$s": path("a", "a"), "@p": "a"}),
        ("$u.$s.$v.a.a", path("a", "a", "a"), {"$s": path("a", "a")}),
        ("$u.$v.$s.a.a", path("a", "a", "a"), {"$s": path("a", "a")}),
    ],
)
def test_each_split_plan_case_agrees_with_brute_force(expression_text, concrete, bound):
    expression = parse_expression(expression_text)
    variables = {str(variable): variable for variable in expression.variables()}
    partial = Valuation({variables[name]: value for name, value in bound.items()})
    expected = _brute_force(expression.items, concrete.elements, dict(partial))
    assert Counter(map(Valuation, expected)) == Counter(
        match_expression(expression, concrete, partial)
    )


def test_bound_tail_variable_against_every_room():
    """``$u.aⁱ.$s.aʲ.$v.aᵏ`` over one letter, ``$s`` bound: every anchor hits, so only the
    length arithmetic rejects a split (a bound ``$s`` longer than the room included)."""
    s = path_var("s")
    for i, j, k, bound_size, size in product(range(5), range(3), range(4), range(4), range(9)):
        expression = parse_expression(".".join(["$u", *"a" * i, "$s", *"a" * j, "$v", *"a" * k]))
        partial = Valuation({s: path(*"a" * bound_size)})
        concrete = path(*"a" * size)
        expected = _brute_force(expression.items, concrete.elements, dict(partial))
        assert Counter(map(Valuation, expected)) == Counter(
            match_expression(expression, concrete, partial)
        ), (expression, bound_size, size)


class TestValuationConstruction:
    def test_public_constructors_still_validate(self):
        with pytest.raises(EvaluationError):
            Valuation({atom_var("p"): path("a", "b")})
        with pytest.raises(EvaluationError):
            Valuation({atom_var("p"): path(pack("a"))})
        with pytest.raises(EvaluationError):
            Valuation().bind(atom_var("p"), path("a", "b"))
        with pytest.raises(EvaluationError):
            Valuation({path_var("x"): 7})

    def test_the_trusted_constructor_is_engine_internal(self):
        import repro.engine

        unchecked = [name for name in dir(Valuation) if "trusted" in name]
        assert unchecked and all(name.startswith("_") for name in unchecked)
        assert not [name for name in repro.engine.__all__ if "trusted" in name.lower()]
        # Every public way of growing a valuation goes through the coercion.
        grown = Valuation().bind(atom_var("p"), path("a")).merge(Valuation({path_var("x"): "b"}))
        assert grown[atom_var("p")] == "a" and grown[path_var("x")] == path("b")
