import random
import time

import pytest

from cablejones.asympt import eval_normalized_at_root
from cablejones.jones import colored_jones
from cablejones.laurent import RootOfUnityPoint, quantum_integer

from cablejones.linkexpr import (
    BadCableParams,
    BadComponentIndex,
    Cable,
    ColorArityMismatch,
    ConnSum,
    ExprSyntaxError,
    ExpressionTooDeep,
    MAX_NESTING,
    NonPositiveColor,
    Twist,
    Unknot,
    component_count,
    mirror_expr,
    parse,
    to_text,
    validate_colors,
)

from conftest import random_expr


class TestParse:
    def test_unknot(self):
        assert parse("unknot") == Unknot()

    def test_cable(self):
        assert parse("cable(2,3;1;unknot)") == Cable(Unknot(), 1, 2, 3)

    def test_nested_cable_index_range(self):
        e = parse("cable(2,3;1;cable(0,2;1;unknot))")
        assert e.i == 1 and component_count(e.child) == 2
        e2 = parse("cable(2,3;2;cable(0,2;1;unknot))")
        assert e2.i == 2

    def test_twist_and_connsum(self):
        assert parse("twist(-4;1;unknot)") == Twist(Unknot(), 1, -4)
        e = parse("connsum(cable(2,3;1;unknot),1;unknot,1)")
        assert isinstance(e, ConnSum) and e.j == 1

    def test_whitespace_insensitive(self):
        assert parse(" cable ( -2 , 3 ; 1 ; unknot ) ") == Cable(Unknot(), 1, -2, 3)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("cable(2 3;1;unknot)")
        assert exc.value.pos == 8
        with pytest.raises(ExprSyntaxError):
            parse("unknot junk")
        with pytest.raises(ExprSyntaxError):
            parse("knot")

    def test_bad_component_index(self):
        with pytest.raises(BadComponentIndex):
            parse("cable(2,3;5;unknot)")
        with pytest.raises(BadComponentIndex):
            parse("twist(1;2;unknot)")

    def test_bad_cable_params(self):
        with pytest.raises(BadCableParams):
            parse("cable(2,0;1;unknot)")
        with pytest.raises(BadCableParams):
            Cable(Unknot(), 1, 2, 0)


class TestParseErrors:
    """Every parser error, with its exact message and position."""

    @pytest.mark.parametrize("text, message, pos", [
        ("cable[2,3;1;unknot)", "expected '('", 5),
        ("twist", "expected '('", 5),
        ("cable(2 3;1;unknot)", "expected ','", 8),
        ("connsum(unknot;1;unknot,1)", "expected ','", 14),
        ("twist(1,1;unknot)", "expected ';'", 7),
        ("cable(2,3;1,unknot)", "expected ';'", 11),
        ("cable(2,3;1;unknot", "expected ')'", 18),
        ("twist(1;1;unknot 3)", "expected ')'", 17),
        ("", "expected a keyword", 0),
        ("  \t\n", "expected a keyword", 4),
        ("cable(2,3;1; )", "expected a keyword", 13),
        ("connsum(,1;unknot,1)", "expected a keyword", 8),
        ("cable(x,3;1;unknot)", "expected an integer", 6),
        ("twist(+ 1;1;unknot)", "expected an integer", 6),
        ("cable(2,\u00bd;1;unknot)", "expected an integer", 8),
        ("twist(1;", "expected an integer", 8),
        ("cable(2,3;0;unknot)", "component index must be positive", 10),
        ("twist(1; -1;unknot)", "component index must be positive", 9),
        ("connsum(unknot,1;unknot,0)", "component index must be positive", 24),
        ("knot", "unknown keyword 'knot'", 0),
        ("cable(2,3;1;unknots)", "unknown keyword 'unknots'", 12),
        ("unknot junk", "trailing input", 7),
        ("unknot)", "trailing input", 6),
        ("twist(1;1;unknot) ;", "trailing input", 18),
    ])
    def test_syntax_error(self, text, message, pos):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert exc.value.pos == pos
        assert str(exc.value) == f"{message} (at position {pos})"

    @pytest.mark.parametrize("text, message", [
        ("cable(\u00b2,3;1;unknot)", "expected an integer"),  # isdigit, not decimal
        ("twist(" + "1" * 5000 + ";1;unknot)", "integer has too many digits"),
        ("twist(\u0663;1;unknot)", "expected an integer"),  # decimal, not ASCII
        ("twist(-1\u0660;1;unknot)", "expected an integer"),
    ], ids=["superscript two", "5000 digits", "Arabic-Indic three", "Arabic-Indic zero"])
    def test_integers_that_int_rejects(self, text, message):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position 6)"

    def test_a_word_with_a_numeral_is_one_token(self):
        with pytest.raises(ExprSyntaxError,
                           match="^unknown keyword 'unknot²' \\(at position 0\\)$"):
            parse("unknot²")

    def test_strand_count_error_has_position(self):
        for text, s, pos in (("cable(2, 0;1;unknot)", 0, 9),
                             ("cable(2,-3;1;x", -3, 8)):
            with pytest.raises(BadCableParams) as exc:
                parse(text)
            assert str(exc.value) == (
                f"cable strand count must be >= 1, got {s} (at position {pos})")

    def test_too_deep_error_has_position(self):
        text = "twist(1;1;" * (MAX_NESTING + 1) + "unknot" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ExpressionTooDeep) as exc:
            parse(text)
        assert str(exc.value) == (f"expression nests more than {MAX_NESTING} levels "
                                  f"(at position {10 * MAX_NESTING})")

    @staticmethod
    def best_time(fn, text, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn(text)
            best = min(best, time.perf_counter() - start)
        return best

    def test_time_is_linear_in_whitespace(self):
        text = "unknot" + " " * 200_000
        assert parse(text) == Unknot()
        assert self.best_time(parse, text) < 0.1

    def test_stops_at_the_first_error(self):
        text = "unknot" + ",;" * 2_000_000

        def fails(text):
            with pytest.raises(ExprSyntaxError, match=r"^trailing input \(at position 6\)$"):
                parse(text)

        assert self.best_time(fails, text) < 0.1


class TestComponentCount:
    def test_examples(self):
        assert component_count(Unknot()) == 1
        assert component_count(parse("cable(2,2;1;unknot)")) == 2
        assert component_count(
            parse("connsum(cable(2,3;1;unknot),1;cable(2,3;1;unknot),1)")) == 1

    def test_cable_gcd_rule(self):
        # gcd(0, s) = s: the 0-winding cable splits into s parallel copies.
        assert component_count(parse("cable(0,4;1;unknot)")) == 4
        assert component_count(parse("cable(6,4;1;unknot)")) == 2
        assert component_count(parse("cable(-6,4;1;unknot)")) == 2

    def test_twist_preserves(self):
        assert component_count(parse("twist(7;2;cable(0,3;1;unknot))")) == 3

    def test_not_an_expression(self):
        with pytest.raises(TypeError, match="not a link expression: 'unknot'"):
            component_count("unknot")


class TestMirror:
    def test_examples(self):
        assert mirror_expr(parse("cable(2,3;1;unknot)")) == parse("cable(-2,3;1;unknot)")
        assert mirror_expr(parse("twist(5;1;unknot)")) == parse("twist(-5;1;unknot)")
        assert mirror_expr(Unknot()) == Unknot()

    def test_not_an_expression(self):
        with pytest.raises(TypeError, match="not a link expression: None"):
            mirror_expr(None)

    def test_structure_preserved(self, rng):
        for _ in range(50):
            e = random_expr(rng)
            m = mirror_expr(e)
            assert component_count(m) == component_count(e)
            assert mirror_expr(m) == e


class TestValidateColors:
    def test_ok(self):
        validate_colors(Unknot(), (7,))

    def test_arity(self):
        with pytest.raises(ColorArityMismatch):
            validate_colors(parse("cable(2,2;1;unknot)"), (2,))

    def test_positive(self):
        with pytest.raises(NonPositiveColor):
            validate_colors(Unknot(), (0,))
        with pytest.raises(NonPositiveColor):
            validate_colors(Unknot(), (-3,))


def test_round_trip_on_random_expressions(rng):
    for _ in range(100):
        e = random_expr(rng, depth=3)
        assert parse(to_text(e)) == e


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_random_expressions_keep_the_component_limit(limit):
    # Seed 29 at depth 3 once drew 37 two-component links in 2000 trees at
    # the limit 1, through a connected sum whose factors ignored it.
    rng = random.Random(29)
    counts = [component_count(random_expr(rng, 3, limit)) for _ in range(2000)]
    assert max(counts) == limit


class TestNestingDepth:
    # A twist or (1,1)-cable layer adds one framing twist and a connected
    # sum with the unknot changes nothing, so with k twist and cable layers
    # every shape has the invariant [n] A^(k (n^2 - 1)).
    LAYERS = {
        "twist": ("twist(1;1;", ")"),
        "cable": ("cable(1,1;1;", ")"),
        "connsum left": ("connsum(", ",1;unknot,1)"),
        "connsum right": ("connsum(unknot,1;", ",1)"),
    }

    @staticmethod
    def nested(layers, depth: int) -> str:
        opens = "".join(layers[k % len(layers)][0] for k in range(depth))
        closes = "".join(layers[k % len(layers)][1] for k in reversed(range(depth)))
        return opens + "unknot" + closes

    def shapes(self, depth: int):
        for name, layer in self.LAYERS.items():
            yield name, self.nested([layer], depth)
        yield "mixed", self.nested(list(self.LAYERS.values()), depth)

    def test_too_deep_is_a_typed_error(self):
        for _, text in self.shapes(MAX_NESTING + 1):
            with pytest.raises(ExpressionTooDeep, match=f"more than {MAX_NESTING}"):
                parse(text)
        with pytest.raises(ExpressionTooDeep):
            parse(self.nested([self.LAYERS["twist"]], 2000))
        assert issubclass(ExpressionTooDeep, ValueError)

    def test_deepest_accepted_expression_runs_through(self):
        for name, text in self.shapes(MAX_NESTING):
            e = parse(text)
            twists = text.count("twist") + text.count("cable")
            n = 3
            expected = quantum_integer(n).scale_shift(1, twists * (n * n - 1))
            assert colored_jones(e, (n,)) == expected, name
            assert colored_jones(mirror_expr(e), (n,)) == expected.mirror(), name
            assert parse(to_text(e)) == e
            value = eval_normalized_at_root(e, n)
            assert abs(value - RootOfUnityPoint(n).a0 ** (twists * (n * n - 1))) < 1e-9, name
