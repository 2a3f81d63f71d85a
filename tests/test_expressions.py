import dataclasses
import dis
import gc
import itertools
import math
import operator
import random
import sys
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from chebroots import expressions, find_roots
from chebroots.expressions import (
    BinaryOp,
    FunctionCall,
    Number,
    ParseError,
    UnaryNeg,
    Variable,
    differentiate_expr,
    eval_expr,
    expression_to_text,
    parse,
)


class TestParse:
    def test_function_call(self):
        assert parse("cos(x)") == FunctionCall("cos", Variable())

    def test_gaussian_quartic_at_zero(self):
        expr = parse("exp(-0.5*x^2)*(12-48*x^2+16*x^4)")
        assert eval_expr(expr, 0.0) == pytest.approx(12.0)

    def test_power_is_right_associative(self):
        assert eval_expr(parse("2^3^2"), 0.0) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_expr(parse("-2^2"), 0.0) == -4.0
        assert eval_expr(parse("(-2)^2"), 0.0) == 4.0

    def test_precedence_of_products_and_sums(self):
        assert eval_expr(parse("1+2*3"), 0.0) == 7.0
        assert eval_expr(parse("(1+2)*3"), 0.0) == 9.0
        assert eval_expr(parse("2-3-4"), 0.0) == -5.0

    def test_whitespace_ignored(self):
        assert parse(" cos( x ) ") == FunctionCall("cos", Variable())

    def test_scientific_literals(self):
        assert parse("1.5e-3") == Number(1.5e-3)
        assert parse(".25") == Number(0.25)

    def test_unary_minus_stacks(self):
        assert parse("--x") == UnaryNeg(UnaryNeg(Variable()))

    def test_exponent_may_be_signed(self):
        assert parse("x^-2") == BinaryOp("^", Variable(), UnaryNeg(Number(2.0)))

    # op1 -> one letter per op2 in "+-*/^": "L" groups x op1 2 op2 3 as
    # (x op1 2) op2 3, "R" as x op1 (2 op2 3)
    GROUPS = {
        "+": "LLRRR",
        "-": "LLRRR",
        "*": "LLLLR",
        "/": "LLLLR",
        "^": "LLLLR",
    }

    @staticmethod
    def grouped(op1, op2, signs):
        """The tree of x op1 2 op2 3 with signs[k] before operand k.

        A leading minus negates its operand and the "^" chain that follows
        it: "-x^2" is -(x^2), "x*-2^3" is x*(-(2^3)).
        """
        def neg(k, node):
            return UnaryNeg(node) if signs[k] else node

        a, b, c = Variable(), Number(2.0), Number(3.0)
        if TestParse.GROUPS[op1]["+-*/^".index(op2)] == "L":
            left = (neg(0, BinaryOp("^", a, neg(1, b))) if op1 == "^"
                    else BinaryOp(op1, neg(0, a), neg(1, b)))
            return BinaryOp(op2, left, neg(2, c))
        right = (neg(1, BinaryOp("^", b, neg(2, c))) if op2 == "^"
                 else BinaryOp(op2, neg(1, b), neg(2, c)))
        return neg(0, BinaryOp("^", a, right)) if op1 == "^" else BinaryOp(op1, neg(0, a), right)

    @pytest.mark.parametrize("op1", "+-*/^")
    @pytest.mark.parametrize("op2", "+-*/^")
    def test_grouping_of_every_operator_pair(self, op1, op2):
        for signs in itertools.product((False, True), repeat=3):
            s = ["-" if sign else "" for sign in signs]
            text = f"{s[0]}x{op1}{s[1]}2{op2}{s[2]}3"
            assert parse(text) == self.grouped(op1, op2, signs), text

    def test_deep_nesting_parses(self):
        assert parse("(" * 120 + "x" + ")" * 120) == Variable()
        assert parse("-" * 900 + "x") == chain(["-"] * 900)


class TestParseErrors:
    def test_unknown_identifier_with_offset(self):
        with pytest.raises(ParseError, match="unknown identifier 'y'") as excinfo:
            parse("2*y")
        assert excinfo.value.position == 2

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="sinh"):
            parse("sinh(x)")

    def test_unbalanced_parentheses(self):
        with pytest.raises(ParseError, match="unbalanced|expected"):
            parse("(1+2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing") as excinfo:
            parse("1+2 3")
        assert excinfo.value.position == 4

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character") as excinfo:
            parse("1 + @")
        assert excinfo.value.position == 4

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse("1+*2")

    def test_implicit_multiplication_is_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("2 x")

    def test_overflowing_literal(self):
        with pytest.raises(ParseError, match="overflows"):
            parse("1e999")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("")

    @pytest.mark.parametrize("text, message, position", [
        ("1 + @", "unexpected character '@'", 4),
        # any non-ASCII character is an error, a Unicode digit or space too,
        # so an offset counts bytes as well as characters
        ("\u0663*x", "unexpected character '\u0663'", 0),
        ("\u2003x+y", "unexpected character '\\u2003'", 0),
        ("x+y\u2003", "unexpected character '\\u2003'", 3),
        ("1e999", "number literal '1e999' overflows", 0),
        ("2*y", "unknown identifier 'y'", 2),
        ("sin x", "expected '('", 4),
        ("sin(x", "expected ')'", 5),
        ("(1+2", "unbalanced parenthesis", 4),
        ("()", "expected a value, got ')'", 1),
        ("1+", "unexpected end of input", 2),
        ("", "unexpected end of input", 0),
        ("1+2 3", "trailing input starting with '3'", 4),
    ])
    def test_every_message_with_its_offset(self, text, message, position):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert str(excinfo.value) == f"{message} (at offset {position})"
        assert excinfo.value.position == position


def chain(openers, leaf=Variable()):
    """The tree of ``openers`` around ``leaf``: "(" builds no node, "-" a
    UnaryNeg, "2^" a power of 2 and "sin(" a call."""
    tree = leaf
    for opener in reversed(openers):
        if opener == "-":
            tree = UnaryNeg(tree)
        elif opener == "2^":
            tree = BinaryOp("^", Number(2.0), tree)
        elif opener == "sin(":
            tree = FunctionCall("sin", tree)
    return tree


def reference_parse(text):
    """The tree of the module docstring's EBNF by recursive descent, or None
    for text outside the grammar."""
    try:
        tokens = [value for _, value, _ in expressions._tokenize(text)]
    except ParseError:
        return None
    at = 0

    def take(value=None):
        nonlocal at
        if value is not None and tokens[at] != value:
            raise SyntaxError
        at += 1
        return tokens[at - 1]

    def expr():  # term { ("+" | "-") term }
        node = term()
        while tokens[at] in ("+", "-"):
            node = BinaryOp(take(), node, term())
        return node

    def term():  # unary { ("*" | "/") unary }
        node = unary()
        while tokens[at] in ("*", "/"):
            node = BinaryOp(take(), node, unary())
        return node

    def unary():  # "-" unary | power
        if tokens[at] == "-":
            take()
            return UnaryNeg(unary())
        return power()

    def power():  # atom [ "^" unary ]
        node = atom()
        if tokens[at] == "^":
            take()
            return BinaryOp("^", node, unary())
        return node

    def atom():  # NUMBER | "x" | FUNC "(" expr ")" | "(" expr ")"
        value = take()
        if value == "x":
            return Variable()
        if value == "(" or value in expressions._FUNCTIONS:
            if value != "(":
                take("(")
            node = expr()
            take(")")
            return node if value == "(" else FunctionCall(value, node)
        if value[:1].isdigit() or value[:1] == ".":
            if not math.isfinite(float(value)):
                raise SyntaxError
            return Number(float(value))
        raise SyntaxError

    try:
        node = expr()
        take("")
    except SyntaxError:
        return None
    return node


class TestParseIsTotal:
    """parse gives a tree or a ParseError inside the text, never anything
    else, and its trees are the grammar's."""

    # valid and invalid tokens, non-ASCII characters among them
    TOKENS = ["x", "x", "1", "2.5", ".5", "1e3", "1e999", "1e", "3.", "sin", "cos", "exp", "abs", "sqrt",
              "y", "sinh", "xx", "+", "-", "-", "*", "/", "^", "(", "(", ")", ")", " ", "@", ",",
              "\u0663", "\u2003", "\u00e9", "e5", "2x", "\t"]

    @staticmethod
    def outcome(text):
        """The tree, or None after checking the ParseError's offset."""
        try:
            return parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text), text
            assert text[:exc.position].isascii(), text  # so the offset counts bytes
            return None

    def test_random_texts(self):
        rng = random.Random(19)
        for _ in range(20000):
            text = "".join(rng.choice(self.TOKENS) for _ in range(rng.randint(0, 24)))
            assert self.outcome(text) == reference_parse(text), text

    def test_random_grammar_texts(self):
        # texts of the grammar, a third of them with one token changed
        rng = random.Random(20)

        def tokens(depth):
            r = rng.random()
            if depth <= 0 or r < 0.25:
                return [rng.choice(["x", "2", "0.5", "3e2"])]
            if r < 0.4:
                return ["-", *tokens(depth - 1)]
            if r < 0.5:
                return ["(", *tokens(depth - 1), ")"]
            if r < 0.6:
                return [rng.choice(["sin", "log", "abs"]), "(", *tokens(depth - 1), ")"]
            return [*tokens(depth - 1), rng.choice("+-*/^"), *tokens(depth - 1)]

        trees = 0
        for _ in range(5000):
            toks = tokens(rng.randint(0, 6))
            if rng.random() < 1 / 3:
                k = rng.randrange(len(toks) + 1)
                toks[k:k + rng.randint(0, 1)] = [rng.choice(self.TOKENS)] * rng.randint(0, 1)
            text = "".join(toks)
            tree = self.outcome(text)
            assert tree == reference_parse(text), text
            if tree is not None:
                trees += 1
                assert parse(expression_to_text(tree)) == tree, text
        assert trees > 3000

    def test_random_deep_texts(self):
        rng = random.Random(21)
        for _ in range(4):
            openers = rng.choices(["(", "-", "sin(", "2^"], k=10000)
            closers = [")" for opener in reversed(openers) if opener.endswith("(")]
            text = "".join(openers) + "x" + "".join(closers)
            assert parse(text) == chain(openers)
            # one token dropped, doubled or replaced somewhere in the text
            toks = [*openers, "x", *closers]
            k = rng.randrange(len(toks))
            toks[k:k + 1] = rng.choice([[], [toks[k]] * 2, [rng.choice(self.TOKENS)]])
            self.outcome("".join(toks))

    @pytest.mark.parametrize("depth", [5000, 100000])
    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", ""), ("2^", ""), ("sin(", ")")],
                             ids=["parentheses", "signs", "powers", "calls"])
    def test_deep_text_parses(self, opener, closer, depth):
        # no depth is too deep: the parser keeps its own stack
        assert parse(opener * depth + "x" + closer * depth) == chain([opener] * depth)
        with pytest.raises(ParseError, match="^unexpected end of input"):
            parse(opener * depth)


class TestEval:
    def test_variable(self):
        assert eval_expr(parse("x"), 3.5) == 3.5

    def test_cosine_at_zero(self):
        assert eval_expr(parse("cos(x)"), 0.0) == 1.0

    def test_quartic_at_one(self):
        assert eval_expr(parse("16*x^4-48*x^2+12"), 1.0) == -20.0

    def test_domain_violations_return_non_finite(self):
        assert math.isnan(eval_expr(parse("log(x)"), -1.0))
        assert math.isnan(eval_expr(parse("log(x)"), 0.0))
        assert math.isnan(eval_expr(parse("sqrt(x)"), -4.0))
        assert eval_expr(parse("1/x"), 0.0) == math.inf
        assert eval_expr(parse("-1/x"), 0.0) == -math.inf
        assert math.isnan(eval_expr(parse("x/x"), 0.0))
        assert math.isnan(eval_expr(parse("x^0.5"), -2.0))

    def test_overflow_saturates_to_infinity(self):
        assert eval_expr(parse("exp(x)"), 1e4) == math.inf
        assert eval_expr(parse("10^x"), 1e3) == math.inf

    @pytest.mark.parametrize("text, x, expected", [
        # IEEE pow: an overflow keeps the sign of a negative base to an odd power
        ("(-10)^x", 1001.0, -math.inf),
        ("(-10)^x", 1000.0, math.inf),
        # a zero base to a negative power is infinite, as 1/x is at 0
        ("x^-1", 0.0, math.inf),
        ("x^-1", -0.0, -math.inf),
        ("x^-2", -0.0, math.inf),
        ("x^-0.5", 0.0, math.inf),
        # a negative base to a fractional power stays NaN
        ("(-2)^x", 0.5, math.nan),
        ("x^2.5", -1e300, math.nan),
    ])
    def test_power_follows_ieee_pow(self, text, x, expected):
        # repr tells nan and the sign of infinity apart
        assert repr(eval_expr(parse(text), x)) == repr(expected)

    def test_all_functions(self):
        assert eval_expr(parse("sin(x)"), math.pi / 2) == pytest.approx(1.0)
        assert eval_expr(parse("tan(x)"), math.pi / 4) == pytest.approx(1.0)
        assert eval_expr(parse("sqrt(x)"), 9.0) == 3.0
        assert eval_expr(parse("abs(x)"), -2.5) == 2.5
        assert eval_expr(parse("log(x)"), math.e) == pytest.approx(1.0)

    SPECIALS = (math.inf, -math.inf, math.nan, 0.0, -0.0)
    NAN, INF = math.nan, math.inf
    EDGES = {
        # f at each of SPECIALS, then (x, f(x)) at the edges of the domain
        "sin": ((NAN, NAN, NAN, 0.0, -0.0), ()),
        "cos": ((NAN, NAN, NAN, 1.0, 1.0), ()),
        "tan": ((NAN, NAN, NAN, 0.0, -0.0), ()),
        "exp": ((INF, 0.0, NAN, 1.0, 1.0), ((710.0, INF), (-746.0, 0.0))),
        "log": ((INF, NAN, NAN, NAN, NAN), ((5e-324, -744.4400719213812), (-5e-324, NAN))),
        "sqrt": ((INF, NAN, NAN, 0.0, -0.0), ((5e-324, 2.2227587494850775e-162), (-5e-324, NAN))),
        "abs": ((INF, INF, NAN, 0.0, 0.0), ()),
    }

    @pytest.mark.parametrize("name", list(EDGES))
    def test_function_at_non_finite_and_edge_points(self, name):
        # repr tells nan and the sign of zero apart
        at_specials, at_edges = self.EDGES[name]
        tree = parse(f"{name}(x)")
        for x, expected in list(zip(self.SPECIALS, at_specials)) + list(at_edges):
            assert repr(eval_expr(tree, x)) == repr(expected), x


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate_expr(parse("x^2"))
        assert eval_expr(d, 2.0) == 4.0

    def test_cosine_derivative(self):
        d = differentiate_expr(parse("cos(x)"))
        assert eval_expr(d, math.pi / 2) == pytest.approx(-1.0)

    def test_gaussian_chain_rule(self):
        d = differentiate_expr(parse("exp(-0.5*x^2)"))
        assert eval_expr(d, 1.0) == pytest.approx(-math.exp(-0.5), abs=1e-12)

    def test_abs_derivative_is_the_sign(self):
        # abs has no derivative at 0, so its derivative is NaN there
        d = differentiate_expr(parse("abs(x)+1"))
        assert eval_expr(d, 2.0) == 1.0
        assert eval_expr(d, -2.0) == -1.0
        assert math.isnan(eval_expr(d, 0.0))

    TWO_X = BinaryOp("*", Number(2.0), Variable())
    RULES = {
        "sin": BinaryOp("*", FunctionCall("cos", TWO_X), Number(2.0)),
        "cos": UnaryNeg(BinaryOp("*", FunctionCall("sin", TWO_X), Number(2.0))),
        "tan": BinaryOp("/", Number(2.0), BinaryOp("^", FunctionCall("cos", TWO_X), Number(2.0))),
        "exp": BinaryOp("*", FunctionCall("exp", TWO_X), Number(2.0)),
        "log": BinaryOp("/", Number(2.0), TWO_X),
        "sqrt": BinaryOp("/", Number(2.0), BinaryOp("*", Number(2.0), FunctionCall("sqrt", TWO_X))),
        "abs": BinaryOp("*", BinaryOp("/", TWO_X, FunctionCall("abs", TWO_X)), Number(2.0)),
    }

    @pytest.mark.parametrize("name", list(RULES))
    def test_chain_rule_tree(self, name):
        # the CLI polishes with these trees, so their shape is part of its output
        assert differentiate_expr(FunctionCall(name, self.TWO_X)) == self.RULES[name]

    @pytest.mark.parametrize("text", ["exp(x^2)", "sqrt(x^2+1)", "abs(x-1)", "x^x"])
    def test_rule_reuses_the_node_it_differentiates(self, text):
        # a rule that reads f's own value reads f's node, so compiled code computes it once
        t = parse(text)
        d = differentiate_expr(t)
        assert any(node is t for node in expressions._post_order(d))
        assert_bit_identical(d, [0.5, 2.0, -1.5, 0.0])

    def test_quotient_rule_never_squares_the_denominator(self):
        # v^2 overflows for |v| above about 1e154 and underflows below 1e-154
        assert eval_expr(differentiate_expr(parse("x/1e200")), 0.3) == 1e-200
        assert eval_expr(differentiate_expr(parse("x/1e-200")), 0.3) == 1e200

    def test_general_power_rule(self):
        d = differentiate_expr(parse("x^x"))
        expected = 4.0 * (math.log(2.0) + 1.0)  # d/dx x^x = x^x (ln x + 1)
        assert eval_expr(d, 2.0) == pytest.approx(expected, abs=1e-12)

    CORPUS = [
        "x^3-2*x+1",
        "sin(x)*cos(x)",
        "exp(-0.5*x^2)*(12-48*x^2+16*x^4)",
        "sin(x)/(2+cos(x))",
        "log(x^2+1)",
        "sqrt(x^2+4)",
        "tan(x/4)",
        "2^x",
        "-x^2+x/3",
        "x*abs(x^2-2)",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_matches_central_differences(self, text):
        expr = parse(text)
        d = differentiate_expr(expr)
        rng = np.random.default_rng(zlib.crc32(text.encode()))
        h = 1e-6
        for x in rng.uniform(-3, 3, size=50):
            fd = (eval_expr(expr, x + h) - eval_expr(expr, x - h)) / (2 * h)
            assert eval_expr(d, float(x)) == pytest.approx(fd, abs=1e-5)


def random_expression(rng, depth):
    """Random AST plus an independent reference evaluator for it."""
    choices = ("number", "x") if depth == 0 else (
        "number", "x", "neg", "add", "sub", "mul", "div", "pow", "call"
    )
    kind = choices[int(rng.integers(0, len(choices)))]
    if kind == "number":
        value = round(float(rng.uniform(0, 4)), 3)
        return Number(value), (lambda x, v=value: v)
    if kind == "x":
        return Variable(), (lambda x: x)
    if kind == "neg":
        node, ref = random_expression(rng, depth - 1)
        return UnaryNeg(node), (lambda x, r=ref: -r(x))
    if kind == "call":
        name = ("sin", "cos", "exp")[int(rng.integers(0, 3))]
        node, ref = random_expression(rng, depth - 1)
        table = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
        return FunctionCall(name, node), (lambda x, r=ref, fn=table[name]: fn(r(x)))
    left, lref = random_expression(rng, depth - 1)
    right, rref = random_expression(rng, depth - 1)
    if kind == "add":
        return BinaryOp("+", left, right), (lambda x, a=lref, b=rref: a(x) + b(x))
    if kind == "sub":
        return BinaryOp("-", left, right), (lambda x, a=lref, b=rref: a(x) - b(x))
    if kind == "mul":
        return BinaryOp("*", left, right), (lambda x, a=lref, b=rref: a(x) * b(x))
    if kind == "div":
        return BinaryOp("/", left, right), (lambda x, a=lref, b=rref: a(x) / b(x) if b(x) != 0 else math.nan)
    # keep exponents as small literals so the reference never leaves the reals
    exponent = float(rng.integers(0, 4))
    return (
        BinaryOp("^", left, Number(exponent)),
        lambda x, a=lref, e=exponent: math.pow(a(x), e),
    )


class TestPrinterRoundtrip:
    SAMPLES = [
        "cos(x)",
        "exp(-0.5*x^2)*(12-48*x^2+16*x^4)",
        "2^3^2",
        "-x^2",
        "x^-2",
        "1-(2-3)",
        "x/(2*x)",
        "--x",
        "-(x+1)",
        "1/2/3",
    ] + [
        # every ordered pair of operators, grouped either way
        text
        for o1 in "+-*/^"
        for o2 in "+-*/^"
        for text in (f"x{o1}2{o2}3", f"x{o1}(2{o2}3)", f"(x{o1}2){o2}3")
    ]

    @pytest.mark.parametrize("text", SAMPLES)
    def test_corpus_roundtrip(self, text):
        tree = parse(text)
        assert parse(expression_to_text(tree)) == tree

    def test_random_roundtrip_and_reference_eval(self):
        """Printed trees reparse identically, and eval matches the generator's
        own reference evaluator wherever both are finite."""
        rng = np.random.default_rng(101)
        for _ in range(300):
            tree, ref = random_expression(rng, depth=4)
            text = expression_to_text(tree)
            reparsed = parse(text)
            assert reparsed == tree
            x = float(rng.uniform(-2.5, 2.5))
            try:
                expected = ref(x)
            except (OverflowError, ValueError, ZeroDivisionError):
                continue
            got = eval_expr(tree, x)
            if math.isfinite(expected) and abs(expected) < 1e12:
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestNumberPrinting:
    """Numbers built through the API print as literals the parser reads back,
    to a tree whose value is the same bits."""

    POINTS = (1.5, -0.5, 0.0, -0.0, 3.0, -2.0)

    @staticmethod
    def assert_reparses_to_same_value(tree):
        reparsed = parse(expression_to_text(tree))
        for x in TestNumberPrinting.POINTS:
            # repr tells nan and the sign of zero apart
            assert repr(float(eval_expr(reparsed, x))) == repr(float(eval_expr(tree, x))), (tree, x)

    @staticmethod
    def trees(c):
        trees = [c, UnaryNeg(c), FunctionCall("sqrt", c), FunctionCall("exp", BinaryOp("*", c, Variable()))]
        trees += [BinaryOp(op, c, Variable()) for op in "+-*/^"] + [BinaryOp(op, Variable(), c) for op in "+-*/^"]
        return trees + [BinaryOp("^", c, Number(2.0)), BinaryOp("^", c, BinaryOp("^", c, Variable())),
                        BinaryOp("^", Variable(), BinaryOp("^", c, Variable())), UnaryNeg(UnaryNeg(c))]

    @pytest.mark.parametrize("value", [np.float64(2.0), 2, -0.0, np.float64(-3.0), -2, True, 0.1,
                                       -2.0, -3.5, -1e-300, -1.7976931348623157e308, 5e-324],
                             ids=repr)
    def test_finite_number_of_any_type(self, value):
        for tree in self.trees(Number(value)):
            self.assert_reparses_to_same_value(tree)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=repr)
    def test_non_finite_number_is_refused(self, value):
        for tree in self.trees(Number(value)):
            with pytest.raises(ValueError, match="no literal"):
                expression_to_text(tree)

    def test_negative_power_base_is_parenthesised(self):
        tree = BinaryOp("^", Number(-2.0), Number(2.0))
        assert expression_to_text(tree) == "(-2.0)^2.0"
        assert eval_expr(parse(expression_to_text(tree)), 0.0) == 4.0

    @pytest.mark.parametrize("tree, text", [
        (Number(np.float64(2.0)), "2.0"),
        (Number(2), "2.0"),
        (Number(-0.0), "-0.0"),
        (BinaryOp("-", Variable(), Number(-2.0)), "x--2.0"),
        (BinaryOp("*", Number(-2.0), Variable()), "-2.0*x"),
        (BinaryOp("^", Variable(), Number(-0.5)), "x^-0.5"),
        (UnaryNeg(Number(-1.0)), "--1.0"),
    ], ids=repr)
    def test_printed_text(self, tree, text):
        assert expression_to_text(tree) == text

    def test_random_trees_with_signed_numbers(self):
        rng = np.random.default_rng(303)

        def tree(depth):
            kind = rng.integers(0, 4 if depth else 2)
            if kind == 0:
                return Number(float(rng.choice([-1.0, 1.0]) * rng.choice([0.0, 0.5, 2.0, 3.25])))
            if kind == 1:
                return Variable()
            if kind == 2:
                return UnaryNeg(tree(depth - 1))
            return BinaryOp(str(rng.choice(list("+-*/^"))), tree(depth - 1), tree(depth - 1))

        for _ in range(300):
            self.assert_reparses_to_same_value(tree(4))


def _guarded(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf


def _power(a, b):
    """IEEE pow: a signed infinity for an overflow and for a zero base to a
    negative power, NaN for a negative base to a fractional power."""
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        if a < 0.0 and not b.is_integer():
            return math.nan
        odd = b.is_integer() and abs(b) < 2.0**53 and int(b) % 2 == 1
        return -math.inf if odd and math.copysign(1.0, a) < 0.0 else math.inf


def _divide(a, b):
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


REFERENCE_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "^": _power,
}


def reference_eval(expr, x):
    """The recursive tree walk, with the documented NaN/inf rules."""
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, Variable):
        return float(x)
    if isinstance(expr, UnaryNeg):
        return -reference_eval(expr.operand, x)
    if isinstance(expr, FunctionCall):
        fn = abs if expr.name == "abs" else getattr(math, expr.name)
        return _guarded(fn, reference_eval(expr.argument, x))
    return REFERENCE_BINARY[expr.op](reference_eval(expr.left, x), reference_eval(expr.right, x))


def recursive_derivative(expr):
    """differentiate_expr as a recursion over the tree, one call per level."""
    e = expressions
    if isinstance(expr, Number):
        return Number(0.0)
    if isinstance(expr, Variable):
        return Number(1.0)
    if isinstance(expr, UnaryNeg):
        return e._neg(recursive_derivative(expr.operand))
    if isinstance(expr, FunctionCall):
        return e._FUNCTIONS[expr.name][1](expr, recursive_derivative(expr.argument))
    u, v = expr.left, expr.right
    du, dv = recursive_derivative(u), recursive_derivative(v)
    if expr.op == "+":
        return e._add(du, dv)
    if expr.op == "-":
        return e._sub(du, dv)
    if expr.op == "*":
        return e._add(e._mul(du, v), e._mul(u, dv))
    if expr.op == "/":
        return e._div(e._sub(du, e._mul(e._div(u, v), dv)), v)
    if isinstance(v, Number):
        return e._mul(e._mul(v, BinaryOp("^", u, e._num(v.value - 1.0))), du)
    return e._mul(expr, e._add(e._mul(dv, FunctionCall("log", u)), e._mul(v, e._div(du, u))))


def recursive_text(expr):
    """expression_to_text as a recursion over the tree, one call per level."""
    prec, wrap = expressions._prec, expressions._wrap
    if isinstance(expr, Number):
        return repr(expr.value)
    if isinstance(expr, Variable):
        return "x"
    if isinstance(expr, FunctionCall):
        return f"{expr.name}({recursive_text(expr.argument)})"
    if isinstance(expr, UnaryNeg):
        return "-" + wrap(recursive_text(expr.operand), prec(expr.operand) < expressions._PREC_NEG)
    left, right = recursive_text(expr.left), recursive_text(expr.right)
    p = expressions._OPERATORS[expr.op][1]
    if expr.op == "^":
        return wrap(left, prec(expr.left) <= p) + "^" + wrap(right, prec(expr.right) < expressions._PREC_NEG)
    return wrap(left, prec(expr.left) < p) + expr.op + wrap(right, prec(expr.right) <= p)


class TestWalksMatchRecursion:
    """differentiate_expr and expression_to_text walk the tree with their own
    stack; they must give what the recursion over the tree gives."""

    @pytest.mark.parametrize("text", TestDifferentiate.CORPUS + TestPrinterRoundtrip.SAMPLES[:10])
    def test_corpus(self, text):
        tree = parse(text)
        d = differentiate_expr(tree)
        assert d == recursive_derivative(tree)
        assert expression_to_text(tree) == recursive_text(tree)
        assert expression_to_text(d) == recursive_text(d)

    def test_random_trees(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            tree, _ = random_expression(rng, depth=5)
            d = differentiate_expr(tree)
            assert d == recursive_derivative(tree)
            assert expression_to_text(tree) == recursive_text(tree)
            assert expression_to_text(d) == recursive_text(d)

    def test_depth_is_unbounded(self):
        text = "+".join(["x"] * 3000) + "-1500.0"
        tree = parse(text)
        assert expression_to_text(tree) == text
        assert differentiate_expr(tree) == Number(3000.0)

    def test_printing_a_shared_subtree_keeps_few_texts(self):
        # each partial product is read by two parents of the derivative; its
        # text is dropped once both have read it
        d = differentiate_expr(parse("*".join(["x"] * 200)))
        tracemalloc.start()
        try:
            text = expression_to_text(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == recursive_text(d)
        assert peak < 20 * len(text)

    def test_abs_derivative_at_any_depth(self):
        d = differentiate_expr(parse("+".join(["x"] * 3000) + "+abs(x)"))
        assert eval_expr(d, -1.0) == 2999.0
        assert parse(expression_to_text(d)) == d


# the node classes as plain frozen dataclasses, with the generated ==, hash and repr
GENERATED = {cls: dataclasses.make_dataclass(cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True)
             for cls in (Number, Variable, UnaryNeg, BinaryOp, FunctionCall)}


def generated_twin(tree):
    """``tree`` rebuilt from the ``GENERATED`` classes (by recursion, so shallow trees only)."""
    values = [getattr(tree, f.name) for f in dataclasses.fields(tree)]
    return GENERATED[type(tree)](*(generated_twin(v) if type(v) in GENERATED else v for v in values))


class TestNodeMethods:
    """The nodes' ==, hash and repr keep their own stack; on every tree they
    must agree with the dataclass-generated methods."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(303)
        texts = TestDifferentiate.CORPUS + TestPrinterRoundtrip.SAMPLES
        trees = [parse(text) for text in texts] + [parse(text) for text in texts[::4]]  # equal, not identical
        trees += [differentiate_expr(parse(text)) for text in TestDifferentiate.CORPUS[::2]]
        trees += [random_expression(rng, depth=4)[0] for _ in range(20)]
        shared = parse("sin(x)+1")
        trees += [Number(float("nan")), Number(float("nan")), Number(0.0), Number(-0.0), Variable(),
                  BinaryOp("*", shared, shared), BinaryOp("*", shared, parse("sin(x)+1")),
                  BinaryOp("+", Number(2.0), Number(2.0)), UnaryNeg(Number(2.0)), FunctionCall("cos", Number(2.0))]
        return trees

    def test_results_match_the_generated_methods(self):
        trees = self.corpus()
        twins = [generated_twin(tree) for tree in trees]
        for tree, twin in zip(trees, twins):
            assert repr(tree) == repr(twin)
        equal_pairs = 0
        for (a, twin_a), (b, twin_b) in itertools.product(zip(trees, twins), repeat=2):
            equal = a == b
            assert equal == (twin_a == twin_b) and equal != (a != b), (a, b)
            if equal:
                equal_pairs += a is not b
                assert hash(a) == hash(b), (a, b)
        assert equal_pairs > 20

    def test_other_types_are_unequal(self):
        assert Number(2.0) != 2.0 and 2.0 != Number(2.0)
        assert Variable() != UnaryNeg(Variable()) and Number(2.0) != generated_twin(Number(2.0))

    def test_deep_trees_compare_hash_and_print(self):
        depth = 100000
        chosen = random.Random(22).choices(["-", "sin(", "2^"], k=depth)
        a, b = chain(chosen), chain(chosen)
        assert a == b and hash(a) == hash(b)
        assert a != chain(chosen, Number(1.0))
        prefix = {"-": "UnaryNeg(operand=", "sin(": "FunctionCall(name='sin', argument=",
                  "2^": "BinaryOp(op='^', left=Number(value=2.0), right="}
        assert repr(a) == "".join(prefix[opener] for opener in chosen) + "Variable()" + ")" * depth


def assert_bit_identical(tree, xs):
    # repr tells nan and the sign of zero apart
    for x in xs:
        assert repr(eval_expr(tree, x)) == repr(reference_eval(tree, x)), x


def costly_text(rng, terms=600, group=25):
    """sin(k*x+phi)*exp(0.5*(sum of a_j*cos(w_j*x+psi_j))) in parenthesised groups."""
    amp = 1.0 / math.sqrt(terms)
    coefficients = rng.uniform((-amp, 0.0, 0.0), (amp, 0.5, 2 * math.pi), size=(terms, 3)).round(6).tolist()
    groups = [
        "(" + "".join(f"{'-' if c < 0 else '+'}{abs(c)!r}*cos({w!r}*x+{psi!r})"
                      for c, w, psi in coefficients[start:start + group]).lstrip("+") + ")"
        for start in range(0, terms, group)
    ]
    return "sin(2.1*x+0.7)*exp(0.5*(" + "+".join(groups) + "))"


class SlotLog(list):
    """A slot list that logs each read and write as (chunk, slot); set
    ``chunk`` to the index of the chunk about to run."""

    def __init__(self, size):
        super().__init__([None] * size)
        self.chunk, self.reads, self.writes = 0, [], []

    def __getitem__(self, i):
        self.reads.append((self.chunk, i))
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.writes.append((self.chunk, i))
        super().__setitem__(i, value)


class TestTape:
    """eval_expr runs straight-line code compiled once per tree; it must match
    the tree walk bit for bit."""

    POINTS = TestEval.SPECIALS + (1.0, -1.0, 0.5, 2.0, -3.25, 710.0, -746.0, 5e-324, -5e-324, 1e308)

    @pytest.mark.parametrize("name", list(TestEval.EDGES))
    def test_functions_at_edge_points(self, name):
        edges = [x for x, _ in TestEval.EDGES[name][1]]
        assert_bit_identical(parse(f"{name}(x)"), self.POINTS + tuple(edges))
        assert_bit_identical(parse(f"-{name}(x/x)^x"), self.POINTS + tuple(edges))

    @pytest.mark.parametrize("op", "+-*/^")
    def test_operators_at_edge_points(self, op):
        for text in (f"x{op}x", f"x{op}2", f"2{op}x", f"x{op}-0.5", f"0{op}x"):
            assert_bit_identical(parse(text), self.POINTS)

    def test_random_trees(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            tree, _ = random_expression(rng, depth=4)
            # numpy scalars too: x enters the arithmetic as a Python float
            xs = list(rng.uniform(-2.5, 2.5, size=4)) + [0.0, math.inf]
            assert_bit_identical(tree, xs)

    @pytest.mark.parametrize("text", TestDifferentiate.CORPUS)
    def test_derivative_trees(self, text):
        d = differentiate_expr(parse(text))
        assert_bit_identical(d, np.linspace(-3, 3, 41).tolist() + [0.0, -0.0])

    def test_shared_subtree_gets_one_slot(self):
        d = differentiate_expr(parse("exp(-0.5*x^2)"))
        # the product rule reuses the -0.5 node of the argument by reference
        assert d.right.left is d.left.argument.left
        assert_bit_identical(d, self.POINTS)

    def test_costly_text(self):
        tree = parse(costly_text(np.random.default_rng(3)))
        assert_bit_identical(tree, np.linspace(-4, 4, 17).tolist())

    @pytest.mark.parametrize("derivative", [False, True], ids=["tree", "derivative"])
    def test_each_value_has_one_name(self, derivative):
        tree = parse(costly_text(np.random.default_rng(3), terms=200))
        if derivative:  # shares subtrees with f, read chunks apart
            tree = differentiate_expr(tree)
        value = eval_expr(tree, 0.5)
        slots, chunks = tree._compiled
        codes = [fast.__code__ for fast, _ in chunks]
        assert len(codes) > 2
        s = SlotLog(slots)  # the chunks run one after another, fast twins only
        for k, (fast, _) in enumerate(chunks):
            s.chunk = k
            result = fast(0.5, s)
        assert repr(result) == repr(value)
        for fast, _ in chunks:
            code = fast.__code__
            assert code.co_varnames[:code.co_argcount] == ("x", "s")
            # any other name a chunk reads is bound in the namespace: a
            # local of an earlier chunk would be read as an unbound global
            assert set(code.co_names) <= set(fast.__globals__)
        # no local name stored twice, in one chunk or across chunks
        stores = [ins.argval for code in codes for ins in dis.get_instructions(code) if ins.opname == "STORE_FAST"]
        assert len(stores) == len(set(stores))
        assert sorted(stores) == sorted(name for code in codes for name in code.co_varnames[2:])
        # slots 0 to slots - 1, each written once, by one chunk
        writer = {i: k for k, i in s.writes}
        assert sorted(i for _, i in s.writes) == list(range(slots))
        # a value has a slot exactly when a later chunk reads it, and no
        # chunk reads a slot before it is written
        assert {i for k, i in s.reads if k > writer[i]} == set(range(slots))
        assert all(k >= writer[i] for k, i in s.reads)

    def test_slots_are_the_values_read_outside_their_chunk(self):
        d = differentiate_expr(parse(costly_text(np.random.default_rng(3))))
        eval_expr(d, 0.5)
        slots, chunks = d._compiled
        assert len(chunks) > 10
        assert all(fast.__code__.co_argcount == 2 for fast, _ in chunks)
        steps = [node for node in expressions._post_order(d) if expressions._children(node)]
        chunk_of = {id(node): k // expressions._CHUNK for k, node in enumerate(steps)}
        crossing = {id(child) for node in steps for child in expressions._children(node)
                    if id(child) in chunk_of and chunk_of[id(child)] != chunk_of[id(node)]}
        assert slots == len(crossing)

    def test_subtree_shared_by_neighbouring_statements(self):
        # s is read by the product and then at once by the quotient
        s = parse("sin(x)+1")
        tree = BinaryOp("-", BinaryOp("*", s, Variable()), BinaryOp("/", s, Number(3.0)))
        assert_bit_identical(tree, self.POINTS)

    def test_depth_is_unbounded(self):
        tree = parse("+".join(["x"] * 3000) + "-1500")
        assert eval_expr(tree, 0.5) == 0.0
        report = find_roots(lambda x: eval_expr(tree, x), (-1.0, 2.0))
        assert len(report.roots) == 1
        assert abs(report.roots[0] - 0.5) <= 1e-12

    def test_values_cross_chunk_boundaries(self):
        # sin(x) is computed first and read last, hundreds of statements later
        tree = parse("sin(x)*(" + "+".join(f"cos({k}*x)" for k in range(1, 200)) + ")/exp(x)")
        assert_bit_identical(tree, self.POINTS)
        assert len(tree._compiled[1]) > 1

    def test_shared_subtree_read_across_a_chunk_boundary(self):
        d = differentiate_expr(parse(costly_text(np.random.default_rng(3), terms=100)))
        steps = [node for node in expressions._post_order(d) if expressions._children(node)]
        chunk_of = {id(node): k // expressions._CHUNK for k, node in enumerate(steps)}
        read_in = {}
        for node in steps:
            for child in expressions._children(node):
                read_in.setdefault(id(child), set()).add(chunk_of[id(node)])
        assert any(len(chunks) > 1 for key, chunks in read_in.items() if key in chunk_of)
        assert_bit_identical(d, np.linspace(-4, 4, 17).tolist())

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_any_chunk_size(self, monkeypatch, size):
        monkeypatch.setattr(expressions, "_CHUNK", size)
        rng = np.random.default_rng(7)
        trees = [random_expression(rng, depth=5)[0] for _ in range(60)]
        trees += [differentiate_expr(parse(text)) for text in TestDifferentiate.CORPUS]
        for tree in trees:
            assert_bit_identical(tree, self.POINTS)

    @pytest.mark.parametrize("text", ["x", "2.5"])
    def test_leaf_only_tree(self, text):
        assert_bit_identical(parse(text), self.POINTS)

    # constants built through the API keep their type: numpy's repr of a
    # float64 is no Python literal, and an int stays an int
    @pytest.mark.parametrize("value", [np.float64(2.0), 2, -0.0, math.nan], ids=repr)
    def test_number_nodes_of_any_type(self, value):
        c = Number(value)
        trees = [c, UnaryNeg(c), FunctionCall("sqrt", c), FunctionCall("exp", BinaryOp("*", c, Variable()))]
        trees += [BinaryOp(op, c, Variable()) for op in "+-*/^"] + [BinaryOp(op, Variable(), c) for op in "+-*/^"]
        for tree in trees:
            for x in (1.5, -0.5, 0.0, -0.0, 3):
                got, expected = eval_expr(tree, x), reference_eval(tree, x)
                assert (type(got), repr(got)) == (type(expected), repr(expected)), (tree, x)
        assert eval_expr(BinaryOp("*", Number(np.float64(2.0)), Variable()), 1.5) == np.float64(3.0)

    @pytest.mark.parametrize("x", [np.float64(1.5), np.float32(0.25), np.int64(-2), 3, True], ids=repr)
    def test_x_of_any_numeric_type(self, x):
        for text in ["x", "sin(x)/x-x^2", "2.5"]:
            tree = parse(text)
            got, expected = eval_expr(tree, x), reference_eval(tree, x)
            assert (type(got), repr(got)) == (type(expected), repr(expected))

    # at x = 1 each raises: sqrt and log of a negative, exp(800), tan(inf),
    # 0^-1 and (-8)^(1/3); at other points some of them do not
    RAISING = ["sqrt(-x)", "log(-x)", "exp(800*x)", "tan(x/0)", "0^-x", "(-8*x)^(1/3)"]

    @staticmethod
    def fallback_chunks(tree, x):
        """The indices of the chunks whose fast twin raises at x."""
        slots, chunks = tree._compiled
        s, raised = [None] * slots, []
        for k, (fast, guarded) in enumerate(chunks):
            try:
                fast(x, s)
            except (ValueError, OverflowError):
                raised.append(k)
                guarded(x, s)
        return raised

    @pytest.mark.parametrize("size", [1, 2, 5, None])
    @pytest.mark.parametrize("term", RAISING)
    def test_fallback_in_a_middle_chunk(self, monkeypatch, size, term):
        if size is not None:
            monkeypatch.setattr(expressions, "_CHUNK", size)
        # values made before the raising term are read after it, and an
        # infinite term becomes a finite exp(-inf) = 0.  w is made just
        # before the raising term and read again by the root
        before = parse("sin(x)*(" + "+".join(f"cos({k}*x)" for k in range(1, 150)) + ")")
        after = parse("+".join(f"cos({k}*x)" for k in range(150, 300)))
        raising, w = parse(term), parse("sin(3*x)")
        guard = FunctionCall("exp", UnaryNeg(FunctionCall("abs", raising)))
        tree = BinaryOp("+", BinaryOp("+", before, BinaryOp("*", BinaryOp("*", w, guard), after)), w)
        assert_bit_identical(tree, self.POINTS + (-1.0, 1.0, 0.1, -0.1))
        slots, chunks = tree._compiled
        steps = [node for node in expressions._post_order(tree) if expressions._children(node)]
        middle = steps.index(raising) // expressions._CHUNK
        assert 0 < middle < len(chunks) - 1
        assert middle in self.fallback_chunks(tree, 1.0)
        # the guarded rerun writes again, with the same values, each slot the
        # fast twin wrote before it raised
        s = SlotLog(slots)
        for k, (fast, _) in enumerate(chunks[:middle]):
            s.chunk = k
            fast(1.0, s)
        s.chunk = middle
        with pytest.raises((ValueError, OverflowError)):
            chunks[middle][0](1.0, s)
        written, fast_values = {i for k, i in s.writes if k == middle}, list(s)
        chunks[middle][1](1.0, s)
        assert all(repr(s[i]) == repr(fast_values[i]) for i in written)
        for k, (fast, _) in enumerate(chunks[middle + 1:], middle + 1):
            s.chunk = k
            fast(1.0, s)
        if size is None:  # w's chunk is the raising one, and a later chunk reads w
            assert steps.index(w) // expressions._CHUNK == middle
            assert any(k > middle and i in written for k, i in s.reads)

    def test_fallback_keeps_no_state(self):
        text = "sin(x)*(" + "+".join(f"cos({k}*x)" for k in range(1, 200)) + ")+log(x)*exp(x)"
        xs = np.linspace(0.25, 4, 16).tolist()
        tree = parse(text)
        assert repr(eval_expr(tree, -1.0)) == repr(reference_eval(tree, -1.0)) == "nan"
        assert self.fallback_chunks(tree, -1.0)
        warm = [repr(eval_expr(tree, x)) for x in xs]
        assert not any(self.fallback_chunks(tree, x) for x in xs)
        fresh = parse(text)
        assert warm == [repr(eval_expr(fresh, x)) for x in xs] == [repr(reference_eval(tree, x)) for x in xs]

    def test_fast_twin_calls_the_raw_functions(self):
        # a wrapper around each call halves the speed of a costly f
        tree = parse("+".join(f"{name}(x)" for name in expressions._FUNCTIONS) + "+x^2+x/x")
        eval_expr(tree, 0.5)
        raw = {name: getattr(math, name) for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "pow")}
        raw["abs"] = abs
        for fast, guarded in tree._compiled[1]:
            assert fast.__code__ is guarded.__code__
            for name, fn in raw.items():
                assert fast.__globals__[name] is fn, name
                assert guarded.__globals__[name] is not fn, name
            assert math.isnan(guarded.__globals__["log"](-1.0))
            assert guarded.__globals__["pow"](0.0, -1.0) == math.inf

    def test_one_namespace_of_each_kind_per_tree(self):
        tree = parse("sin(x)*(" + "+".join(f"cos({k}*x)" for k in range(1, 200)) + ")")
        eval_expr(tree, 0.5)
        _, chunks = tree._compiled
        assert len(chunks) > 1
        assert len({id(fast.__globals__) for fast, _ in chunks}) == 1
        assert len({id(guarded.__globals__) for _, guarded in chunks}) == 1

    def test_code_dropped_with_its_tree(self):
        tree = parse("sin(x)+1")
        eval_expr(tree, 0.5)
        chunk = weakref.ref(tree._compiled[1][0][0])
        del tree
        gc.collect()
        assert chunk() is None

    def test_compiled_code_is_no_part_of_the_value(self):
        texts = ["sin(x)+1", costly_text(np.random.default_rng(3), terms=50)]
        texts += TestDifferentiate.CORPUS + TestPrinterRoundtrip.SAMPLES[:10]
        for text in texts:
            tree = parse(text)
            eval_expr(tree, 0.5)
            assert tree._compiled is not None
            fresh = parse(text)
            assert fresh._compiled is None
            assert tree == fresh and fresh == tree and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)

    def test_threads_share_a_fresh_tree(self):
        # four threads race to compile the same tree, switching every microsecond
        tree = parse(costly_text(np.random.default_rng(9), terms=100))
        xs = np.linspace(-4, 4, 25).tolist()
        start = threading.Barrier(4, timeout=30)
        results = [None] * 4

        def worker(k):
            start.wait()
            results[k] = [repr(eval_expr(tree, x)) for x in xs]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[repr(reference_eval(tree, x)) for x in xs]] * 4


@pytest.fixture
def deep_reference():
    """Room for reference_eval, which recurses once per tree level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    yield
    sys.setrecursionlimit(limit)


class TestCompiled:
    """The shape of the compiled code: a node's value is written inline into
    its one reader unless it must be named, and a finite float is a literal."""

    @staticmethod
    def codes(tree):
        eval_expr(tree, 0.5)
        return [fast.__code__ for fast, _ in tree._compiled[1]]

    def test_costly_derivative_calls_exp_once(self):
        d = differentiate_expr(parse(costly_text(np.random.default_rng(3))))
        calls = [ins for code in self.codes(d) for ins in dis.get_instructions(code)
                 if ins.opname == "LOAD_GLOBAL" and ins.argval == "exp"]
        assert len(calls) == 1

    def test_costly_text_has_few_assignments(self):
        tree = parse(costly_text(np.random.default_rng(3)))
        interior = sum(1 for node in expressions._post_order(tree) if expressions._children(node))
        # each local is stored once, and each slot written once
        stores = sum(len(code.co_varnames) - 2 for code in self.codes(tree)) + tree._compiled[0]
        assert 0 < stores < interior / 10

    def test_nested_quotients_compile_in_linear_size(self, deep_reference):
        # "/" reads each operand twice, so inlining its operands would copy
        # the text of every quotient below it twice
        trees = {depth: parse("x/(3+" * depth + "x" + ")" * depth) for depth in (1000, 2000)}
        sizes = {depth: sum(len(code.co_code) for code in self.codes(tree)) for depth, tree in trees.items()}
        assert sizes[2000] < 2.2 * sizes[1000] and sizes[2000] < 200 * 2000
        assert_bit_identical(trees[2000], [0.0, -0.0, 0.5, -1.0, math.inf, math.nan])

    def test_finite_python_float_is_a_literal(self):
        others = [np.float64(2.0), 2, math.nan, math.inf]
        tree = BinaryOp("*", Number(2.5), Variable())
        for value in others:
            tree = BinaryOp("+", tree, BinaryOp("*", Number(value), Variable()))
        (code,) = self.codes(tree)
        fast = tree._compiled[1][0][0]
        numbers = [const for const in code.co_consts if isinstance(const, (int, float))]
        assert numbers == [2.5]
        for value in others:
            assert any(bound is value for bound in fast.__globals__.values()), value
        assert_bit_identical(tree, [1.5, 0.0, -0.0])

    def test_long_chains_match_the_tree_walk(self, deep_reference):
        power = parse("^".join(["x"] * 3000))
        assert_bit_identical(power, [0.5, 1.0, 1.25, 2.0, -1.0, 0.0, -0.0, math.inf])
        terms = ["x", "sin(x)", "0.5*x^2", "-cos(2*x)"]
        total = parse("+".join(terms[k % 4] for k in range(3000)))
        assert_bit_identical(total, [0.5, -1.0, 3.0, 0.0, math.nan])

    def test_named_value_outlives_an_assignment_after_its_last_reader(self):
        # sin(s) is inlined into the sum, so s is still read after p, the
        # value named after s's last reader, is assigned
        s = parse("cos(x)+1")
        p = BinaryOp("*", s, Variable())
        tree = BinaryOp("+", FunctionCall("sin", s), BinaryOp("*", p, p))
        assert_bit_identical(tree, TestTape.POINTS)

    def test_nesting_is_capped_at_any_depth(self):
        # each statement nests a bounded number of operators, however deep the tree
        chosen = ["sin(", "-", "2^", "sin("] * 25000
        tree = chain(chosen)
        assert max(code.co_stacksize for code in self.codes(tree)) < 40
        x = 0.3
        for opener in reversed(chosen):
            x = -x if opener == "-" else math.sin(x) if opener == "sin(" else math.pow(2.0, x)
        assert math.isfinite(x) and repr(eval_expr(tree, 0.3)) == repr(x)
