"""Single-variable math expressions: parsing, evaluation, differentiation.

The CLI accepts functions as text; this module turns that text into an
immutable AST the rootfinder can evaluate.  The grammar, in EBNF:

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;
    atom   = NUMBER | "x" | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC   = "sin" | "cos" | "tan" | "exp" | "log" | "sqrt" | "abs" ;
    NUMBER = digits [ "." digits ] [ ("e" | "E") ["+" | "-"] digits ] ;

"^" binds tighter than unary minus (so "-x^2" is -(x^2)) and is
right-associative ("2^3^2" is 512).  Multiplication must be explicit:
"2*x", never "2x".  Whitespace is ignored.  Parse errors carry a 0-based
byte offset.

Evaluation follows real arithmetic; domain violations (log of a
non-positive number, sqrt of a negative, division by zero) produce a
non-finite value rather than raising, so the rootfinder's own sampling
checks see them.  A tree is compiled once, on its first evaluation, into a
flat tape that one loop runs, so evaluation depth is unbounded.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from array import array
from dataclasses import dataclass

__all__ = [
    "Expression",
    "Number",
    "Variable",
    "UnaryNeg",
    "BinaryOp",
    "FunctionCall",
    "ParseError",
    "UnsupportedDerivativeError",
    "parse",
    "eval_expr",
    "differentiate_expr",
    "expression_to_text",
]

class ParseError(ValueError):
    """Malformed expression text; ``position`` is a 0-based byte offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class UnsupportedDerivativeError(ValueError):
    """The expression contains abs, which has no derivative at 0."""


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class UnaryNeg:
    operand: "Expression"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class FunctionCall:
    name: str
    argument: "Expression"


Expression = Number | Variable | UnaryNeg | BinaryOp | FunctionCall


# one token after optional whitespace; "end" and "bad" make every scan total
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^()])
    | (?P<end>\Z)
    | (?P<bad>.))""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
        if kind == "end":
            return tokens


class _Parser:
    """Precedence climbing; binding strengths come from ``_OPERATORS`` and ``_PREC_NEG``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def expect(self, value: str, message: str):
        _, got, pos = self.tokens[self.i]
        if got != value:
            raise ParseError(message, pos)
        self.i += 1

    def parse(self) -> Expression:
        node = self.binary()
        kind, value, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"trailing input starting with {value!r}", pos)
        return node

    def binary(self, floor: int = 0) -> Expression:
        """An operand and every binary operator that binds tighter than ``floor``."""
        node = self.operand()
        while True:
            op = self.tokens[self.i][1]
            entry = _OPERATORS.get(op)
            if entry is None or entry[1] <= floor:
                return node
            self.i += 1
            # an operator binding tighter than unary minus ("^") groups to the
            # right, and its right operand may carry its own sign
            node = BinaryOp(op, node, self.binary(min(entry[1], _PREC_NEG)))

    def operand(self) -> Expression:
        """A number, x, a call, a parenthesised group, or "-" before a signed power."""
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if value == "-":  # a run of minus signs costs one stack frame per sign
            return UnaryNeg(self.operand() if self.tokens[self.i][1] == "-" else self.binary(_PREC_NEG))
        if kind == "number":
            num = float(value)
            if not math.isfinite(num):
                raise ParseError(f"number literal {value!r} overflows", pos)
            return Number(num)
        if value == "x":
            return Variable()
        if value == "(":
            node = self.binary()
            self.expect(")", "unbalanced parenthesis")
            return node
        if value in _FUNCTIONS:
            self.expect("(", "expected '('")
            node = FunctionCall(value, self.binary())
            self.expect(")", "expected ')'")
            return node
        if kind == "name":
            raise ParseError(f"unknown identifier {value!r}", pos)
        raise ParseError(f"expected a value, got {value!r}" if value else "unexpected end of input", pos)


def parse(text: str) -> Expression:
    """Parse expression text into an AST.

    Raises :class:`ParseError` with a byte offset on malformed input.
    """
    return _Parser(text).parse()


def _guarded(fn):
    """``fn`` with domain errors as values: NaN for ValueError (log(0),
    sqrt(-1), sin(inf)), inf for OverflowError (exp)."""
    def guarded(*args):
        try:
            return fn(*args)
        except ValueError:
            return math.nan
        except OverflowError:
            return math.inf
    return guarded


def _safe_pow(base: float, exponent: float) -> float:
    """``math.pow`` with IEEE pow's values where it raises.

    An overflow, or a zero base to a negative power, is an infinity whose
    sign is the base's for an odd integer exponent and + otherwise
    ((-10)^1001 is -inf, 0^-1 is inf as 1/0 is); a negative base to a
    fractional power is NaN.
    """
    try:
        return math.pow(base, exponent)
    except OverflowError:
        pass
    except ValueError:
        if base != 0.0:
            return math.nan
    return math.copysign(math.inf, base) if exponent % 2.0 == 1.0 else math.inf


def _safe_div(num: float, den: float) -> float:
    if den == 0.0:
        if num == 0.0 or math.isnan(num):
            return math.nan
        return math.copysign(math.inf, num) * math.copysign(1.0, den)
    return num / den


# symbol -> (value function, precedence); "^" is right-associative
_OPERATORS = {
    "+": (operator.add, 1),
    "-": (operator.sub, 1),
    "*": (operator.mul, 2),
    "/": (_safe_div, 2),
    "^": (_safe_pow, 4),
}

# unary minus binds between "*" and "^" ("-x^2" is -(x^2)); atoms bind tightest
_PREC_NEG = 3
_PREC_ATOM = 5

# name -> (value function, derivative rule (u, du) -> tree); abs has no rule
_FUNCTIONS = {
    "sin": (_guarded(math.sin), lambda u, du: _mul(FunctionCall("cos", u), du)),
    "cos": (_guarded(math.cos), lambda u, du: _neg(_mul(FunctionCall("sin", u), du))),
    "tan": (_guarded(math.tan), lambda u, du: _div(du, BinaryOp("^", FunctionCall("cos", u), Number(2.0)))),
    "exp": (_guarded(math.exp), lambda u, du: _mul(FunctionCall("exp", u), du)),
    "log": (_guarded(math.log), lambda u, du: _div(du, u)),
    "sqrt": (_guarded(math.sqrt), lambda u, du: _div(du, _mul(Number(2.0), FunctionCall("sqrt", u)))),
    "abs": (_guarded(abs), None),
}


# id(tree) -> its tape (constants, functions, left slots, right slots).  A
# tree's entry is dropped when the tree is collected, so a later tree that
# reuses the id never finds it.
_TAPES: dict[int, tuple] = {}


def _operation(node: Expression) -> tuple:
    """The value function of a node other than a leaf, and its operands."""
    if isinstance(node, BinaryOp):
        return _OPERATORS[node.op][0], (node.left, node.right)
    if isinstance(node, UnaryNeg):
        return operator.neg, (node.operand,)
    return _FUNCTIONS[node.name][0], (node.argument,)


def _compile(expr: Expression) -> tuple:
    """Flatten a tree into a slot tape and memoize it under ``id(expr)``.

    Slot 0 holds x, the next slots the tree's numbers, then one slot per
    instruction (function, left slot, right slot or -1), children before
    parents, so the root's value is the last slot.  A subtree shared by
    reference gets one slot.
    """
    numbers, steps = [], []  # steps: (node, fn, operands), each after its operands
    seen = set()
    stack = [(expr, None)]
    while stack:
        node, operation = stack.pop()
        if operation is not None:  # its operands are compiled
            steps.append((node, *operation))
        elif id(node) not in seen and not isinstance(node, Variable):
            seen.add(id(node))
            if isinstance(node, Number):
                numbers.append(node)
            else:
                operation = _operation(node)
                stack.append((node, operation))
                stack += [(operand, None) for operand in operation[1]]

    slot = {id(node): k for k, node in enumerate(numbers, 1)}  # x is slot 0
    slot.update((id(node), k) for k, (node, _, _) in enumerate(steps, len(slot) + 1))
    lefts = array("i", [slot.get(id(operands[0]), 0) for _, _, operands in steps])
    rights = array("i", [slot.get(id(operands[1]), 0) if len(operands) == 2 else -1 for _, _, operands in steps])
    tape = (tuple(node.value for node in numbers), tuple(fn for _, fn, _ in steps), lefts, rights)
    stored = _TAPES.setdefault(id(expr), tape)
    if stored is tape:  # another thread may have compiled the same tree first
        weakref.finalize(expr, _TAPES.pop, id(expr), None).atexit = False
    return stored


def eval_expr(expr: Expression, x: float) -> float:
    """Evaluate the expression at x with real-arithmetic semantics.

    Never raises on domain violations; the result is NaN or +/-inf instead.
    """
    numbers, fns, lefts, rights = _TAPES.get(id(expr)) or _compile(expr)
    values = [float(x), *numbers]
    push = values.append
    for fn, i, j in zip(fns, lefts, rights):
        push(fn(values[i]) if j < 0 else fn(values[i], values[j]))
    return values[-1]


def _num(value: float) -> Expression:
    # negative literals print as unary minus, keeping printed trees
    # reparseable; -0.0 would otherwise print with a stray sign
    if value == 0.0:
        return Number(0.0)
    if value < 0:
        return UnaryNeg(Number(-value))
    return Number(value)


def _is_const(node: Expression, value: float | None = None) -> bool:
    return isinstance(node, Number) and (value is None or node.value == value)


def _add(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Number) and isinstance(b, Number) and math.isfinite(a.value + b.value):
        return _num(a.value + b.value)
    return BinaryOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Number) and isinstance(b, Number) and math.isfinite(a.value - b.value):
        return _num(a.value - b.value)
    return BinaryOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Number(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Number) and isinstance(b, Number) and math.isfinite(a.value * b.value):
        return _num(a.value * b.value)
    return BinaryOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Number(0.0)
    if _is_const(b, 1.0):
        return a
    return BinaryOp("/", a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Number):
        return _num(-a.value)
    if isinstance(a, UnaryNeg):
        return a.operand
    return UnaryNeg(a)


def differentiate_expr(expr: Expression) -> Expression:
    """Symbolic derivative with respect to x.

    Standard rules; no simplification is promised beyond folding of literal
    arithmetic.  Raises :class:`UnsupportedDerivativeError` if the
    expression contains abs (not differentiable at 0); callers are expected
    to fall back to the differentiated proxy series.
    """
    if isinstance(expr, Number):
        return Number(0.0)
    if isinstance(expr, Variable):
        return Number(1.0)
    if isinstance(expr, UnaryNeg):
        return _neg(differentiate_expr(expr.operand))
    if isinstance(expr, FunctionCall):
        rule = _FUNCTIONS[expr.name][1]
        if rule is None:
            raise UnsupportedDerivativeError(f"{expr.name}(...) is not differentiable at 0")
        return rule(expr.argument, differentiate_expr(expr.argument))
    u, v = expr.left, expr.right
    du = differentiate_expr(u)
    dv = differentiate_expr(v)
    if expr.op == "+":
        return _add(du, dv)
    if expr.op == "-":
        return _sub(du, dv)
    if expr.op == "*":
        return _add(_mul(du, v), _mul(u, dv))
    if expr.op == "/":
        return _div(_sub(_mul(du, v), _mul(u, dv)), BinaryOp("^", v, Number(2.0)))
    # power rule; the general case goes through u^v * (v'*log(u) + v*u'/u)
    if isinstance(v, Number):
        return _mul(_mul(v, BinaryOp("^", u, _num(v.value - 1.0))), du)
    log_term = _mul(dv, FunctionCall("log", u))
    ratio_term = _mul(v, _div(du, u))
    return _mul(BinaryOp("^", u, v), _add(log_term, ratio_term))


def _prec(node: Expression) -> int:
    if isinstance(node, BinaryOp):
        return _OPERATORS[node.op][1]
    return _PREC_NEG if isinstance(node, UnaryNeg) else _PREC_ATOM


def _wrap(text: str, needs_parens: bool) -> str:
    return f"({text})" if needs_parens else text


def expression_to_text(expr: Expression) -> str:
    """Render an AST back to text that reparses to the same structure."""
    if isinstance(expr, Number):
        return repr(expr.value)
    if isinstance(expr, Variable):
        return "x"
    if isinstance(expr, FunctionCall):
        return f"{expr.name}({expression_to_text(expr.argument)})"
    if isinstance(expr, UnaryNeg):
        inner = expression_to_text(expr.operand)
        return "-" + _wrap(inner, _prec(expr.operand) < _PREC_NEG)
    left = expression_to_text(expr.left)
    right = expression_to_text(expr.right)
    prec = _OPERATORS[expr.op][1]
    if expr.op == "^":  # right-associative; the exponent may carry its own sign
        return _wrap(left, _prec(expr.left) <= prec) + "^" + _wrap(right, _prec(expr.right) < _PREC_NEG)
    return _wrap(left, _prec(expr.left) < prec) + expr.op + _wrap(right, _prec(expr.right) <= prec)
