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
"2*x", never "2x".  Whitespace is ignored.  Any character outside ASCII
is an error, and parse errors carry a 0-based byte offset.

Evaluation follows real arithmetic; domain violations (log of a
non-positive number, sqrt of a negative, division by zero) produce a
non-finite value rather than raising, so the rootfinder's own sampling
checks see them.  A tree is compiled once, on its first evaluation, into
straight-line Python kept on the tree, in chunks of at most 256 nodes that
run one after another: each node's value written inline into the
expression that reads it, assigned to a name only where it is read twice or
nested deep, and to a slot of one list per evaluation where a later chunk
reads it.  Each chunk's code is bound twice: a fast twin calls math's
functions and ``math.pow`` directly, which raise ValueError or
OverflowError on a domain error, and a guarded twin calls them through
wrappers that return NaN or an infinity instead.  A chunk runs its fast
twin, and only a chunk that raises is run again by its guarded twin.  The
twins compute the same value wherever the fast one returns, so the rerun
writes the chunk's slots again with the same values, and every value is
the guarded code's bit for bit.  Parsing, compiling, differentiating,
printing and the nodes' ``==``, ``hash`` and ``repr`` keep their own stack,
so nesting depth is unbounded.
"""

from __future__ import annotations

import math
import re
import sys
import types
from dataclasses import dataclass

__all__ = [
    "Expression",
    "Number",
    "Variable",
    "UnaryNeg",
    "BinaryOp",
    "FunctionCall",
    "ParseError",
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


class _Node:
    """``==``, ``hash`` and ``repr`` of a tree, walked with their own stack.

    They give what the dataclass-generated methods would, bar the hash's
    value: two trees are equal when they have the same classes and field
    values throughout, equal trees hash equal, and the repr is the
    dataclass one, ``BinaryOp(op='+', left=Variable(), right=...)``.  The
    generated methods recurse once per level, so a tree a few thousand
    levels deep would raise RecursionError.
    """

    # the tree's compiled chunks, set by _compile on its first evaluation;
    # not a field, so ``==``, ``hash`` and ``repr`` never read it
    _compiled = None

    def _tokens(self) -> list:
        """The tree in pre-order: each node's class, then its fields' values,
        a child as its own tokens.  Each class has a fixed set of fields, so
        two trees are equal exactly when their tokens are."""
        tokens, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, _Node):
                tokens.append(item.__class__)
                stack += reversed([getattr(item, name) for name in item.__dataclass_fields__])
            else:
                tokens.append(item)
        return tokens

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tokens() == other._tokens()

    def __hash__(self):
        return hash(tuple(self._tokens()))

    def __repr__(self):
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            pieces = [f"{item.__class__.__qualname__}("]
            for k, name in enumerate(item.__dataclass_fields__):
                value = getattr(item, name)
                pieces += [f"{', ' if k else ''}{name}=", value if isinstance(value, _Node) else repr(value)]
            stack += reversed([*pieces, ")"])
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Number(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Variable(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class UnaryNeg(_Node):
    operand: "Expression"


@dataclass(frozen=True, eq=False, repr=False)
class BinaryOp(_Node):
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, eq=False, repr=False)
class FunctionCall(_Node):
    name: str
    argument: "Expression"


Expression = Number | Variable | UnaryNeg | BinaryOp | FunctionCall


# one token after optional whitespace; "end" and "bad" make every scan total.
# ASCII only: the first other character is "bad", so every offset before it
# is a byte offset too.
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^()])
    | (?P<end>\Z)
    | (?P<bad>.))""",
    re.VERBOSE | re.DOTALL | re.ASCII,
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


def parse(text: str) -> Expression:
    """Parse expression text into an AST.

    Raises :class:`ParseError` with a byte offset on malformed input.
    Precedence climbing, with binding strengths from ``_OPERATORS`` and
    ``_PREC_NEG``.  Work waiting on an operand sits on ``pending`` instead
    of the call stack, so nesting depth is unbounded.  Each entry holds the
    binding floor of the loop it interrupted and either ``(op, left)``, a
    binary operator waiting for its right operand, or ``(opener, None)``: a
    unary "-", a "(" or a function name.
    """
    tokens = _tokenize(text)
    i, floor, pending = 0, 0, []
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if value == "-" or value == "(" or value in _FUNCTIONS:  # an opener: its operand follows
            if value in _FUNCTIONS:
                if tokens[i][1] != "(":
                    raise ParseError("expected '('", tokens[i][2])
                i += 1
            pending.append((floor, value, None))
            floor = _PREC_NEG if value == "-" else 0
            continue
        if kind == "number":
            node = Number(float(value))
            if not math.isfinite(node.value):
                raise ParseError(f"number literal {value!r} overflows", pos)
        elif value == "x":
            node = Variable()
        elif kind == "name":
            raise ParseError(f"unknown identifier {value!r}", pos)
        else:
            raise ParseError(f"expected a value, got {value!r}" if value else "unexpected end of input", pos)
        while True:  # climb: push an operator that binds above the floor, else pop and combine
            kind, value, pos = tokens[i]
            entry = _OPERATORS.get(value)
            if entry is not None and entry[1] > floor:
                i += 1
                pending.append((floor, value, node))
                # an operator binding tighter than unary minus ("^") groups to
                # the right, and its right operand may carry its own sign
                floor = min(entry[1], _PREC_NEG)
                break
            if not pending:
                if kind != "end":
                    raise ParseError(f"trailing input starting with {value!r}", pos)
                return node
            floor, op, left = pending.pop()
            if left is not None:  # a binary operator; a unary "-" has no left operand
                node = BinaryOp(op, left, node)
            elif op == "-":
                node = UnaryNeg(node)
            elif value != ")":
                raise ParseError("unbalanced parenthesis" if op == "(" else "expected ')'", pos)
            else:
                i += 1
                if op != "(":
                    node = FunctionCall(op, node)


def _guarded(fn):
    """``fn`` with domain errors as values: NaN for ValueError (log(0),
    sqrt(-1), sin(inf)), inf for OverflowError (exp)."""
    def guarded(value):
        try:
            return fn(value)
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


def _div_by_zero(num: float, den: float) -> float:
    """num / den for a den of +-0.0: NaN for 0/0 and NaN/0, else an infinity
    signed as num times den."""
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _power_rule(f: BinaryOp, du: Expression, dv: Expression) -> Expression:
    """The derivative of f = u^v: v*u^(v-1)*u' for a number v, else
    u^v * (v'*log(u) + v*u'/u), with u^v the node itself."""
    u, v = f.left, f.right
    if isinstance(v, Number):
        return _mul(_mul(v, BinaryOp("^", u, _num(v.value - 1.0))), du)
    return _mul(f, _add(_mul(dv, FunctionCall("log", u)), _mul(v, _div(du, u))))


# symbol -> (the Python expression the compiled code computes it with from
# operands {a} and {b}, bracketed so that it nests as an operand, precedence,
# derivative rule (f, du, dv) -> tree, for the node f = u op v).  An operator
# binding tighter than unary minus ("^") is right-associative.  Division by
# zero calls _div_by_zero for its IEEE value; pow is math.pow, or _safe_pow in
# a guarded twin.  "/" reads each operand twice, so _compile assigns an
# operand of it other than x or a number to a name instead of copying its
# text; its rule is (u' - (u/v)*v')/v, with no v^2 to overflow or underflow.
_OPERATORS = {
    "+": ("({a} + {b})", 1, lambda f, du, dv: _add(du, dv)),
    "-": ("({a} - {b})", 1, lambda f, du, dv: _sub(du, dv)),
    "*": ("({a} * {b})", 2, lambda f, du, dv: _add(_mul(du, f.right), _mul(f.left, dv))),
    "/": ("({a} / {b} if {b} else div({a}, {b}))", 2,
          lambda f, du, dv: _div(_sub(du, _mul(_div(f.left, f.right), dv)), f.right)),
    "^": ("pow({a}, {b})", 4, _power_rule),
}

# unary minus binds between "*" and "^" ("-x^2" is -(x^2)); atoms bind tightest
_PREC_NEG = 3
_PREC_ATOM = 5

# name -> (value function, which may raise ValueError or OverflowError,
# derivative rule (f, du) -> tree, for the call node f = name(u)).  A rule
# that reads f's value reads the node itself, so compiled code computes it
# once.  abs's rule is sign(u)*du as u/abs(u)*du, NaN at u = 0, where abs
# has no derivative
_FUNCTIONS = {
    "sin": (math.sin, lambda f, du: _mul(FunctionCall("cos", f.argument), du)),
    "cos": (math.cos, lambda f, du: _neg(_mul(FunctionCall("sin", f.argument), du))),
    "tan": (math.tan, lambda f, du: _div(du, BinaryOp("^", FunctionCall("cos", f.argument), Number(2.0)))),
    "exp": (math.exp, lambda f, du: _mul(f, du)),
    "log": (math.log, lambda f, du: _div(du, f.argument)),
    "sqrt": (math.sqrt, lambda f, du: _div(du, _mul(Number(2.0), f))),
    "abs": (abs, lambda f, du: _mul(_div(f.argument, f), du)),
}

# the names compiled code calls, as the fast twins bind them: the raw
# functions, which raise on a domain error.  A tree's numbers that have no
# literal join them as c0, c1, ... and its values live in r0, r1, ... and the
# slot list s, so no name is taken twice.
_NAMESPACE = {"div": _div_by_zero, "pow": math.pow, **{name: entry[0] for name, entry in _FUNCTIONS.items()}}

# the names the guarded twins bind in place of the raising ones
_GUARDED = {"pow": _safe_pow, **{name: _guarded(entry[0]) for name, entry in _FUNCTIONS.items()}}

# Most interior nodes in one compiled function.  One function per tree runs
# faster, but compiling the code of thousands of nodes at once takes megabytes.
_CHUNK = 256

# Most operators nested in one inline text.  It keeps each statement far
# inside the limits of CPython's parser and compiler, whatever the tree's depth.
_NEST = 12


def _children(node: Expression) -> tuple:
    if isinstance(node, BinaryOp):
        return node.left, node.right
    if isinstance(node, UnaryNeg):
        return (node.operand,)
    if isinstance(node, FunctionCall):
        return (node.argument,)
    return ()


def _post_order(expr: Expression) -> list:
    """Each distinct node of the tree once, children before parents.

    A left child's subtree is listed before the right child's, so a chain
    of left-associative operators holds few values at a time.  A subtree
    shared by reference is listed once.  The walk keeps its own stack, so
    tree depth is unbounded.
    """
    order, seen = [], set()
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack += [(child, False) for child in reversed(_children(node))]
    return order


def _fold(expr: Expression, rule):
    """``rule(node, done)`` for each node after its children, where ``done``
    maps the id of each child to its result; the root's result.

    A result is dropped once its last parent has read it: a printed subtree
    shared by many parents would otherwise keep every partial text alive.
    """
    order = _post_order(expr)
    last_read = {id(child): k for k, node in enumerate(order) for child in _children(node)}
    done = {}
    for k, node in enumerate(order):
        done[id(node)] = rule(node, done)
        for child in _children(node):
            if last_read[id(child)] == k:
                done.pop(id(child), None)
    return done[id(expr)]


def _code(body: list) -> types.CodeType:
    """The code of ``chunk(x, s)``, a function that runs ``body``."""
    module = compile("\n    ".join(["def chunk(x, s):", *body]), "<expression>", "exec")
    return next(const for const in module.co_consts if isinstance(const, types.CodeType))


def _template(node: Expression) -> str:
    """The bracketed Python expression an interior node computes its value with from operands {a} and {b}."""
    if isinstance(node, BinaryOp):
        return _OPERATORS[node.op][0]
    if isinstance(node, UnaryNeg):
        return "(-{a})"
    return node.name + "({a})"


def _compile(expr: Expression) -> tuple:
    """Compile a tree to straight-line Python and keep it as ``expr._compiled``.

    Each interior node's value is written inline into the one expression
    that reads it, as in ``r9 = (r4 + (0.5 * cos(((0.2 * x) + 1.0))))``.
    A node gets an assignment of its own only where it must: it is the
    root, its value is read more than once (a subtree shared by reference)
    or in a later chunk, its reader's template reads it twice (an operand
    of "/"), or its inline text would nest more than ``_NEST`` operators
    deep.  Python evaluates the nested form with the same operations on the
    same values, so each value is what one assignment per node would give,
    bit for bit.  The interior nodes are cut, in post-order, into chunks of
    ``_CHUNK``, each compiled to a function ``chunk(x, s)``; the last returns
    the root's value.  An assigned value that a later chunk reads is written
    once to a slot of ``s``, a list of one slot per such value, and read from
    there as ``s[3]``; any other has a local name of its own, never reused:
    ``r`` and its node's index among the interior nodes.  A finite Python
    float is written as a literal; any other number (an int, a numpy float,
    a NaN or an infinity) is read from the functions' namespace.

    Each chunk's code is compiled once and bound twice: its fast twin reads
    ``_NAMESPACE``'s raising functions, its guarded twin ``_GUARDED``'s
    wrappers instead.  The tree has one namespace of each kind, shared by
    all its chunks.  The chunks hold no reference to the tree, so they go
    when it does.  The tree keeps the slot count and the chunks as one value,
    so two threads that compile one tree at once each store a complete and
    identical result.
    """
    namespace = dict(_NAMESPACE)
    text, steps = {}, []  # id(node) -> the text its value is read by
    for node in _post_order(expr):
        if isinstance(node, Variable):
            text[id(node)] = "x"
        elif not isinstance(node, Number):
            steps.append(node)
        elif type(node.value) is float and math.isfinite(node.value):
            text[id(node)] = repr(node.value)
        else:
            # interned: the compiled code's names are, so each tree's
            # namespace shares them instead of holding copies
            text[id(node)] = key = sys.intern(f"c{len(text)}")
            namespace[key] = node.value
    # id(node) -> how often its value is read, an operand its template reads
    # twice counted twice, and the step that reads it last
    reads, last_read = {}, {}
    templates = [_template(node) for node in steps]
    for k, (node, template) in enumerate(zip(steps, templates)):
        for child, slot in zip(_children(node), "ab"):
            reads[id(child)] = reads.get(id(child), 0) + template.count("{" + slot + "}")
            last_read[id(child)] = k

    # id(node) -> its inline text and how many operators deep that nests
    inline = {}
    # each chunk's statements; a tree of x or a number alone is one chunk
    bodies, slots = [[] for _ in range(max(1, math.ceil(len(steps) / _CHUNK)))], 0
    for k, (node, template) in enumerate(zip(steps, templates)):
        operands, depth = [], 0
        for child in _children(node):
            if id(child) in inline:
                operand, child_depth = inline.pop(id(child))
                depth = max(depth, child_depth)
            else:
                operand = text[id(child)]
            operands.append(operand)
        value = template.format(a=operands[0], b=operands[-1])
        if reads.get(id(node)) == 1 and last_read[id(node)] // _CHUNK == k // _CHUNK and depth < _NEST:
            inline[id(node)] = (value, depth + 1)
            continue
        later = last_read.get(id(node), k) // _CHUNK > k // _CHUNK  # a later chunk reads it
        text[id(node)] = out = f"s[{slots}]" if later else f"r{k}"
        slots += later
        bodies[k // _CHUNK].append(f"{out} = {value}")
    bodies[-1].append(f"return {text[id(expr)]}")

    guarded = {**namespace, **_GUARDED}
    compiled = slots, tuple((types.FunctionType(code, namespace), types.FunctionType(code, guarded))
                            for code in map(_code, bodies))
    object.__setattr__(expr, "_compiled", compiled)
    return compiled


def eval_expr(expr: Expression, x: float) -> float:
    """Evaluate the expression at x with real-arithmetic semantics.

    Never raises on domain violations; the result is NaN or +/-inf instead.
    The tree is compiled on its first evaluation (:func:`_compile`), and
    later ones run the code kept on it.
    """
    x = float(x)
    slots, chunks = expr._compiled or _compile(expr)
    s = [None] * slots
    for fast, guarded in chunks:
        try:
            value = fast(x, s)
        except (ValueError, OverflowError):  # a domain error: rerun the chunk, guarded
            value = guarded(x, s)
    return value


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
    return BinaryOp("/", a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Number):
        return _num(-a.value)
    if isinstance(a, UnaryNeg):
        return a.operand
    return UnaryNeg(a)


def _derivative(node: Expression, d: dict) -> Expression:
    """The derivative of ``node``, given ``d``: id -> derivative of each child."""
    if isinstance(node, Number):
        return Number(0.0)
    if isinstance(node, Variable):
        return Number(1.0)
    if isinstance(node, UnaryNeg):
        return _neg(d[id(node.operand)])
    if isinstance(node, FunctionCall):
        return _FUNCTIONS[node.name][1](node, d[id(node.argument)])
    return _OPERATORS[node.op][2](node, d[id(node.left)], d[id(node.right)])


def differentiate_expr(expr: Expression) -> Expression:
    """Symbolic derivative with respect to x.

    Standard rules; no simplification is promised beyond folding of literal
    arithmetic.  Each distinct node is differentiated once, children first,
    so tree depth is unbounded.  Every function has a rule, so no tree
    raises; where f has no derivative (abs at 0) the derivative's value is
    NaN, as a domain violation is.
    """
    return _fold(expr, _derivative)


def _prec(node: Expression) -> int:
    if isinstance(node, BinaryOp):
        return _OPERATORS[node.op][1]
    # a negative number's text reparses as a unary minus before its magnitude
    signed = isinstance(node, Number) and math.copysign(1.0, node.value) < 0.0
    return _PREC_NEG if signed or isinstance(node, UnaryNeg) else _PREC_ATOM


def _wrap(text: str, needs_parens: bool) -> str:
    return f"({text})" if needs_parens else text


def _text(node: Expression, text: dict) -> str:
    """``node`` as text, given ``text``: id -> text of each child.

    A number is the ``repr`` of its float value, which the tokenizer reads
    back exactly; a negative one (-0.0 too) reads back as a unary minus
    before its magnitude, so :func:`_prec` gives it unary minus's binding.
    A non-finite number has no literal and raises ValueError.
    """
    if isinstance(node, Number):
        value = float(node.value)
        if not math.isfinite(value):
            raise ValueError(f"number {value!r} has no literal in the grammar")
        return repr(value)
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, FunctionCall):
        return f"{node.name}({text[id(node.argument)]})"
    if isinstance(node, UnaryNeg):
        return "-" + _wrap(text[id(node.operand)], _prec(node.operand) < _PREC_NEG)
    left, right = text[id(node.left)], text[id(node.right)]
    prec = _OPERATORS[node.op][1]
    if prec > _PREC_NEG:  # right-associative, as parse reads it; the right operand may carry its own sign
        return _wrap(left, _prec(node.left) <= prec) + node.op + _wrap(right, _prec(node.right) < _PREC_NEG)
    return _wrap(left, _prec(node.left) < prec) + node.op + _wrap(right, _prec(node.right) <= prec)


def expression_to_text(expr: Expression) -> str:
    """Render an AST back to text that reparses to a tree of the same value.

    A tree that ``parse`` built reparses to the same structure.  A number
    built through the API prints as its float value, and a negative number
    reparses as a unary minus before its magnitude, which evaluates to the
    same bits.  Raises ValueError for a NaN or infinite number.  Each
    distinct node is rendered once, children first, so tree depth is
    unbounded.
    """
    return _fold(expr, _text)
