"""Lightweight JavaScript module scanner for command-string extraction.

Tokenizes a source file and indexes it in one walk over the tokens:
definitions (declarators and assignments, inside function bodies too),
function declarations, and call sites. It then resolves string-valued
expressions to constant fragments by walking definition chains. The scope is
deliberately narrow: intra-module, flow-insensitive, with one level of
call-site argument binding for function parameters; a parameter also takes
its default and what the function body assigns to it. Anything beyond that
resolves to a dynamic marker instead of a fabricated value. A function or
method declaration head, such as ``exec (cmd) {``, is not a call.

The lexer is one ``finditer`` pass of one compiled token pattern, which
matches quoted strings whole, escapes included. It is the only code that
lexes JavaScript: a template's text is one match of a pattern of its own, and
each of its substitutions is lexed by the same pass into tokens of its own,
with the module's line numbers, so the parser never lexes again. Only regex
literals have a scanner of their own, because they need the previous-token
rule. The pass restarts after a template's text, a regex literal, a block
comment and a non-ASCII start. One expression parser reads every right-hand
side and argument; it gives a ``Func`` for a function literal or an arrow
function, which is how the indexer learns that ``name = …`` declares a
function. A right-hand side that cannot be one is parsed the first time
resolution reads it (``Definition``). Brackets are matched from one table per
module (``Tokens.closers``), so stepping over a function body costs the same
at any nesting depth.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

MAX_VARIANTS = 16
MAX_DEPTH = 12
# How deep the expression parser nests (parentheses, arguments, arrow
# bodies, ternaries, template expressions); a deeper expression is stepped
# over and read as dynamic, so no source exhausts the Python stack.
MAX_NESTING = 64

_KEYWORDS = frozenset(
    """await break case catch class const continue debugger default delete do
    else export extends finally for function if import in instanceof let new
    of return static super switch this throw try typeof var void while with
    yield""".split()
)

_REGEX_ALLOWED_AFTER = frozenset(
    {"(", ",", "=", ":", "[", "!", "&", "|", "?", "{", "}", ";", "+", "-",
     "*", "/", "%", "<", ">", "=>", "==", "!=", "===", "!==", "&&", "||",
     "??", "return", "typeof", "case", "in", "of", "new", "delete", "void",
     "instanceof", "do", "else", "yield", "await"}
)

# The blanks before a token, then one alternative per token start, tried in
# order of frequency: identifiers, then the one-character brackets and
# separators, then the rest. Blanks are exactly " \t\r\f\v": any other space
# lexes as punctuation. A quoted string is matched whole, up to its closing
# quote, a newline or the end of the input; a backslash escapes any one
# character, the newline too, and stays when it ends the input. A match that
# names no group (a line comment, or blanks at the end of the input) only
# advances. Numbers and identifiers start with str.isdigit / str.isalpha,
# which no character class equals, so only ASCII starts are matched here; a
# non-ASCII start (or a "." before one) is "unicode" and tokenize tests it
# with the str methods.
_NUMBER_TAIL = r"(?:[\w.]|(?<=[eE])[+-])*"
_IDENT_TAIL = r"[\w$]*"
_TOKEN = re.compile(
    rf"""
    [ \t\r\f\v]*
    (?:
      (?P<ident>[A-Za-z_$]{_IDENT_TAIL})
    | (?P<punct>[()\[\]{{}},;:])
    | (?P<nl>\n)
    | '(?P<sq>[^'\\\n]*(?:\\.?[^'\\\n]*)*)'?
    | "(?P<dq>[^"\\\n]*(?:\\.?[^"\\\n]*)*)"?
    | //[^\n]*
    | (?P<block_comment>/\*)
    | (?P<num>(?:[0-9]|\.[0-9]){_NUMBER_TAIL})
    | (?P<tpl>`)
    | (?P<slash>/=?)
    | (?P<unicode>\.?[^\x00-\x7f])
    | (?P<op>
        ===|!==|\*\*=|\.\.\.|>>>|&&=|\|\|=|\?\?=
        | =>|==|!=|<=|>=|\+=|-=|\*=|%=|&&|\|\||\?\?|\+\+|--|\*\*|<<|>>|&=|\|=|\^=|\?\.
        | .)
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_NUMBER_REST = re.compile(_NUMBER_TAIL)
_IDENT_REST = re.compile(_IDENT_TAIL)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0"}
_TEMPLATE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
# A template's text: any character but "`", a backslash escaping any one
# character (and staying when it ends the input), and a "$" not before "{".
_TEMPLATE_TEXT = re.compile(r"[^`\\$]*(?:(?:\\.?|\$(?!\{))[^`\\$]*)*", re.DOTALL)


@dataclass(slots=True)
class Token:
    kind: str  # str | tpl | num | ident | punct | regex
    value: object
    line: int


_OPENERS = {")": "(", "]": "[", "}": "{"}
# The punctuation that ends an expression inside a statement or a group.
_EXPRESSION_ENDS = frozenset({",", ";", ":", ")", "]", "}"})


class Tokens(list):
    """The tokens of one module, and where each of its brackets closes."""

    @functools.cached_property
    def closers(self) -> dict[int, int]:
        """Index just past the punct that closes each bracket, by the
        bracket's index; an unclosed bracket has none. A bracket of one kind
        is matched by counting that kind only."""
        table = {}
        open_at = {"(": [], "[": [], "{": []}
        for j, t in enumerate(self):
            if t.kind != "punct":
                continue
            if t.value in open_at:
                open_at[t.value].append(j)
            elif t.value in _OPENERS and open_at[_OPENERS[t.value]]:
                table[open_at[_OPENERS[t.value]].pop()] = j + 1
        return table


def tokenize(source: str) -> Tokens:
    """Lex a JavaScript module; an unterminated block comment ends the input.

    A template literal is a ``tpl`` token whose value is its parts, in order:
    ``("s", text)`` and, for each substitution, ``("e", Tokens)``, lexed in
    this same pass with the module's line numbers. The templates open around
    the current token are kept on a stack, so templates nested to any depth
    cost no recursion. A ``}`` with no ``{`` open in a substitution ends it.
    """
    toks = module = Tokens()
    line = 1
    pos = 0
    # The open templates, innermost last: its parts, the tokens around it and
    # the "{" open there.
    templates: list[tuple[list, Tokens, int]] = []
    braces = 0  # the "{" open in the innermost substitution
    in_text = False
    while True:
        if in_text:  # a template's text, up to "`", "${" or the end of the input
            text = _TEMPLATE_TEXT.match(source, pos)[0]
            parts = templates[-1][0]
            if text:
                parts.append(("s", _ESCAPE.sub(_unescape_template, text) if "\\" in text else text))
                line += text.count("\n")
            pos += len(text)
            if source.startswith("${", pos):
                toks = Tokens()
                parts.append(("e", toks))
                braces = 0
                pos += 2
            elif pos < len(source):
                _, toks, braces = templates.pop()
                pos += 1
            else:
                return module
            in_text = False
        append = toks.append
        for m in _TOKEN.finditer(source, pos):
            kind = m.lastgroup
            if kind == "ident" or kind == "num":
                append(Token(kind, m[kind], line))
            elif kind == "punct":
                value = m[kind]
                if templates:
                    if value == "{":
                        braces += 1
                    elif value == "}":
                        if not braces:
                            pos = m.end()
                            in_text = True
                            break
                        braces -= 1
                append(Token(kind, value, line))
            elif kind == "op":
                append(Token("punct", m[kind], line))
            elif kind == "nl":
                line += 1
            elif kind == "sq" or kind == "dq":
                value = m[kind]
                append(Token("str", _ESCAPE.sub(_unescape, value) if "\\" in value else value, line))
                line += value.count("\n")  # only an escaped newline is in a string
            elif kind == "slash":
                start = m.start(kind)
                prev = toks[-1] if toks else None
                regex_end = _scan_regex(source, start) if _regex_can_start(prev) else None
                if regex_end is None:
                    append(Token("punct", m[kind], line))
                    continue
                append(Token("regex", source[start:regex_end], line))
                pos = regex_end
                break
            elif kind == "tpl":
                parts = []
                append(Token("tpl", parts, line))
                templates.append((parts, toks, braces))
                pos = m.end()
                in_text = True
                break
            elif kind == "block_comment":
                end = source.find("*/", m.end())
                if end < 0:
                    return module
                line += source.count("\n", m.end(), end)
                pos = end + 2
                break
            elif kind == "unicode":
                start = m.start(kind)
                kind, pos = _unicode_token(source, start)
                append(Token(kind, source[start:pos], line))
                break
        else:
            return module


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m[1], m[1])


def _unescape_template(m: re.Match) -> str:
    return _TEMPLATE_ESCAPES.get(m[1], m[1])


def _unicode_token(source: str, start: int) -> tuple[str, int]:
    """The kind and end of the token at a non-ASCII start (or a "." before one)."""
    c = source[start]
    if c.isdigit() or (c == "." and source[start + 1].isdigit()):
        return "num", _NUMBER_REST.match(source, start + 1).end()
    if c.isalpha():
        return "ident", _IDENT_REST.match(source, start + 1).end()
    return "punct", start + 1


def _regex_can_start(prev: Token | None) -> bool:
    return prev is None or (prev.kind in ("punct", "ident") and prev.value in _REGEX_ALLOWED_AFTER)


def _scan_regex(source: str, i: int) -> int | None:
    """End of the regex literal at ``i``, or None when the line ends first.

    A line terminator ends the candidate even after a backslash: a regex
    literal cannot span lines, so the "/" is then division.
    """
    j = i + 1
    n = len(source)
    in_class = False
    while j < n:
        c = source[j]
        if c == "\n":
            return None
        if c == "\\":
            if source.startswith("\n", j + 1):
                return None
            j += 2
            continue
        if c == "[":
            in_class = True
        elif c == "]":
            in_class = False
        elif c == "/" and not in_class:
            j += 1
            while j < n and (source[j].isalpha()):
                j += 1
            return j
        j += 1
    return None


# --- expression model -------------------------------------------------------


class Expr:
    pass


@dataclass
class Str(Expr):
    value: str


@dataclass
class Tpl(Expr):
    parts: list  # ('s', text) | ('e', Expr)


@dataclass
class Name(Expr):
    name: str
    line: int


@dataclass
class Concat(Expr):
    left: Expr
    right: Expr


@dataclass
class Alt(Expr):
    options: list


@dataclass
class Dynamic(Expr):
    pass


@dataclass
class Func(Expr):
    """A function literal; its value resolves as dynamic."""

    params: list[str]
    body: tuple[int, int]  # token index range


class _ExprParser:
    """Recursive-descent parser for the expression subset we resolve,
    ``depth`` levels deep in the expressions around it; at ``MAX_NESTING``
    it steps over the rest of the expression (``skip``)."""

    def __init__(self, toks: Tokens, pos: int, depth: int = 0):
        self.toks = toks
        self.pos = pos
        self.depth = depth

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def parse(self) -> Expr:
        if self.depth >= MAX_NESTING:
            return self.skip()
        self.depth += 1
        try:
            return self._parse()
        finally:
            self.depth -= 1

    def skip(self) -> Dynamic:
        """Step over the expression here, up to the token that ends it, and
        over each bracketed group in it whole."""
        while (t := self.peek()) is not None and not (t.kind == "punct" and t.value in _EXPRESSION_ENDS):
            opens = t.kind == "punct" and t.value in "([{"
            self.pos = _match_balanced(self.toks, self.pos) if opens else self.pos + 1
        return Dynamic()

    def _parse(self) -> Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t is None or t.kind != "punct":
                break
            if t.value == "+":
                self.pos += 1
                right = self.parse_unary()
                left = Concat(left, right)
            elif t.value in ("||", "&&", "??"):
                self.pos += 1
                right = self.parse_unary()
                left = Alt([left, right])
            elif t.value == "?":
                self.pos += 1
                a = self.parse()
                if _is_punct(self.toks, self.pos, ":"):
                    self.pos += 1
                    b = self.parse()
                    left = Alt([a, b])
                else:
                    left = Dynamic()
            elif t.value in ("===", "!==", "==", "!=", "<", ">", "<=", ">=",
                             "-", "*", "/", "%", "**", "&", "|", "^", "<<",
                             ">>", ">>>", "instanceof", "in"):
                self.pos += 1
                self.parse_unary()
                left = Dynamic()
            else:
                break
        return left

    def parse_unary(self) -> Expr:
        """A chain of prefix operators, read in a loop, then its operand;
        only ``await`` keeps the operand's value."""
        dynamic = False
        while (t := self.peek()) is not None:
            if t.kind == "punct" and t.value in ("!", "-", "+", "~", "++", "--") or (
                    t.kind == "ident" and t.value in ("typeof", "void", "delete", "new")):
                dynamic = True
            elif not (t.kind == "ident" and t.value == "await"):
                break
            self.pos += 1
        operand = self.parse_postfix()
        return Dynamic() if dynamic else operand

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            t = self.peek()
            if t is None or t.kind != "punct":
                break
            if t.value == ".":
                nxt = self.toks[self.pos + 1] if self.pos + 1 < len(self.toks) else None
                if nxt is not None and nxt.kind == "ident":
                    expr = Dynamic()  # member reads are not resolved
                    self.pos += 2
                    continue
                self.pos += 1
                continue
            if t.value == "(":
                self.parse_args()
                expr = Dynamic()  # nor are call results
                continue
            if t.value == "[":
                self.pos = _match_balanced(self.toks, self.pos)
                expr = Dynamic()
                continue
            break
        return expr

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t is None:
            return Dynamic()
        if t.kind == "str":
            self.pos += 1
            return Str(t.value)
        if t.kind == "num":
            self.pos += 1
            return Str(str(t.value))
        if t.kind == "tpl":
            self.pos += 1
            return Tpl([(kind, _ExprParser(payload, 0, self.depth).parse() if kind == "e" else payload)
                        for kind, payload in t.value])
        if t.kind == "ident":
            if t.value == "function":
                self.pos, literal = _function_literal(self.toks, self.pos)
                return Dynamic() if literal is None else Func(*literal)
            self.pos += 1
            if t.value in _KEYWORDS and t.value != "this":
                return Dynamic()
            if _is_punct(self.toks, self.pos, "=>"):
                return self.parse_arrow([t.value], self.pos + 1)
            return Name(t.value, t.line)
        if t.kind == "punct":
            if t.value == "(":
                params_end = _match_balanced(self.toks, self.pos)
                if _is_punct(self.toks, params_end, "=>"):
                    params = _param_names(self.toks, self.pos, params_end)
                    return self.parse_arrow(params, params_end + 1)
                self.pos += 1
                inner = self.parse()
                if _is_punct(self.toks, self.pos, ")"):
                    self.pos += 1
                return inner
            if t.value in ("[", "{"):
                self.pos = _match_balanced(self.toks, self.pos)
                return Dynamic()
        self.pos += 1
        return Dynamic()

    def parse_arrow(self, params: list[str], body: int) -> Func:
        """The arrow function whose body, a block or one expression, starts at ``body``."""
        if _is_punct(self.toks, body, "{"):
            self.pos = _match_balanced(self.toks, body)
        else:
            self.pos = body
            self.parse()
        return Func(params, (body, max(self.pos - 1, body)))

    def parse_args(self) -> list:
        # caller sits on '('
        self.pos += 1
        args = []
        if _is_punct(self.toks, self.pos, ")"):
            self.pos += 1
            return args
        while True:
            args.append(self.parse())
            t = self.peek()
            if t is None:
                break
            if t.kind == "punct" and t.value == ",":
                self.pos += 1
                continue
            if t.kind == "punct" and t.value == ")":
                self.pos += 1
                break
            self.pos += 1  # resync on unexpected token
            if self.pos >= len(self.toks):
                break
        return args


# --- module index ------------------------------------------------------------


class Definition:
    """One right-hand side of a name, with its operator (``=`` or ``+=``).

    Given no ``expr``, it keeps the module's tokens and where the right-hand
    side starts, and ``expr`` is parsed from them the first time it is read;
    from then on ``expr`` is a plain attribute.
    """

    def __init__(self, expr: Expr | None = None, op: str = "=",
                 toks: Tokens | None = None, pos: int = 0):
        if expr is not None:
            self.expr = expr
        self.op = op
        self.toks = toks
        self.pos = pos

    @functools.cached_property
    def expr(self) -> Expr:
        return _ExprParser(self.toks, self.pos).parse()


@dataclass
class FuncInfo:
    name: str
    params: list[str]
    body: tuple[int, int]  # token index range


@dataclass
class CallSite:
    callee: str
    args: list
    line: int
    token_index: int


@dataclass
class ModuleIndex:
    path: str
    defs: dict[str, list[Definition]] = field(default_factory=dict)
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)

    def enclosing_function(self, token_index: int) -> FuncInfo | None:
        best = None
        for fn in self.functions.values():
            lo, hi = fn.body
            if lo <= token_index <= hi and (
                best is None or (lo, -hi) > (best.body[0], -best.body[1])
            ):
                best = fn
        return best


def _is_punct(toks: list[Token], j: int, value: str) -> bool:
    return j < len(toks) and toks[j].kind == "punct" and toks[j].value == value


def _match_balanced(toks: Tokens, pos: int) -> int:
    """Index just past the punct that closes the bracket at ``pos``, or the
    end of the tokens when none does."""
    return toks.closers.get(pos, len(toks))


def _param_names(toks: list[Token], start: int, end: int) -> list[str]:
    params = []
    depth = 0
    for j in range(start, end):
        t = toks[j]
        if t.kind == "punct" and t.value in "([{":
            depth += 1
        elif t.kind == "punct" and t.value in ")]}":
            depth -= 1
        elif depth == 1 and t.kind == "ident":
            prev = toks[j - 1]
            if prev.kind == "punct" and prev.value in ("(", ","):
                params.append(t.value)
    return params


def scan_module(path: str, source: str, sink_names: frozenset[str]) -> ModuleIndex:
    """Index a module: definitions, function declarations, and call sites.

    One walk over the tokens visits every identifier, inside function bodies
    and function expressions too. It notes each ``name(``, registers each
    ``function name(…) {…}``, and records the right-hand side of each
    ``name = …`` and ``name += …`` that is not a member write as a
    definition. A right-hand side that may be a function literal is parsed
    at once, and declares ``name`` when it is one; any other is parsed the
    first time resolution reads it. Then each ``name(`` of a sink or
    declared function that is not a declaration head becomes a call site
    with its parsed arguments.
    """
    toks = tokenize(source)
    index = ModuleIndex(path=path)
    heads = []
    for i, (t, nxt) in enumerate(zip(toks, toks[1:])):
        if t.kind != "ident":
            continue
        if t.value == "function" and nxt.kind == "ident":
            literal = _function_literal(toks, i)[1]
            if literal is not None:
                index.functions[nxt.value] = FuncInfo(nxt.value, *literal)
        elif nxt.kind != "punct":
            continue
        elif nxt.value == "(":
            heads.append(i)
        elif nxt.value in ("=", "+=") and _binds_name(toks, i):
            definition = Definition(op=nxt.value, toks=toks, pos=i + 2)
            index.defs.setdefault(t.value, []).append(definition)
            if _may_be_function(toks, i + 2) and isinstance(expr := definition.expr, Func):
                index.functions[t.value] = FuncInfo(t.value, expr.params, expr.body)

    interesting = sink_names | frozenset(index.functions)
    for i in heads:
        t = toks[i]
        if t.value in interesting and not _is_declaration_head(toks, i):
            args = _ExprParser(toks, i + 1).parse_args()
            index.calls.append(CallSite(callee=t.value, args=args, line=t.line, token_index=i))
    return index


def _may_be_function(toks: Tokens, j: int) -> bool:
    """Whether the expression parser can give a ``Func`` for the right-hand
    side at ``j``: it starts with ``function``, ``await`` or ``(``, or with an
    identifier followed by ``=>``. Any other start gives a prefix operator
    (read as dynamic) or a primary that is not a function literal."""
    if j < len(toks) and toks[j].kind == "ident":
        return toks[j].value in ("function", "await") or _is_punct(toks, j + 1, "=>")
    return _is_punct(toks, j, "(")


def _binds_name(toks: list[Token], i: int) -> bool:
    """Whether the identifier at ``i``, followed by ``=`` or ``+=``, names a
    variable: it is not a member, and a keyword only as a declarator name
    (``let of = …``, ``var a, of = …``)."""
    prev = toks[i - 1] if i else None
    if prev is not None and prev.kind == "punct" and prev.value in (".", "?."):
        return False
    return toks[i].value not in _KEYWORDS or (
        prev is not None and prev.kind in ("ident", "punct") and prev.value in (",", "const", "let", "var")
    )


def _is_declaration_head(toks: Tokens, i: int) -> bool:
    """Whether ``name(`` at ``i`` declares a function or method rather than
    calling it: it follows ``function``, or its ``)`` is followed by ``{``."""
    prev = toks[i - 1] if i else None
    if prev is not None and prev.kind == "ident" and prev.value == "function":
        return True
    return _is_punct(toks, _match_balanced(toks, i + 1), "{")


def _function_literal(toks: Tokens, k: int):
    """Read ``function [name](params) {body}`` with ``k`` on ``function``.

    Returns the index just past what was read and, when both the parameter
    list and the body are there, (params, body token range). A missing "("
    or "{" is stepped over, which lets the expression parser resync.
    """
    j = k + 1
    if j < len(toks) and toks[j].kind == "ident":
        j += 1
    if not _is_punct(toks, j, "("):
        return (_match_balanced(toks, j) if _is_punct(toks, j, "{") else j), None
    params_end = _match_balanced(toks, j)
    if not _is_punct(toks, params_end, "{"):
        return params_end, None
    body_end = _match_balanced(toks, params_end)
    return body_end, (_param_names(toks, j, params_end), (params_end, body_end - 1))


# --- constant resolution ------------------------------------------------------

CONST = "c"
DYN = "d"


def resolve_expr(
    expr: Expr,
    index: ModuleIndex,
    enclosing: FuncInfo | None,
    stack: frozenset = frozenset(),
    depth: int = 0,
) -> list[tuple]:
    """The variants an expression may take, at most ``MAX_VARIANTS``.

    Each variant is a tuple of ``(CONST, text)`` and ``(DYN,)`` segments.
    """
    if depth > MAX_DEPTH:
        return [((DYN,),)]
    if isinstance(expr, Str):
        return [((CONST, expr.value),)]
    if isinstance(expr, Tpl):
        variants = [()]
        for kind, payload in expr.parts:
            if kind == "s":
                part = [((CONST, payload),)]
            else:
                part = resolve_expr(payload, index, enclosing, stack, depth + 1)
            variants = _product(variants, part)
        return variants
    if isinstance(expr, Concat):
        left = resolve_expr(expr.left, index, enclosing, stack, depth + 1)
        right = resolve_expr(expr.right, index, enclosing, stack, depth + 1)
        return _product(left, right)
    if isinstance(expr, Alt):
        out = []
        for opt in expr.options:
            out.extend(resolve_expr(opt, index, enclosing, stack, depth + 1))
        return out[:MAX_VARIANTS]
    if isinstance(expr, Name):
        return _resolve_name(expr.name, index, enclosing, stack, depth)
    return [((DYN,),)]


def _resolve_name(name, index, enclosing, stack, depth) -> list[tuple]:
    key = (enclosing.name if enclosing else None, name)
    if key in stack:
        return [((DYN,),)]
    stack = stack | {key}

    # A name takes each of its definitions; a parameter also takes the
    # argument of each call, and its definitions are its default and what
    # the body assigns to it.
    out = []
    for definition in index.defs.get(name, ()):
        sub = resolve_expr(definition.expr, index, enclosing, stack, depth + 1)
        if definition.op == "+=":
            # Appending to an unknown accumulation point: keep the appended
            # text as a fragment behind a dynamic prefix.
            sub = [((DYN,),) + v for v in sub]
        out.extend(sub)
    if enclosing is not None and name in enclosing.params:
        for arg_expr, caller in _call_site_args(index, enclosing, name):
            out.extend(resolve_expr(arg_expr, index, caller, stack, depth + 1))
    return out[:MAX_VARIANTS] or [((DYN,),)]


def _call_site_args(index: ModuleIndex, fn: FuncInfo, param: str):
    """Expressions bound to ``param`` across all recorded calls of ``fn``."""
    try:
        position = fn.params.index(param)
    except ValueError:
        return []
    out = []
    for call in index.calls:
        if call.callee != fn.name or position >= len(call.args):
            continue
        lo, hi = fn.body
        if lo <= call.token_index <= hi:
            continue  # recursive call; the stack guard also covers this
        out.append((call.args[position], index.enclosing_function(call.token_index)))
    return out


def _product(a: list[tuple], b: list[tuple]) -> list[tuple]:
    variants = []
    for va in a:
        for vb in b:
            variants.append(va + vb)
            if len(variants) >= MAX_VARIANTS:
                return variants
    return variants


def merge_segments(variant: tuple) -> list[tuple]:
    """Collapse adjacent constant segments; drop empty constants."""
    out: list[tuple] = []
    for seg in variant:
        if seg[0] == CONST:
            if not seg[1]:
                continue
            if out and out[-1][0] == CONST:
                out[-1] = (CONST, out[-1][1] + seg[1])
                continue
            out.append((CONST, seg[1]))
        else:
            if out and out[-1][0] == DYN:
                continue
            out.append((DYN,))
    return out


def constant_fragments(variants: list[tuple]) -> list[str]:
    """Distinct constant strings carried by the variants, in first-seen order.

    A variant with no dynamic segment gives its whole text; any other gives
    each of its constant fragments.
    """
    fragments: list[str] = []
    seen = set()
    for variant in variants:
        merged = merge_segments(variant)
        if not merged:
            continue
        if all(seg[0] == CONST for seg in merged):
            texts = ["".join(seg[1] for seg in merged)]
        else:
            texts = [seg[1] for seg in merged if seg[0] == CONST]
        for text in texts:
            if text and text not in seen:
                seen.add(text)
                fragments.append(text)
    return fragments
