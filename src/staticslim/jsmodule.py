"""Lightweight JavaScript module scanner for command-string extraction.

Tokenizes a source file, records variable declarations, assignments,
function declarations, and call sites, then resolves string-valued
expressions to constant fragments by walking definition chains. The scope is
deliberately narrow: intra-module, flow-insensitive, with one level of
call-site argument binding for function parameters. Anything beyond that
resolves to a dynamic marker instead of a fabricated value.

The lexer is one compiled token pattern matched at each position; only
strings, templates and regex literals have scanners of their own, because
they need escapes, nesting and the previous-token rule. The parser and the
indexer share one set of span helpers for balanced brackets, function
literals and arrow bodies.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

MAX_VARIANTS = 16
MAX_DEPTH = 12

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

# One alternative per token start, tried in order. Whitespace is exactly
# " \t\r\f\v": any other space lexes as punctuation. Numbers and identifiers
# start with str.isdigit / str.isalpha, which no character class equals, so
# only ASCII starts are matched here; a non-ASCII start (or a "." before one)
# is "unicode" and tokenize tests it with the str methods.
_NUMBER_TAIL = r"(?:[\w.]|(?<=[eE])[+-])*"
_IDENT_TAIL = r"[\w$]*"
_TOKEN = re.compile(
    rf"""
    (?P<nl>\n[ \t\r\f\v]*)
    | [ \t\r\f\v]+
    | //[^\n]*
    | (?P<block_comment>/\*)
    | (?P<num>(?:[0-9]|\.[0-9]){_NUMBER_TAIL})
    | (?P<ident>[A-Za-z_$]{_IDENT_TAIL})
    | (?P<str>['"])
    | (?P<tpl>`)
    | (?P<slash>/=?)
    | (?P<unicode>\.?[^\x00-\x7f])
    | (?P<punct>
        ===|!==|\*\*=|\.\.\.|>>>|&&=|\|\|=|\?\?=
        | =>|==|!=|<=|>=|\+=|-=|\*=|%=|&&|\|\||\?\?|\+\+|--|\*\*|<<|>>|&=|\|=|\^=|\?\.
        | .)
    """,
    re.VERBOSE | re.DOTALL,
)
_NUMBER_REST = re.compile(_NUMBER_TAIL)
_IDENT_REST = re.compile(_IDENT_TAIL)


@dataclass
class Token:
    kind: str  # str | tpl | num | ident | punct | regex
    value: object
    line: int


def tokenize(source: str) -> list[Token]:
    """Lex a JavaScript module; an unterminated block comment ends the input."""
    toks: list[Token] = []
    match = _TOKEN.match
    i = 0
    n = len(source)
    line = 1
    while i < n:
        m = match(source, i)
        kind = m.lastgroup
        end = m.end()
        if kind == "ident" or kind == "num" or kind == "punct":
            toks.append(Token(kind, m.group(), line))
        elif kind == "nl":
            line += 1
        elif kind == "str":
            value, end, nl = _scan_string(source, i, source[i])
            toks.append(Token("str", value, line))
            line += nl
        elif kind == "tpl":
            parts, end, nl = _scan_template(source, i)
            toks.append(Token("tpl", parts, line))
            line += nl
        elif kind == "slash":
            prev = toks[-1] if toks else None
            regex_end = _scan_regex(source, i) if _regex_can_start(prev) else None
            if regex_end is None:
                toks.append(Token("punct", m.group(), line))
            else:
                toks.append(Token("regex", source[i:regex_end], line))
                end = regex_end
        elif kind == "block_comment":
            j = source.find("*/", i + 2)
            if j < 0:
                break
            line += source.count("\n", i, j)
            end = j + 2
        elif kind == "unicode":
            c = source[i]
            if c.isdigit() or (c == "." and source[i + 1].isdigit()):
                end = _NUMBER_REST.match(source, i + 1).end()
                toks.append(Token("num", source[i:end], line))
            elif c.isalpha():
                end = _IDENT_REST.match(source, i + 1).end()
                toks.append(Token("ident", source[i:end], line))
            else:
                end = i + 1
                toks.append(Token("punct", c, line))
        i = end
    return toks


def _regex_can_start(prev: Token | None) -> bool:
    return prev is None or (prev.kind in ("punct", "ident") and prev.value in _REGEX_ALLOWED_AFTER)


def _scan_string(source: str, i: int, quote: str) -> tuple[str, int, int]:
    out = []
    newlines = 0
    i += 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\\" and i + 1 < n:
            esc = source[i + 1]
            out.append({"n": "\n", "t": "\t", "r": "\r", "0": "\0"}.get(esc, esc))
            if esc == "\n":
                newlines += 1
            i += 2
            continue
        if c == quote:
            return "".join(out), i + 1, newlines
        if c == "\n":
            break  # unterminated; be tolerant
        out.append(c)
        i += 1
    return "".join(out), i, newlines


def _scan_template(source: str, i: int) -> tuple[list, int, int]:
    """Scan a template literal into [('s', text) | ('e', expr_source)] parts."""
    parts: list[tuple[str, str]] = []
    buf: list[str] = []
    newlines = 0
    i += 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\\" and i + 1 < n:
            esc = source[i + 1]
            buf.append({"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc))
            i += 2
            continue
        if c == "`":
            if buf:
                parts.append(("s", "".join(buf)))
            return parts, i + 1, newlines
        if c == "$" and i + 1 < n and source[i + 1] == "{":
            if buf:
                parts.append(("s", "".join(buf)))
                buf = []
            depth = 1
            j = i + 2
            start = j
            while j < n and depth:
                if source[j] == "{":
                    depth += 1
                elif source[j] == "}":
                    depth -= 1
                elif source[j] == "`":
                    _, j2, nl2 = _scan_template(source, j)
                    newlines += nl2
                    j = j2 - 1
                elif source[j] in "'\"":
                    _, j2, nl2 = _scan_string(source, j, source[j])
                    newlines += nl2
                    j = j2 - 1
                elif source[j] == "\n":
                    newlines += 1
                j += 1
            parts.append(("e", source[start : j - 1]))
            i = j
            continue
        if c == "\n":
            newlines += 1
        buf.append(c)
        i += 1
    if buf:
        parts.append(("s", "".join(buf)))
    return parts, i, newlines


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


class _ExprParser:
    """Recursive-descent parser for the expression subset we resolve."""

    def __init__(self, toks: list[Token], pos: int):
        self.toks = toks
        self.pos = pos

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def parse(self) -> Expr:
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
        t = self.peek()
        if t is None:
            return Dynamic()
        if t.kind == "punct" and t.value in ("!", "-", "+", "~", "++", "--"):
            self.pos += 1
            self.parse_unary()
            return Dynamic()
        if t.kind == "ident" and t.value in ("typeof", "void", "delete", "new", "await"):
            self.pos += 1
            inner = self.parse_unary()
            return inner if t.value == "await" else Dynamic()
        return self.parse_postfix()

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
            parts = []
            for kind, payload in t.value:
                if kind == "e":
                    payload = _ExprParser(tokenize(payload), 0).parse()
                parts.append((kind, payload))
            return Tpl(parts)
        if t.kind == "ident":
            if t.value == "function":
                self.pos, _ = _function_literal(self.toks, self.pos)
                return Dynamic()
            self.pos += 1
            if t.value in _KEYWORDS and t.value != "this":
                return Dynamic()
            if _is_punct(self.toks, self.pos, "=>"):
                self.pos = _arrow_body_end(self.toks, self.pos + 1)
                return Dynamic()
            return Name(t.value, t.line)
        if t.kind == "punct":
            if t.value == "(":
                params_end = _match_balanced(self.toks, self.pos)
                if _is_punct(self.toks, params_end, "=>"):
                    self.pos = _arrow_body_end(self.toks, params_end + 1)
                    return Dynamic()
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


@dataclass
class Definition:
    expr: Expr
    op: str = "="  # "=" or "+="


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


_CLOSERS = {"(": ")", "[": "]", "{": "}"}


def _is_punct(toks: list[Token], j: int, value: str) -> bool:
    return j < len(toks) and toks[j].kind == "punct" and toks[j].value == value


def _match_balanced(toks: list[Token], pos: int) -> int:
    """Index just past the punct that closes the bracket at ``pos``."""
    open_p = toks[pos].value
    close_p = _CLOSERS[open_p]
    depth = 0
    j = pos
    while j < len(toks):
        t = toks[j]
        if t.kind == "punct" and t.value == open_p:
            depth += 1
        elif t.kind == "punct" and t.value == close_p:
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return len(toks)


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
    """Index a module: definitions, function declarations, and call sites."""
    toks = tokenize(source)
    index = ModuleIndex(path=path)

    # Function declarations first so call collection can bind parameters.
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "ident" and t.value == "function":
            _, literal = _function_literal(toks, i)
            if literal is not None:
                params, body = literal
                if toks[i + 1].kind == "ident":
                    name = toks[i + 1].value
                    index.functions[name] = FuncInfo(name=name, params=params, body=body)
                i = body[0]  # keep scanning inside the body
                continue
        if (
            t.kind == "ident"
            and t.value in ("const", "let", "var")
            and i + 3 < len(toks)
            and toks[i + 1].kind == "ident"
            and _is_punct(toks, i + 2, "=")
        ):
            arrow = _arrow_function_span(toks, i + 3)
            if arrow is not None:
                fname = toks[i + 1].value
                params, body = arrow
                index.functions[fname] = FuncInfo(name=fname, params=params, body=body)
        i += 1

    # Declarations and assignments.
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "ident" and t.value in ("const", "let", "var"):
            i = _scan_declarators(toks, i + 1, index)
            continue
        if (
            t.kind == "ident"
            and t.value not in _KEYWORDS
            and i + 1 < len(toks)
            and toks[i + 1].kind == "punct"
            and toks[i + 1].value in ("=", "+=")
            and (i == 0 or not _is_member_prefix(toks[i - 1]))
        ):
            op = toks[i + 1].value
            parser = _ExprParser(toks, i + 2)
            expr = parser.parse()
            index.defs.setdefault(t.value, []).append(Definition(expr=expr, op=op))
            i = max(parser.pos, i + 2)
            continue
        i += 1

    # Calls to sinks and to declared functions, wherever they appear.
    interesting = sink_names | frozenset(index.functions)
    for i, t in enumerate(toks):
        if t.kind == "ident" and t.value in interesting and _is_punct(toks, i + 1, "("):
            args = _ExprParser(toks, i + 1).parse_args()
            index.calls.append(CallSite(callee=t.value, args=args, line=t.line, token_index=i))
    return index


def _is_member_prefix(tok: Token) -> bool:
    return tok.kind == "punct" and tok.value in (".", "?.")


def _function_literal(toks: list[Token], k: int):
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


def _arrow_body_end(toks: list[Token], k: int) -> int:
    """Index just past the arrow-function body (a block or one expression) at ``k``."""
    if _is_punct(toks, k, "{"):
        return _match_balanced(toks, k)
    parser = _ExprParser(toks, k)
    parser.parse()
    return parser.pos


def _arrow_function_span(toks: list[Token], k: int):
    """Params and body range when tokens at ``k`` form an arrow/function literal."""
    if k >= len(toks):
        return None
    t = toks[k]
    if t.kind == "ident" and t.value == "function":
        return _function_literal(toks, k)[1]
    if t.kind == "punct" and t.value == "(":
        params_end = _match_balanced(toks, k)
        if not _is_punct(toks, params_end, "=>"):
            return None
        params, body = _param_names(toks, k, params_end), params_end + 1
    elif t.kind == "ident" and t.value not in _KEYWORDS and _is_punct(toks, k + 1, "=>"):
        params, body = [t.value], k + 2
    else:
        return None
    return params, (body, max(_arrow_body_end(toks, body) - 1, body))


def _scan_declarators(toks, i, index: ModuleIndex) -> int:
    """Parse ``name = expr [, name = expr]*`` after a var/let/const keyword."""
    while i < len(toks):
        t = toks[i]
        if t.kind != "ident":
            return i
        if _is_punct(toks, i + 1, "="):
            parser = _ExprParser(toks, i + 2)
            expr = parser.parse()
            index.defs.setdefault(t.value, []).append(Definition(expr=expr))
            i = parser.pos
        else:
            i += 1
        if _is_punct(toks, i, ","):
            i += 1
            continue
        return i
    return i


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

    if enclosing is not None and name in enclosing.params:
        bindings = _call_site_args(index, enclosing, name)
        if not bindings:
            return [((DYN,),)]
        out = []
        for arg_expr, caller in bindings:
            out.extend(resolve_expr(arg_expr, index, caller, stack, depth + 1))
        return out[:MAX_VARIANTS]

    defs = index.defs.get(name)
    if not defs:
        return [((DYN,),)]
    out = []
    for definition in defs:
        sub = resolve_expr(definition.expr, index, enclosing, stack, depth + 1)
        if definition.op == "+=":
            # Appending to an unknown accumulation point: keep the appended
            # text as a fragment behind a dynamic prefix.
            sub = [((DYN,),) + v for v in sub]
        out.extend(sub)
    return out[:MAX_VARIANTS]


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
