"""Reference module indexer that walks the tokens three times.

It is the oracle for ``staticslim.jsmodule.scan_module``, which indexes a
module in one walk. This is the original three-pass indexer, unchanged: a
pass for function declarations (and declarators bound to a function
literal), a pass for declarations and assignments that steps past every
parsed right-hand side, and a pass for call sites. It shares the lexer and
the expression parser with ``scan_module``; that parser now returns a
``Func`` where it returned ``Dynamic``, which the comparisons read as
``Dynamic``.

Every call site it gives that is not a declaration head, and every
definition, in order, must also be in the one-walk index. Where a function
literal is an operand (``const f = function () {}.bind(o)``) this indexer
declares ``f`` as that literal and ``scan_module`` does not, because ``f``
then holds the result of the operator, not the function.
"""

from __future__ import annotations

from staticslim.jsmodule import (
    _KEYWORDS,
    CallSite,
    Definition,
    FuncInfo,
    ModuleIndex,
    Token,
    _ExprParser,
    _function_literal,
    _is_punct,
    _match_balanced,
    _param_names,
    tokenize,
)


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
