"""Reference JavaScript lexer that reads one character at a time.

It is the oracle for ``staticslim.jsmodule.tokenize``, which lexes with one
token pattern: both must give the same (kind, value, line) stream, the tokens
of each template substitution included. The scanners and tables are those of
the original per-character lexer, with three fixes: a backslash before a
newline ends a regex-literal candidate, so the "/" lexes as division; a
backslash before a newline in a template literal counts that line, as one in a
quoted string does; both keep later line numbers right. And a template
substitution is lexed token by token, as a module is, so a "}" in a comment
or a regex literal inside it does not end the substitution; its tokens, with
their lines in the module, are the substitution's part of the template.
"""

from __future__ import annotations

from dataclasses import dataclass

_PUNCT3 = ("===", "!==", "**=", "...", ">>>", "&&=", "||=", "??=")
_PUNCT2 = (
    "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&&", "||",
    "??", "++", "--", "**", "<<", ">>", "&=", "|=", "^=", "?.",
)

_REGEX_ALLOWED_AFTER = frozenset(
    {"(", ",", "=", ":", "[", "!", "&", "|", "?", "{", "}", ";", "+", "-",
     "*", "/", "%", "<", ">", "=>", "==", "!=", "===", "!==", "&&", "||",
     "??", "return", "typeof", "case", "in", "of", "new", "delete", "void",
     "instanceof", "do", "else", "yield", "await"}
)


@dataclass
class Token:
    kind: str  # str | tpl | num | ident | punct | regex
    value: object
    line: int


def tokenize(source: str) -> list[Token]:
    """Lex a JavaScript module one character at a time."""
    toks: list[Token] = []
    i = 0
    line = 1
    while i < len(source):
        tok, i, line = _next_token(source, i, toks[-1] if toks else None, line)
        if tok is not None:
            toks.append(tok)
    return toks


def _next_token(source: str, i: int, prev: Token | None, line: int) -> tuple[Token | None, int, int]:
    """The token at ``i`` (None for a blank, a newline or a comment), where
    the next one starts, and the line there. ``prev`` is the last token, for
    the regex rule; an unterminated block comment ends the input."""
    n = len(source)
    c = source[i]
    if c == "\n":
        return None, i + 1, line + 1
    if c in " \t\r\f\v":
        return None, i + 1, line
    if c == "/" and i + 1 < n and source[i + 1] == "/":
        j = source.find("\n", i)
        return None, n if j < 0 else j, line
    if c == "/" and i + 1 < n and source[i + 1] == "*":
        j = source.find("*/", i + 2)
        if j < 0:
            return None, n, line
        return None, j + 2, line + source.count("\n", i, j)
    if c in "'\"":
        value, i, nl = _scan_string(source, i, c)
        return Token("str", value, line), i, line + nl
    if c == "`":
        parts, i, end_line = _scan_template(source, i, line)
        return Token("tpl", parts, line), i, end_line
    if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
        j = i + 1
        while j < n and (source[j].isalnum() or source[j] in "._xXoObBeE+-"):
            if source[j] in "+-" and source[j - 1] not in "eE":
                break
            j += 1
        return Token("num", source[i:j], line), j, line
    if c.isalpha() or c in "_$":
        j = i + 1
        while j < n and (source[j].isalnum() or source[j] in "_$"):
            j += 1
        return Token("ident", source[i:j], line), j, line
    if c == "/" and _regex_can_start(prev):
        end, nl = _scan_regex(source, i)
        if end is not None:
            return Token("regex", source[i:end], line), end, line + nl
        # fall through: division operator
    for group in (_PUNCT3, _PUNCT2):
        for p in group:
            if source.startswith(p, i):
                return Token("punct", p, line), i + len(p), line
    return Token("punct", c, line), i + 1, line


def _regex_can_start(prev: Token | None) -> bool:
    if prev is None:
        return True
    if prev.kind == "punct":
        return prev.value in _REGEX_ALLOWED_AFTER
    if prev.kind == "ident":
        return prev.value in _REGEX_ALLOWED_AFTER
    return False


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


def _scan_template(source: str, i: int, line: int) -> tuple[list, int, int]:
    """Scan the template literal at ``i``, on ``line``, into
    [('s', text) | ('e', tokens)] parts; also give where it ends and the line there."""
    parts: list[tuple[str, object]] = []
    buf: list[str] = []
    i += 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\\" and i + 1 < n:
            esc = source[i + 1]
            buf.append({"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc))
            if esc == "\n":
                line += 1
            i += 2
            continue
        if c == "`":
            if buf:
                parts.append(("s", "".join(buf)))
            return parts, i + 1, line
        if c == "$" and i + 1 < n and source[i + 1] == "{":
            if buf:
                parts.append(("s", "".join(buf)))
                buf = []
            # The substitution is lexed as a module is, token by token, up
            # to the "}" that balances its "${".
            depth = 1
            j = i + 2
            toks: list[Token] = []
            while j < n:
                tok, j, line = _next_token(source, j, toks[-1] if toks else None, line)
                if tok is None:
                    continue
                if tok.kind == "punct" and tok.value in ("{", "}"):
                    depth += 1 if tok.value == "{" else -1
                    if not depth:
                        break
                toks.append(tok)
            parts.append(("e", toks))
            i = j
            continue
        if c == "\n":
            line += 1
        buf.append(c)
        i += 1
    if buf:
        parts.append(("s", "".join(buf)))
    return parts, i, line


def _scan_regex(source: str, i: int) -> tuple[int | None, int]:
    j = i + 1
    n = len(source)
    in_class = False
    newlines = 0
    while j < n:
        c = source[j]
        if c == "\\":
            if source.startswith("\n", j + 1):
                return None, 0  # a regex literal cannot span lines
            j += 2
            continue
        if c == "\n":
            return None, 0  # not a regex after all
        if c == "[":
            in_class = True
        elif c == "]":
            in_class = False
        elif c == "/" and not in_class:
            j += 1
            while j < n and (source[j].isalpha()):
                j += 1
            return j, newlines
        j += 1
    return None, 0


def normalized(tokens) -> list[tuple]:
    """Each token as (kind, value, line), the tokens of each template
    substitution normalized in turn, so both lexers' streams compare equal."""
    return [
        (t.kind, [(k, normalized(p) if k == "e" else p) for k, p in t.value] if t.kind == "tpl" else t.value, t.line)
        for t in tokens
    ]
