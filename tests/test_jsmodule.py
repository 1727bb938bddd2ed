"""JavaScript tokenizer and module scanner internals."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_lexer
from staticslim.jsmodule import (
    constant_fragments,
    resolve_expr,
    scan_module,
    tokenize,
)

SINKS = frozenset({"exec"})


def kinds(source):
    return [(t.kind, t.value) for t in tokenize(source)]


def stream(lexer, source):
    return [(t.kind, t.value, t.line) for t in lexer(source)]


# JS punctuation, quotes, template pieces, escapes, newlines, number and
# identifier starts, and the characters where str.isdigit / str.isalpha and
# the regex classes disagree (non-ASCII digits, letters and spaces).
_JS_PIECES = st.sampled_from(
    list("abexE_$019.+-*/%=<>!&|?^~:;,()[]{}'\"`\\\n \t\r\f\v")
    + ["${", "//", "/*", "*/", "return", "typeof", "in", "0x1F", "1e+5",
       "\u00bd", "\u00b2", "\u2460", "\u00e9", "\u4e2d", "\u00a0", "\u3000", "\x85", "\u0663"]
)


class TestTokenize:
    def test_strings_and_escapes(self):
        toks = tokenize("'a\\'b' + \"c\\td\"")
        assert (toks[0].kind, toks[0].value) == ("str", "a'b")
        assert (toks[2].kind, toks[2].value) == ("str", "c\td")

    def test_comments_skipped(self):
        assert kinds("a // line\n/* block\nstill */ b") == [
            ("ident", "a"),
            ("ident", "b"),
        ]

    def test_regex_vs_division(self):
        toks = tokenize("x = a / b / c;")
        assert all(t.kind != "regex" for t in toks)
        toks = tokenize("x = /a[/]b/g;")
        assert any(t.kind == "regex" for t in toks)

    def test_regex_after_return(self):
        toks = tokenize("return /ab+c/.test(s);")
        assert toks[1].kind == "regex"

    def test_template_parts(self):
        toks = tokenize("`run ${cmd} now`")
        assert toks[0].kind == "tpl"
        assert toks[0].value == [("s", "run "), ("e", "cmd"), ("s", " now")]

    def test_nested_template(self):
        toks = tokenize("`a ${`b ${c}`} d`")
        assert toks[0].kind == "tpl"
        inner = toks[0].value[1]
        assert inner[0] == "e"
        assert "`b ${c}`" in inner[1]

    def test_line_numbers_across_strings(self):
        toks = tokenize("'one'\n'two'\n`three\nfour`\nfive")
        idents = [t for t in toks if t.kind == "ident"]
        assert idents[0].line == 5

    def test_regex_candidate_ends_at_escaped_newline(self):
        # A regex literal cannot span lines: the "/" is division, and the
        # call on line 3 keeps its line number.
        source = "x = /a\\\nb/;\nexec('ls');\n"
        assert all(t.kind != "regex" for t in tokenize(source))
        index = scan_module("m.js", source, SINKS)
        assert [(c.callee, c.line) for c in index.calls] == [("exec", 3)]

    @settings(max_examples=500)
    @given(st.lists(_JS_PIECES, max_size=80).map("".join))
    @example("x = /a\\\nb/;\nexec('ls');")
    @example("a = \u00bd2 + \u00b2x + .\u00b2 + \u2460 + \u00e9t\u00e9 + \u4e2d\u00a0\x0b1e+5")
    @example("/* never closed\nexec('x')")
    @example("x = /=/; y /= 2")
    def test_same_stream_as_reference_lexer(self, text):
        assert stream(tokenize, text) == stream(reference_lexer.tokenize, text)

    @given(st.text(max_size=400))
    def test_total_on_arbitrary_text(self, text):
        tokenize(text)  # must not raise

    @given(
        st.text(
            alphabet="abc'\"`${}()/\\+=;,.\n <>!&|*-",
            max_size=200,
        )
    )
    def test_total_on_punctuation_soup(self, text):
        tokenize(text)


class TestScanModule:
    def test_sink_inside_nested_callback_found(self):
        source = (
            "setTimeout(function () {\n"
            "  [1].forEach((n) => {\n"
            "    exec('sync');\n"
            "  });\n"
            "}, 10);\n"
        )
        index = scan_module("m.js", source, SINKS)
        sinks = [c for c in index.calls if c.callee == "exec"]
        assert len(sinks) == 1
        res = resolve_expr(sinks[0].args[0], index, None)
        assert constant_fragments(res) == ["sync"]

    def test_arrow_function_param_binding(self):
        source = "const run = (c) => { exec(c); };\nrun('blkid -o list');\n"
        index = scan_module("m.js", source, SINKS)
        sink = next(c for c in index.calls if c.callee == "exec")
        res = resolve_expr(sink.args[0], index, index.enclosing_function(sink.token_index))
        assert constant_fragments(res) == ["blkid -o list"]

    def test_self_recursive_function_terminates(self):
        source = "function f(x) { exec(x); f(x + '!'); }\n"
        index = scan_module("m.js", source, SINKS)
        sink = next(c for c in index.calls if c.callee == "exec")
        res = resolve_expr(sink.args[0], index, index.enclosing_function(sink.token_index))
        constant_fragments(res)  # terminates without blowing the stack

    def test_mutual_reference_terminates(self):
        source = "var a = b + 'x';\nvar b = a + 'y';\nexec(a);\n"
        index = scan_module("m.js", source, SINKS)
        sink = next(c for c in index.calls if c.callee == "exec")
        # The cycle can never fully resolve: only the appended constants survive.
        assert constant_fragments(resolve_expr(sink.args[0], index, None)) == ["yx"]

    def test_member_assignment_not_tracked_as_variable(self):
        source = "config.cmd = 'rm -rf /';\nexec(other);\n"
        index = scan_module("m.js", source, SINKS)
        assert "cmd" not in index.defs

    def test_string_brace_does_not_open_a_function_body(self):
        source = "function f(c) '{' exec(c); }\nf('ls');\n"
        index = scan_module("m.js", source, SINKS)
        assert "f" not in index.functions

    def test_numeric_literal_concats(self):
        source = "exec('sleep ' + 5);\n"
        index = scan_module("m.js", source, SINKS)
        sink = index.calls[0]
        assert constant_fragments(resolve_expr(sink.args[0], index, None)) == ["sleep 5"]

    @given(st.text(max_size=300))
    def test_scan_total_on_arbitrary_text(self, text):
        scan_module("fuzz.js", text, SINKS)
