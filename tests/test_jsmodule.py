"""JavaScript tokenizer and module scanner internals."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_index
import reference_lexer
from staticslim.jsmodule import (
    Alt,
    Concat,
    Dynamic,
    Func,
    Name,
    Tokens,
    Tpl,
    _ExprParser,
    _match_balanced,
    constant_fragments,
    resolve_expr,
    scan_module,
    tokenize,
)

SINKS = frozenset({"exec"})


def kinds(source):
    return [(t.kind, t.value) for t in tokenize(source)]


def stream(lexer, source):
    return reference_lexer.normalized(lexer(source))


# JS punctuation, quotes, template pieces, escapes, newlines, number and
# identifier starts, and the characters where str.isdigit / str.isalpha and
# the regex classes disagree (non-ASCII digits, letters and spaces).
_JS_PIECES = st.sampled_from(
    list("abexE_$019.+-*/%=<>!&|?^~:;,()[]{}'\"`\\\n \t\r\f\v")
    + ["${", "//", "/*", "*/", "return", "typeof", "in", "0x1F", "1e+5",
       "\u00bd", "\u00b2", "\u2460", "\u00e9", "\u4e2d", "\u00a0", "\u3000", "\x85", "\u0663"]
)

# Template pieces and what can hide a backquote or a brace from a lexer:
# quotes, escapes, newlines, regex literals and comments.
_TEMPLATE_PIECES = st.sampled_from(
    ["`", "${", "}", "{", "'", '"', "\\", "\n", "/", "//", "/*", "*/", "a", "_", "1", "$", "\u00e9"]
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
        assert stream(tokenize, "`run ${cmd} now`") == [
            ("tpl", [("s", "run "), ("e", [("ident", "cmd", 1)]), ("s", " now")], 1),
        ]

    def test_nested_template(self):
        assert stream(tokenize, "`a ${`b ${c}`} d`") == [
            ("tpl", [("s", "a "), ("e", [("tpl", [("s", "b "), ("e", [("ident", "c", 1)])], 1)]), ("s", " d")], 1),
        ]

    def test_deeply_nested_template(self):
        source = "`${" * 5000 + "'v'\n" + "}`" * 5000 + "\nx"
        toks = tokenize(source)
        assert [t.kind for t in toks] == ["tpl", "ident"]
        t = toks[0]
        for _ in range(5000):  # each template holds one substitution of one token
            assert (t.kind, t.line, [kind for kind, _ in t.value]) == ("tpl", 1, ["e"])
            [t] = t.value[0][1]
        assert (t.kind, t.value, t.line) == ("str", "v", 1)
        assert toks[1].line == 3

    def test_substitution_at_end_of_input_keeps_its_last_character(self):
        index = scan_module("m.js", "a = `${ab", SINKS)
        assert index.defs["a"][0].expr == Tpl([("e", Name("ab", 1))])
        for lexer in (tokenize, reference_lexer.tokenize):
            assert stream(lexer, "`${ab") == [("tpl", [("e", [("ident", "ab", 1)])], 1)]

    def test_substitution_tokens_carry_their_module_lines(self):
        source = "x\n`a\n${\nb}`"
        index = scan_module("m.js", source.replace("`", "a = `", 1), SINKS)
        assert index.defs["a"][0].expr == Tpl([("s", "a\n"), ("e", Name("b", 4))])
        for lexer in (tokenize, reference_lexer.tokenize):
            assert stream(lexer, source) == [
                ("ident", "x", 1), ("tpl", [("s", "a\n"), ("e", [("ident", "b", 4)])], 2),
            ]

    @pytest.mark.parametrize("comment,line", [("/* } */", 1), ("/* }\n} */", 2), ("// }\n", 2),
                                              ("// }", None), ("/* } never closed", None)],
                             ids=["block", "block-lines", "line", "line-at-end", "unclosed"])
    def test_comment_in_substitution_does_not_end_it(self, comment, line):
        """A ``}`` in a comment inside a substitution is part of the
        comment; the substitution goes on to the next ``}``."""
        source = f"const a = `ls ${{ x {comment} }} -l`; exec(a);"
        for lexer in (tokenize, reference_lexer.tokenize):
            template = next(t for t in lexer(source) if t.kind == "tpl")
            if line is None:  # the comment runs to the end of the input
                assert [kind for kind, _ in template.value] == ["s", "e"]
                assert "exec" not in [t.value for t in lexer(source)]
                continue
            [(_, parts, _)] = reference_lexer.normalized([template])
            assert parts == [("s", "ls "), ("e", [("ident", "x", 1)]), ("s", " -l")]
            assert [t.line for t in lexer(source) if t.value == "exec"] == [line]
        if line is not None:
            index = scan_module("m.js", source, SINKS)
            sink = next(c for c in index.calls if c.callee == "exec")
            assert constant_fragments(resolve_expr(sink.args[0], index, None)) == ["ls ", " -l"]

    @pytest.mark.parametrize("expr,fragments", [
        ('u.replace(/^https?:\\/\\//, "")', ["curl ", " -o f"]),
        ("/}/.test(y)", ["curl ", " -o f"]),
        ("/`'/.source", ["curl ", " -o f"]),
        ("n / 2 } -o {x / 3", ["curl ", " -o {x / 3} -o f"]),
        ("return /}/", ["curl ", " -o f"]),
        ("\u00e9return /x/ } { /x/", ["curl ", " { /x/} -o f"]),
    ], ids=["url", "brace", "quote-and-backtick", "division", "after-keyword", "unicode-ident"])
    def test_regex_in_substitution_does_not_end_it(self, expr, fragments):
        """A regex literal inside a substitution is skipped whole, by the
        rule that tells it from a division in a module; the sinks after the
        template are still found."""
        source = f"const a = `curl ${{{expr}}} -o f`;\nexec(a);\nexec(b);"
        for lexer in (tokenize, reference_lexer.tokenize):
            template = next(t for t in lexer(source) if t.kind == "tpl")
            assert [part for kind, part in template.value if kind == "s"] == fragments
            assert [t.line for t in lexer(source) if t.value == "exec"] == [2, 3]
        index = scan_module("m.js", source, SINKS)
        assert [(c.callee, c.line) for c in index.calls] == [("exec", 2), ("exec", 3)]
        assert constant_fragments(resolve_expr(index.calls[0].args[0], index, None)) == fragments

    def test_line_numbers_across_strings(self):
        toks = tokenize("'one'\n'two'\n`three\nfour`\nfive")
        idents = [t for t in toks if t.kind == "ident"]
        assert idents[0].line == 5

    @pytest.mark.parametrize("source", ["x = `a\\\nb`\nexec(1)", "x = `${`a\\\nb`}`\nexec(1)"],
                             ids=["template", "nested"])
    def test_line_continuation_in_template_counts_as_a_line(self, source):
        # As in a quoted string, the newline after a backslash ends a line.
        assert [t.line for t in tokenize(source) if t.value == "exec"] == [3]
        assert [t.line for t in reference_lexer.tokenize(source) if t.value == "exec"] == [3]
        index = scan_module("m.js", source, SINKS)
        assert [(c.callee, c.line) for c in index.calls] == [("exec", 3)]

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
    # Braces, strings, escapes and unclosed templates inside substitutions.
    @example("`a${ {b: `c${'}'}\\`\n${\"d\n}`} }e`\n`${`${\n")
    # Line continuations in a template and in one nested in a substitution.
    @example("`a\\\nb${`c\\\nd`}`\nexec(1)")
    # Comments inside a substitution, with a brace and a newline in them.
    @example("`a${ b /* }\n*/ } c ${ // }\n d }`\nexec(1)")
    # Regex literals inside a substitution, beside divisions, holding a
    # brace, quotes, a backtick and "//".
    @example("`a${ u.replace(/^https?:\\/\\//, '') } b ${ /}`'/.test(y) / 2 } c`\nexec(1)")
    # Blank runs before every token kind and at the end of the input.
    @example("  x \t= \f'a' +\v `t${ 1 }`;\r y =\t /r/g \t/ 2 \n \t/* c */ \u00e9t\u00e9 \t.5 // z\n\t \t")
    # Quoted strings: a backslash ending the input, a newline cutting one, an
    # escaped newline before a sink call, "\r\n" line ends, an empty one,
    # and one holding comment openers.
    @example("'ab\\")
    @example("'ab\ncd'")
    @example("x = 'a\\\nb' + 1\nexec(1)")
    @example("a = 1;\r\nb = 'x'\r\nexec(b)\r\n")
    @example("''")
    @example("s = '// not /* a comment'; exec(s)")
    # Blanks alone: nothing to lex, not punctuation.
    @example(" ")
    def test_same_stream_as_reference_lexer(self, text):
        assert stream(tokenize, text) == stream(reference_lexer.tokenize, text)

    @settings(max_examples=300)
    @given(st.lists(_TEMPLATE_PIECES, max_size=40).map("".join))
    @example("`${ab")
    @example("`${ {`${/}/}`} }`a\\`${x")
    def test_same_template_stream_as_reference_lexer(self, text):
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

    def test_function_literal_is_a_func_node(self):
        source = "a = function (x, y) { };\nb = (z) => z;\nc = w => { };\n"
        index = scan_module("m.js", source, SINKS)
        assert [type(index.defs[n][0].expr) for n in "abc"] == [Func, Func, Func]
        assert [index.functions[n].params for n in "abc"] == [["x", "y"], ["z"], ["w"]]
        # A function literal resolves as dynamic.
        assert resolve_expr(index.defs["a"][0].expr, index, None) == [(("d",),)]

    @pytest.mark.parametrize("rhs", ["function(){}", "x => 1", "(a, b) => a", "(function(){})",
                                     "await function(){}", "async => 1"])
    def test_function_right_hand_sides_still_declare(self, rhs):
        index = scan_module("m.js", f"f = {rhs};\nf('ls');\n", SINKS)
        assert list(index.functions) == ["f"]
        assert [(c.callee, c.line) for c in index.calls] == [("f", 2)]

    def test_chained_assignment_declares_the_inner_name_only(self):
        index = scan_module("m.js", "f = g = function(){};\n", SINKS)
        assert list(index.functions) == ["g"]
        assert [type(d.expr).__name__ for d in index.defs["f"] + index.defs["g"]] == ["Name", "Func"]

    def test_definitions_no_sink_reads_are_not_parsed(self, monkeypatch):
        """A right-hand side that cannot be a function literal is parsed the
        first time resolution reads it, once; one that is never read is
        never parsed."""
        entries = []
        init = _ExprParser.__init__

        def counted(self, toks, pos, depth=0):
            entries.append(pos)
            init(self, toks, pos, depth)

        monkeypatch.setattr(_ExprParser, "__init__", counted)
        source = "".join(f"v{i} = 'x' + y{i};\n" for i in range(1000)) + "exec('ls ' + v7);\n"
        index = scan_module("m.js", source, SINKS)
        assert len(entries) == 1  # the sink call's arguments
        for _ in range(2):
            assert constant_fragments(resolve_expr(index.calls[0].args[0], index, None)) == ["ls x"]
        assert entries[1:] == [7 * 6 + 2]  # and v7's right-hand side, once
        assert sum("expr" in vars(d) for defs in index.defs.values() for d in defs) == 1

    def test_declaration_heads_are_not_call_sites(self):
        source = (
            "class Runner {\n"
            "  exec (cmd) { return cmd }\n"
            "  async exec (args, { path = '.' } = {}) { }\n"
            "  get exec () { return 1 }\n"
            "  #exec (cmd) {}\n"
            "}\n"
            "const o = { exec(x) { } };\n"
            "(function exec() { })\n"
            "function exec (what) { }\n"
            "if (exec('ls')) { }\n"
        )
        index = scan_module("m.js", source, SINKS)
        assert [(c.callee, c.line) for c in index.calls] == [("exec", 10)]

    def test_deep_nesting_reads_each_token_a_bounded_number_of_times(self, monkeypatch):
        """Brackets are matched from a table built once per module, so a
        function literal nested 1,000 deep is not read again at each of the
        literals around it."""
        reads = 0

        def counted(toks, key):
            nonlocal reads
            reads += 1
            return list.__getitem__(toks, key)

        for head, tail in (("a=()=>{", "}"), ("a=function(){", "}"), ("const a=()=>{", "}")):
            source = head * 1000 + "exec(cmd)" + tail * 1000
            size = len(tokenize(source))
            with monkeypatch.context() as patch:
                patch.setattr(Tokens, "__getitem__", counted, raising=False)
                reads = 0
                index = scan_module("m.js", source, SINKS)
            assert (len(index.calls), len(index.defs["a"])) == (1, 1000)
            assert reads < 5 * size, head

    @given(st.text("([{}]) a'", max_size=60))
    def test_brackets_match_by_counting_their_own_kind(self, text):
        toks = tokenize(text)
        for i, t in enumerate(toks):
            if t.kind != "punct" or t.value not in "([{":
                continue
            close = {"(": ")", "[": "]", "{": "}"}[t.value]
            depth, j = 0, i
            while j < len(toks):
                if toks[j].kind == "punct" and toks[j].value in (t.value, close):
                    depth += 1 if toks[j].value == t.value else -1
                    if depth == 0:
                        break
                j += 1
            assert _match_balanced(toks, i) == min(j + 1, len(toks))


# Programs of declarations, assignments, function literals and calls, nested
# to any depth. A function literal is a whole right-hand side or a whole
# argument, never an operand or a callee: see ``reference_index``.
_NAMES = st.sampled_from(["a", "b", "run", "cmd", "of", "exec", "spawn"])
_PARAMS = st.lists(_NAMES, max_size=2).map(", ".join)
_ATOMS = st.one_of(
    st.sampled_from(["'ls -l'", "'curl -s'", "`tar ${a}`", "1"]),
    _NAMES,
    st.builds("{}.{}".format, _NAMES, _NAMES),
)
_EXPRS = st.deferred(lambda: st.one_of(_ATOMS, st.builds("{} + {}".format, _ATOMS, _ATOMS), _CALLS, _FUNCS))
_CALLS = st.builds(
    "{}({})".format, st.one_of(_NAMES, st.builds("cp.{}".format, _NAMES)),
    st.lists(_EXPRS, max_size=2).map(", ".join),
)
_BLOCKS = st.deferred(lambda: st.lists(_STATEMENTS, max_size=3).map("\n".join))
_FUNCS = st.one_of(
    st.builds("function {}({}) {{ {} }}".format, st.sampled_from(["", "run", "exec"]), _PARAMS, _BLOCKS),
    st.builds("({}) => {{ {} }}".format, _PARAMS, _BLOCKS),
    st.builds("{} => {}".format, st.sampled_from(["a", "cmd"]), _EXPRS),
)
_STATEMENTS = st.one_of(
    st.builds("{} {} = {};".format, st.sampled_from(["const", "let", "var"]), _NAMES, _EXPRS),
    st.builds("let {}, {} = {};".format, _NAMES, _NAMES, _EXPRS),
    st.builds("var {} = {}, {} = {};".format, _NAMES, _EXPRS, _NAMES, _EXPRS),
    st.builds("{} = {};".format, _NAMES, _EXPRS),
    st.builds("{} += {};".format, _NAMES, _EXPRS),
    st.builds("obj.{} = {};".format, _NAMES, _EXPRS),
    st.builds("{};".format, _CALLS),
    st.builds("function {}({}) {{ {} }}".format, _NAMES, _PARAMS, _BLOCKS),
    st.builds("class K {{ {}({}) {{ {} }} }}".format, _NAMES, _PARAMS, _BLOCKS),
    st.builds("if ({}) {{ {} }}".format, _EXPRS, _BLOCKS),
)
_INDEX_SINKS = frozenset({"exec", "spawn"})


def _plain(expr):
    """``expr`` with every ``Func`` read as ``Dynamic``."""
    if isinstance(expr, Func):
        return Dynamic()
    if isinstance(expr, Concat):
        return Concat(_plain(expr.left), _plain(expr.right))
    if isinstance(expr, Alt):
        return Alt([_plain(o) for o in expr.options])
    if isinstance(expr, Tpl):
        return Tpl([(k, _plain(p) if k == "e" else p) for k, p in expr.parts])
    return expr


def _declaration_heads(toks) -> set[int]:
    """Each ``name(`` that follows ``function`` or whose ``)`` is followed by ``{``."""
    heads = set()
    for i in range(1, len(toks) - 1):
        if toks[i].kind != "ident" or (toks[i + 1].kind, toks[i + 1].value) != ("punct", "("):
            continue
        if (toks[i - 1].kind, toks[i - 1].value) == ("ident", "function"):
            heads.add(i)
            continue
        depth, j = 0, i + 1
        while j < len(toks):
            if toks[j].kind == "punct" and toks[j].value in "()":
                depth += 1 if toks[j].value == "(" else -1
                if depth == 0:
                    break
            j += 1
        if j + 1 < len(toks) and (toks[j + 1].kind, toks[j + 1].value) == ("punct", "{"):
            heads.add(i)
    return heads


def _is_subsequence(short: list, long: list) -> bool:
    rest = iter(long)
    return all(any(x == y for y in rest) for x in short)


class TestOneWalkIndex:
    """``scan_module`` against the three-pass ``reference_index``."""

    @settings(max_examples=400, deadline=None)
    @given(_BLOCKS)
    @example("const run = () => { const cmd = 'curl -s'; exec(cmd); };")
    @example("let run; run = function (c) { cp.exec(c) }; run('tar -xf a.tar');")
    @example("class K { exec (cmd) { spawn(cmd) } }\nfunction spawn (what) { exec(what) }")
    @example("var a = 1, of = 'x';\nlet of = 'y';\nof = 'z';")
    def test_keeps_every_reference_call_and_definition(self, source):
        ref = reference_index.scan_module("p.js", source, _INDEX_SINKS)
        new = scan_module("p.js", source, _INDEX_SINKS)
        heads = _declaration_heads(tokenize(source))

        calls = {c.token_index: (c.callee, c.line, [_plain(a) for a in c.args]) for c in new.calls}
        assert heads.isdisjoint(calls)
        for c in ref.calls:
            if c.token_index not in heads:
                assert calls.get(c.token_index) == (c.callee, c.line, [_plain(a) for a in c.args])

        for name, defs in ref.defs.items():
            assert _is_subsequence(
                [(_plain(d.expr), d.op) for d in defs],
                [(_plain(d.expr), d.op) for d in new.defs.get(name, [])],
            ), name

    def test_nested_function_literals(self):
        # Definitions the reference steps over: the one-walk index has them.
        source = "a = () => { b = function () { cmd = 'ls'; }; };"
        assert "cmd" not in reference_index.scan_module("p.js", source, _INDEX_SINKS).defs
        new = scan_module("p.js", source, _INDEX_SINKS)
        assert set(new.defs) == {"a", "b", "cmd"}
        assert set(new.functions) == {"a", "b"}
