"""Dependency enumeration, the per-file sink gate, and exec-argument resolution."""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_walk
from staticslim import analyzer, jsmodule
from staticslim.analyzer import (
    DEFAULT_SINKS,
    CommandToken,
    CommandTokenList,
    analyze_project,
    enumerate_dependency_chain,
    exec_call_pattern,
    extract_command_tokens,
    find_shell_scripts,
)
from staticslim.errors import AnalysisError


def write_package(pkg_dir, name, files=None, dependencies=None, version="1.0.0"):
    pkg_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"name": name, "version": version}
    if dependencies:
        manifest["dependencies"] = {d: "*" for d in dependencies}
    (pkg_dir / "package.json").write_text(json.dumps(manifest))
    for rel, content in (files or {}).items():
        path = pkg_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return pkg_dir


@pytest.fixture
def project(tmp_path):
    return write_package(tmp_path / "app", "app", files={"index.js": "console.log('hi');\n"})


@pytest.fixture
def lexed(monkeypatch):
    """Every path the analyzer hands to the module scanner, in call order."""
    seen: list[Path] = []
    scan_module = jsmodule.scan_module

    def recording(path, source, sink_names):
        seen.append(Path(path))
        return scan_module(path, source, sink_names)

    monkeypatch.setattr(jsmodule, "scan_module", recording)
    return seen


def _relative(paths, root) -> list[str]:
    return sorted(p.relative_to(root.resolve()).as_posix() for p in paths)


class TestDependencyChain:
    def test_no_dependencies(self, project):
        packages = enumerate_dependency_chain(project)
        assert [p.name for p in packages] == ["app"]
        assert packages[0].root_dir == project.resolve()

    def test_three_direct_two_transitive(self, tmp_path):
        root = write_package(
            tmp_path / "app", "app", files={"i.js": ""}, dependencies=["a", "b", "c"]
        )
        nm = root / "node_modules"
        write_package(nm / "a", "a", files={"a.js": ""}, dependencies=["d"])
        write_package(nm / "b", "b", files={"b.js": ""}, dependencies=["e"])
        write_package(nm / "c", "c", files={"c.js": ""})
        write_package(nm / "d", "d", files={"d.js": ""})
        write_package(nm / "e", "e", files={"e.js": ""})
        packages = enumerate_dependency_chain(root)
        assert sorted(p.name for p in packages) == ["a", "app", "b", "c", "d", "e"]

    def test_thirty_package_chain(self, tmp_path):
        root = write_package(tmp_path / "app", "app", files={"i.js": ""}, dependencies=["dep0"])
        nm = root / "node_modules"
        for i in range(30):
            deps = [f"dep{i + 1}"] if i < 29 else []
            write_package(nm / f"dep{i}", f"dep{i}", files={"x.js": ""}, dependencies=deps)
        packages = enumerate_dependency_chain(root)
        assert len(packages) == 31

    def test_nested_node_modules(self, tmp_path):
        root = write_package(tmp_path / "app", "app", dependencies=["outer"])
        write_package(
            root / "node_modules" / "outer", "outer", files={"o.js": ""}, dependencies=["inner"]
        )
        write_package(
            root / "node_modules" / "outer" / "node_modules" / "inner",
            "inner",
            files={"i.js": ""},
        )
        packages = enumerate_dependency_chain(root)
        assert sorted(p.name for p in packages) == ["app", "inner", "outer"]

    def test_shared_dependency_listed_once(self, tmp_path):
        root = write_package(tmp_path / "app", "app", dependencies=["a", "b"])
        nm = root / "node_modules"
        write_package(nm / "a", "a", dependencies=["shared"])
        write_package(nm / "b", "b", dependencies=["shared"])
        write_package(nm / "shared", "shared")
        packages = enumerate_dependency_chain(root)
        assert sorted(p.name for p in packages) == ["a", "app", "b", "shared"]

    def test_missing_node_modules_instructs_install(self, tmp_path):
        root = write_package(tmp_path / "app", "app", dependencies=["a"])
        with pytest.raises(AnalysisError, match="install"):
            enumerate_dependency_chain(root)

    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AnalysisError, match="package manifest"):
            enumerate_dependency_chain(empty)

    def test_scoped_package(self, tmp_path, lexed):
        root = write_package(tmp_path / "app", "app", dependencies=["@org/util"])
        write_package(
            root / "node_modules" / "@org" / "util",
            "@org/util",
            files={"u.js": "exec('renice 5');\n"},
        )
        packages = enumerate_dependency_chain(root)
        assert sorted(p.name for p in packages) == ["@org/util", "app"]
        ctl = analyze_project(root)
        assert _relative(lexed, root) == ["node_modules/@org/util/u.js"]
        assert ctl.token_texts() == ["renice", "5"]

    def test_dependency_name_outside_node_modules_is_refused(self, tmp_path, caplog):
        """A manifest entry that walks out of ``node_modules`` names no
        package: it is warned about and skipped, and the code it points at
        adds no token."""
        root = write_package(tmp_path / "app", "app", dependencies=["../../outside"])
        (root / "node_modules").mkdir()
        write_package(tmp_path / "outside", "outside", files={"x.js": "exec('rm -rf /data');\n"})
        assert [p.name for p in enumerate_dependency_chain(root)] == ["app"]
        assert "'../../outside'" in caplog.text
        assert analyze_project(root).token_texts() == []

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a/..", "@org", "@/util",
                                      "@org/", "@org/..", "@../util", "@org/util/lib"])
    def test_only_plain_and_scoped_package_names_are_looked_up(self, tmp_path, name, caplog):
        root = write_package(tmp_path / "app", "app", dependencies=[name])
        (root / "node_modules").mkdir()
        assert analyzer._find_installed(name, root, root) is None
        assert "not a package name" in caplog.text

    def test_source_files_in_path_order_without_dependencies(self, tmp_path):
        root = write_package(
            tmp_path / "app",
            "app",
            files={"a-b/x.js": "", "a/x.js": "", "a/notes.txt": "", "lib/m.cjs": ""},
            dependencies=["dep"],
        )
        write_package(root / "node_modules" / "dep", "dep", files={"d.js": ""})
        os.symlink("missing.js", root / "dangling.js")
        sources = enumerate_dependency_chain(root)[0].source_files
        # Path order compares parts, so "a/x.js" sorts before "a-b/x.js".
        assert [p.relative_to(root.resolve()).as_posix() for p in sources] == [
            "a/x.js",
            "a-b/x.js",
            "lib/m.cjs",
        ]

    def test_walk_matches_the_path_walk(self, tmp_path):
        # The walk joins, filters and sorts names as strings; the reference
        # builds and stats a Path per file. Names around "/" in sort order,
        # names that are only a suffix, and files that are not regular files
        # must come out the same.
        root = tmp_path / "app"
        for name in ("a", "a-b", "a.b", "a0"):
            write_package(root / name, name, files={"m.js": "", "s.sh": "", "m.txt": ""})
        for name in (".js", "x.JS", "y.mjs", "z.cjs", ".sh", "run.sh", "a.b.js"):
            (root / name).write_text("")
        (root / "a" / "deep" / "er").mkdir(parents=True)
        (root / "a" / "deep" / "er" / "d.cjs").write_text("")
        os.symlink("missing.js", root / "dangling.js")
        os.symlink("a", root / "linkdir")
        os.symlink("a/m.js", root / "linked.js")
        os.mkfifo(root / "fifo.js")
        write_package(root / "node_modules" / "dep", "dep", files={"d.js": "", "d.sh": ""})
        write_package(
            root / "node_modules" / "dep" / "node_modules" / "inner",
            "inner",
            files={"i.js": "", "i.sh": ""},
        )
        write_package(root / "a" / "node_modules" / "n", "n", files={"n.js": ""})

        sources = analyzer._source_files(root)
        assert sources == reference_walk.source_files(root)
        assert [p.relative_to(root).as_posix() for p in sources] == [
            "a/deep/er/d.cjs", "a/m.js", "a-b/m.js", "a.b/m.js", "a.b.js", "a0/m.js",
            "linked.js", "y.mjs", "z.cjs",
        ]
        for include_dependencies in (False, True):
            assert analyzer._walk_files(
                root, lambda name: True, include_dependencies
            ) == reference_walk.walk_files(root, include_dependencies)
            assert find_shell_scripts(root, include_dependencies) == reference_walk.shell_scripts(
                root, include_dependencies
            )


_NESTED_SINK_SETS = (
    frozenset({"run", "rerun"}),
    frozenset({"exec", "execSync"}),
    frozenset({"a.b", "x+"}),
    DEFAULT_SINKS,
)


@st.composite
def _sinks_and_texts(draw):
    """A sink set and a few source texts made of its names, near misses and
    comments."""
    sinks = draw(
        st.one_of(
            st.sampled_from(_NESTED_SINK_SETS),
            st.frozensets(st.text(alphabet="aerun.+x", min_size=1, max_size=4), min_size=1, max_size=3),
        )
    )
    name = st.sampled_from(sorted(sinks) or ["exec"])
    word = st.one_of(
        name,
        name.map(lambda s: s[:-1]),
        name.map(lambda s: s[1:]),
        name.map(str.upper),
        st.sampled_from(["x", "1", "$"]),
    )
    piece = st.tuples(
        st.sampled_from(["", " ", ".", "\n", ";", "x", "\u00bd"]),
        word,
        st.sampled_from(["", " ", "/* c */", "// c\n", "/*", "\n"]),
        st.sampled_from(["(", "('x')", "", ")", "x"]),
    ).map("".join)
    texts = st.lists(piece, max_size=4).map("".join)
    return sinks, draw(st.lists(texts, min_size=1, max_size=4))


class TestFilterPackages:
    """Which files ``analyze_project`` lexes: only those with sink-call text."""

    def test_exec_call_retained(self, tmp_path, lexed):
        root = write_package(tmp_path / "app", "app", dependencies=["uses", "clean"])
        nm = root / "node_modules"
        write_package(nm / "uses", "uses", files={"u.js": 'exec("ls")\n'})
        write_package(nm / "clean", "clean", files={"c.js": "module.exports = 1;\n"})
        ctl = analyze_project(root)
        assert _relative(lexed, root) == ["node_modules/uses/u.js"]
        assert ctl.token_texts() == ["ls"]

    def test_project_always_survives(self, tmp_path, lexed):
        root = write_package(
            tmp_path / "app",
            "app",
            files={"index.js": "exec('whoami');\n", "util.js": "module.exports = 1;\n"},
            dependencies=["clean"],
        )
        write_package(root / "node_modules" / "clean", "clean", files={"c.js": "x = 1\n"})
        ctl = analyze_project(root)
        assert _relative(lexed, root) == ["index.js"]
        assert ctl.token_texts() == ["whoami"]

    def test_two_of_thirty(self, tmp_path, lexed):
        root = write_package(tmp_path / "app", "app", dependencies=[f"d{i}" for i in range(30)])
        nm = root / "node_modules"
        for i in range(30):
            body = "exec('true')\n" if i in (7, 21) else "x = 1\n"
            write_package(nm / f"d{i}", f"d{i}", files={"m.js": body})
        ctl = analyze_project(root)
        assert _relative(lexed, root) == ["node_modules/d21/m.js", "node_modules/d7/m.js"]
        assert ctl.token_texts() == ["true"]

    @pytest.mark.parametrize(
        "call", ['exec /* run */ ("ls")', 'exec // run\n("ls")', 'x = \u00bdexec("ls")']
    )
    def test_dependency_call_with_comment_or_non_ascii_prefix(self, tmp_path, call):
        # The scanner treats each of these as a sink call: it skips comments
        # between callee and "(", and lexes "\u00bd" as punctuation.
        root = write_package(tmp_path / "app", "app", dependencies=["dep"])
        write_package(root / "node_modules" / "dep", "dep", files={"d.js": call + ";\n"})
        assert analyze_project(root).token_texts() == ["ls"]

    @given(
        sink=st.sampled_from(sorted(DEFAULT_SINKS)),
        pad=st.text(alphabet=" \t\n", max_size=4),
        prefix=st.sampled_from(["", "cp.", "child_process.", "require('child_process')."]),
    )
    def test_prefilter_is_superset_of_sink_grammar(self, sink, pad, prefix):
        # Whatever the analyzer would treat as a sink call must be caught
        # textually by the prefilter pattern.
        text = f"{prefix}{sink}{pad}('x')"
        assert exec_call_pattern().search(text)

    @given(
        prefix=st.one_of(
            st.sampled_from(["", "cp.", "$", "x = ", "'s' + ", "/re/g, ", "/re/", "1 + ", "1"]),
            st.characters(),
        ),
        sink=st.sampled_from(sorted(DEFAULT_SINKS)),
        gap=st.lists(
            st.one_of(
                st.text(alphabet=" \t\n\r\f\v", min_size=1, max_size=3),
                st.text(alphabet="ab */(\n", max_size=6).map(lambda body: f"/*{body}*/"),
                st.text(alphabet="ab */(", max_size=6).map(lambda body: f"//{body}\n"),
            ),
            max_size=4,
        ).map("".join),
    )
    @example(prefix="", sink="exec", gap="/* c */")
    @example(prefix="\u00bd", sink="exec", gap="")
    def test_gate_is_superset_of_scanned_sink_calls(self, prefix, sink, gap):
        # Whenever the scanner records a sink call in a file, the file passes
        # the gate; otherwise the analyzer would never lex it.
        text = f"{prefix}{sink}{gap}('x')"
        index = jsmodule.scan_module("t.js", text, DEFAULT_SINKS)
        if any(call.callee in DEFAULT_SINKS for call in index.calls):
            assert exec_call_pattern().search(text)

    def test_gate_is_linear_in_comments_after_a_bare_sink_name(self):
        # A sink name followed by many comments and no "(" must not make the
        # search backtrack over every way to split the comments.
        text = "exec " + "/**/ // c\n" * 200 + "x"
        assert exec_call_pattern().search(text) is None

    def test_empty_sink_set_lexes_nothing(self, tmp_path, lexed):
        # No call can be a sink, so no file is worth lexing; an empty
        # alternation must not turn every "(" into a match.
        root = write_package(tmp_path / "app", "app", files={"i.js": "if (x) exec('ls');\n"})
        assert analyze_project(root, frozenset()).token_texts() == []
        assert lexed == []

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(case=_sinks_and_texts())
    @example(case=(frozenset({"run", "rerun"}), ["run(", "rerun(", "xrerun(", "re run ("]))
    @example(case=(DEFAULT_SINKS, ["spawn('ls')", "execSync('id')", "x.exec /* c */ ()"]))
    @example(case=(frozenset(), ["exec('ls')", "f()"]))
    def test_literal_prefilter_lexes_what_the_pattern_passes(self, lexed, case):
        # The substring test ahead of the regex must change nothing: the files
        # lexed are exactly those the call pattern alone passes, for sink sets
        # with nested names and regex metacharacters too.
        sinks, texts = case
        pattern = exec_call_pattern(sinks)
        with tempfile.TemporaryDirectory() as tmp:
            root = write_package(
                Path(tmp) / "app", "app", files={f"f{i}.js": t for i, t in enumerate(texts)}
            )
            lexed.clear()
            analyze_project(root, sinks)
            assert _relative(lexed, root) == sorted(
                f"f{i}.js" for i, t in enumerate(texts) if pattern.search(t)
            )


def _resolved(tmp_path, source: str, sinks=DEFAULT_SINKS) -> list[list[str]]:
    """The constant values of each sink call of a one-file package, in order."""
    pkg = write_package(tmp_path / "p", "p", files={"main.js": source})
    resolved, _ = analyzer._resolve_sources(enumerate_dependency_chain(pkg)[0].source_files, sinks)
    assert all(location.startswith(str(pkg.resolve() / "main.js:")) for location, _ in resolved)
    return [values for _, values in resolved]


class TestDataDependencies:
    def test_constant_argument(self, tmp_path):
        assert _resolved(tmp_path, 'const c = "tar -xzf a.tgz";\nexec(c);\n') == [["tar -xzf a.tgz"]]

    def test_dynamic_suffix_keeps_constant_fragment(self, tmp_path):
        source = (
            "const server = require('net').createServer((socket) => {\n"
            "  socket.on('data', (data) => {\n"
            "    const folderName = data.toString().trim();\n"
            "    exec('ls ' + folderName, (e, out) => socket.write(out));\n"
            "  });\n"
            "});\n"
        )
        assert _resolved(tmp_path, source) == [["ls "]]

    def test_three_hop_chain_across_functions(self, tmp_path):
        source = (
            'var archive = "pkg.tgz";\n'
            "function unpack(cmdline) {\n"
            "  execSync(cmdline);\n"
            "}\n"
            "function prepare() {\n"
            '  var full = "tar -xzf " + archive;\n'
            "  unpack(full);\n"
            "}\n"
        )
        # Hand-traced: archive -> full -> cmdline -> sink.
        assert _resolved(tmp_path, source) == [["tar -xzf pkg.tgz"]]

    def test_fully_dynamic_is_unresolved(self, tmp_path):
        assert _resolved(tmp_path, "exec(process.argv[2]);\n") == [[]]

    def test_reassignment_yields_both_values(self, tmp_path):
        source = 'var t = "gzip f";\nif (x) { t = "bzip2 f"; }\nexecSync(t);\n'
        assert [sorted(values) for values in _resolved(tmp_path, source)] == [["bzip2 f", "gzip f"]]

    def test_member_and_required_callee(self, tmp_path):
        source = (
            "const cp = require('child_process');\n"
            "cp.exec('gzip -9 data');\n"
            "require('child_process').execFile('/usr/bin/stat', ['-c', '%s']);\n"
        )
        values = sorted(v for values in _resolved(tmp_path, source) for v in values)
        assert values == ["/usr/bin/stat", "gzip -9 data"]

    def test_unreached_branch_still_analyzed(self, tmp_path):
        source = "if (false) {\n  exec('ls /never');\n}\n"
        assert _resolved(tmp_path, source)[0] == ["ls /never"]

    def test_template_literal(self, tmp_path):
        source = 'const d = "/srv";\nexec(`du -sh ${d}`);\n'
        assert _resolved(tmp_path, source)[0] == ["du -sh /srv"]

    def test_direct_literal(self, tmp_path):
        assert _resolved(tmp_path, "spawnSync('mount');\n")[0] == ["mount"]

    def test_custom_sink_set(self, tmp_path):
        source = "runCommand('fdisk -l');\nexec('ls');\n"
        assert _resolved(tmp_path, source, frozenset({"runCommand"})) == [["fdisk -l"]]


class TestExtractTokens:
    def test_whitespace_split(self):
        ctl = extract_command_tokens([("x.js:1", ["ls -la /tmp"])], [])
        assert ctl.token_texts() == ["ls", "-la", "/tmp"]

    def test_shell_script_and_interpreter(self, tmp_path):
        script = tmp_path / "setup.sh"
        script.write_text("#!/bin/sh\n# comment\ntar xf a && rm a\n")
        ctl = extract_command_tokens([], [script])
        assert set(ctl.token_texts()) == {"/bin/sh", "tar", "xf", "a", "rm"}

    def test_entrypoint_provenance(self, tmp_path):
        script = tmp_path / "docker-entrypoint.sh"
        script.write_text("#!/bin/sh\nnode app.js\n")
        ctl = extract_command_tokens([], [script])
        assert all(t.provenance == "entrypoint-script" for t in ctl.tokens)

    def test_empty_inputs(self):
        ctl = extract_command_tokens([], [])
        assert ctl.tokens == []
        assert ctl.unresolved_sinks == []

    def test_dedup_keeps_first_provenance(self, tmp_path):
        script = tmp_path / "s.sh"
        script.write_text("tar cf out.tar .\n")
        ctl = extract_command_tokens([("x.js:1", ["tar xf"])], [script])
        tars = [t for t in ctl.tokens if t.token == "tar"]
        assert len(tars) == 1
        assert tars[0].provenance == "exec-argument"

    def test_unresolved_sinks_carried(self):
        ctl = extract_command_tokens([("x.js:9", [])], [])
        assert ctl.unresolved_sinks == ["x.js:9"]


class TestCtlFile:
    def test_round_trip(self, tmp_path):
        ctl = CommandTokenList()
        ctl.add("ls", "exec-argument", "a.js:1")
        ctl.add("tar", "shell-script", "b.sh:2")
        out = tmp_path / "tokens.ctl"
        ctl.write_text(out)
        assert out.read_text() == "ls\ntar\n"
        loaded = CommandTokenList.read_text(out)
        assert loaded.token_texts() == ["ls", "tar"]

    def test_add_keeps_first_occurrence_in_order(self):
        ctl = CommandTokenList(tokens=[CommandToken("ls", "exec-argument", "a.js:1")])
        for i, token in enumerate(["tar", "ls", "id", "tar"]):
            ctl.add(token, "shell-script", f"b.sh:{i}")
        assert ctl.token_texts() == ["ls", "tar", "id"]
        assert [t.origin for t in ctl.tokens] == ["a.js:1", "b.sh:0", "b.sh:2"]


class TestAnalyzeProject:
    def test_end_to_end(self, tmp_path):
        root = write_package(
            tmp_path / "app",
            "app",
            files={
                "server.js": "const {exec} = require('child_process');\n"
                             "if (false) { exec('ls ' + userDir); }\n",
                "scripts/build.sh": "#!/bin/sh\nnpm pack\n",
            },
            dependencies=["helper"],
        )
        write_package(
            root / "node_modules" / "helper",
            "helper",
            files={"h.js": "execSync('uname -a');\n"},
        )
        ctl = analyze_project(root)
        texts = set(ctl.token_texts())
        assert {"ls", "uname", "-a", "/bin/sh", "npm", "pack"} <= texts

    def test_dependency_scripts_excluded_by_default(self, tmp_path):
        root = write_package(tmp_path / "app", "app", dependencies=["dep"])
        write_package(
            root / "node_modules" / "dep",
            "dep",
            files={"run.sh": "#!/bin/sh\nwget http://x\n"},
        )
        assert find_shell_scripts(root) == []
        included = find_shell_scripts(root, include_dependencies=True)
        assert len(included) == 1

    def test_deterministic_over_runs(self, tmp_path):
        root = write_package(
            tmp_path / "app",
            "app",
            files={
                "z.js": "exec('umount /mnt');\n",
                "a.js": "execSync('mount /mnt');\n",
                "mid.sh": "#!/bin/sh\nsync\n",
            },
        )
        first = analyze_project(root)
        second = analyze_project(root)
        assert first.token_texts() == second.token_texts()
        assert [t.origin for t in first.tokens] == [t.origin for t in second.tokens]

    def test_each_file_read_once(self, tmp_path, monkeypatch):
        root = write_package(
            tmp_path / "app",
            "app",
            files={"a.js": "exec('ls');\n", "b.js": "x = 1;\n", "s.sh": "#!/bin/sh\ndate\n"},
            dependencies=["uses", "clean"],
        )
        nm = root / "node_modules"
        write_package(nm / "uses", "uses", files={"u.js": "exec('id')\n", "v.js": "y = 2\n"})
        write_package(nm / "clean", "clean", files={"c.js": "module.exports = 1;\n"})
        reads: Counter = Counter()
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            reads[self.resolve()] += 1
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        ctl = analyze_project(root)
        assert ctl.token_texts() == ["ls", "id", "/bin/sh", "date"]
        sources = {p for p in reads if p.suffix == ".js"}
        assert _relative(sources, root) == [
            "a.js", "b.js", "node_modules/clean/c.js", "node_modules/uses/u.js", "node_modules/uses/v.js",
        ]
        assert max(reads.values()) == 1
