"""End-to-end CLI behavior: analyze, slim, inspect."""

from __future__ import annotations

import bz2
import copy
import errno
import gzip
import hashlib
import io
import json
import lzma
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HOSTILE_PAX_RECORDS,
    content_bytes,
    default_config,
    gzip_layer_blobs,
    hostile_pax_after_sparse,
    make_docker_archive,
    make_layer_tar,
    make_oci_archive,
    make_stack,
    run_cli,
    shell_chain_members,
    two_stream_layer,
)
from staticslim import analyzer as analyzer_mod
from staticslim import pruner as pruner_mod
from staticslim.cli import main
from staticslim.imageio import flatten_layers, load_image_archive


def write_shell_image(tmp_path, name="fat.tar", config=None, layout="docker", extra=()):
    layer = make_layer_tar(shell_chain_members(extra))
    if layout == "docker":
        data = make_docker_archive([layer], config=config)
    else:
        data = make_oci_archive([layer], config=config)
    path = tmp_path / name
    path.write_bytes(data)
    return path


def write_project(tmp_path, files, dependencies=None):
    import json as _json

    root = tmp_path / "proj"
    root.mkdir()
    manifest = {"name": "proj", "version": "1.0.0"}
    if dependencies:
        manifest["dependencies"] = {d: "*" for d in dependencies}
    (root / "package.json").write_text(_json.dumps(manifest))
    for rel, content in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)
    return root


class TestAnalyze:
    def test_fig2_style_project_yields_ls(self, tmp_path):
        project = write_project(
            tmp_path,
            {
                "server.js": "const {exec} = require('child_process');\n"
                "function onData(folderName) {\n"
                "  exec('ls ' + folderName);\n"
                "}\n"
            },
        )
        out = tmp_path / "tokens.ctl"
        result = run_cli(["analyze", "--project", str(project), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "ls" in out.read_text().splitlines()

    def test_no_exec_no_scripts_warns_exit_zero(self, tmp_path):
        project = write_project(tmp_path, {"index.js": "module.exports = 1;\n"})
        result = run_cli(["analyze", "--project", str(project)])
        assert result.exit_code == 0
        assert "no command tokens" in result.output

    def test_strict_unresolved_names_sink(self, tmp_path):
        project = write_project(tmp_path, {"run.js": "exec(process.argv[2]);\n"})
        result = run_cli(["analyze", "--project", str(project), "--strict"])
        assert result.exit_code == 4
        assert "run.js:1" in result.output

    def test_report_written(self, tmp_path):
        project = write_project(tmp_path, {"a.js": "exec('du -sh /var');\n"})
        report = tmp_path / "report.json"
        result = run_cli(
            ["analyze", "--project", str(project), "--report", str(report)]
        )
        assert result.exit_code == 0
        doc = json.loads(report.read_text())
        assert any(t["token"] == "du" for t in doc["tokens"])

    def test_report_pins_tokens_origins_and_unresolved_sinks(self, tmp_path):
        # One sink resolves fully, one to a constant fragment before a dynamic
        # part, and one to nothing; the entrypoint script adds its own words.
        project = write_project(
            tmp_path,
            {
                "index.js": "const cp = require('child_process');\n"
                "cp.exec('tar -xzf a.tgz');\n"
                "cp.execSync('du -sh ' + process.argv[2]);\n"
                "cp.spawn(process.env.CMD);\n",
                "docker-entrypoint.sh": "#!/bin/sh\ntar -czf b.tgz .\nnode index.js\n",
            },
        ).resolve()
        report = tmp_path / "report.json"
        result = run_cli(
            ["analyze", "--project", str(project), "--report", str(report)]
        )
        assert result.exit_code == 0, result.output
        js, sh = f"{project}/index.js", f"{project}/docker-entrypoint.sh"

        def token(word, provenance, origin):
            return {"token": word, "provenance": provenance, "origin": origin}

        assert json.loads(report.read_text()) == {
            "tokens": [
                token("tar", "exec-argument", f"{js}:2"),
                token("-xzf", "exec-argument", f"{js}:2"),
                token("a.tgz", "exec-argument", f"{js}:2"),
                token("du", "exec-argument", f"{js}:3"),
                token("-sh", "exec-argument", f"{js}:3"),
                token("/bin/sh", "entrypoint-script", f"{sh}:1"),
                token("-czf", "entrypoint-script", f"{sh}:2"),
                token("b.tgz", "entrypoint-script", f"{sh}:2"),
                token(".", "entrypoint-script", f"{sh}:2"),
                token("node", "entrypoint-script", f"{sh}:3"),
                token("index.js", "entrypoint-script", f"{sh}:3"),
            ],
            "unresolved_sinks": [f"{js}:4"],
        }
        assert result.stdout.splitlines() == [
            "tar", "-xzf", "a.tgz", "du", "-sh", "/bin/sh", "-czf", "b.tgz", ".", "node", "index.js",
        ]
        assert result.stderr == f"11 tokens extracted\nwarning: unresolved exec argument at {js}:4\n"

    def test_sinks_option_replaces_the_sink_names(self, tmp_path):
        project = write_project(tmp_path, {"a.js": "runCommand('fdisk -l');\nexec('ls');\n"})
        result = run_cli(["analyze", "--project", str(project)])
        assert result.stdout.splitlines() == ["ls"]
        result = run_cli(
            ["analyze", "--project", str(project), "--sinks", "runCommand, spawn"]
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == ["fdisk", "-l"]

    def test_include_dep_scripts_tokenizes_installed_scripts(self, tmp_path):
        project = write_project(
            tmp_path, {"start.sh": "mount -a\n", "a.js": "exec('ls');\n"}, dependencies=["dep"]
        )
        dep = project / "node_modules" / "dep"
        dep.mkdir(parents=True)
        (dep / "package.json").write_text('{"name": "dep"}')
        (dep / "build.sh").write_text("make install\n")
        result = run_cli(["analyze", "--project", str(project)])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == ["ls", "mount", "-a"]
        result = run_cli(
            ["analyze", "--project", str(project), "--include-dep-scripts"]
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == ["ls", "make", "install", "mount", "-a"]


def _project_with_manifest(tmp_path, where, manifest):
    """A project whose own manifest (``root``) or whose one installed
    dependency's manifest (``dependency``) is ``manifest``."""
    project = write_project(tmp_path, {"a.js": "exec('ls');\n"}, dependencies=["dep"]).resolve()
    dep = project / "node_modules" / "dep"
    dep.mkdir(parents=True)
    (dep / "package.json").write_text('{"name": "dep"}')
    broken = project if where == "root" else dep
    (broken / "package.json").write_bytes(manifest)
    return project, broken / "package.json"


# devDependencies are read from the project's own manifest only.
@pytest.mark.parametrize(
    "where, manifest",
    [
        ("root", b"[]"),
        ("root", b'{"name": "x", "dependencies": ["dep"]}'),
        ("root", b'{"name": "x", "devDependencies": ["dep"]}'),
        ("root", b'{"name": "\xff"}'),
        ("dependency", b"[]"),
        ("dependency", b'{"name": "dep", "dependencies": ["a"]}'),
        ("dependency", b'{"name": "\xff"}'),
    ],
    ids=["root-list", "root-dependencies-list", "root-dev-dependencies-list", "root-not-utf-8",
         "dependency-list", "dependency-dependencies-list", "dependency-not-utf-8"],
)
def test_package_json_of_the_wrong_shape_exits_4(tmp_path, where, manifest):
    project, manifest = _project_with_manifest(tmp_path, where, manifest)
    image = write_shell_image(tmp_path)
    runs = [
        (["analyze", "--project", str(project)], "error: "),
        (["slim", "--input", str(image), "--output", str(tmp_path / "s.tar"),
          "--project", str(project)], "error: analyze: "),
    ]
    for args, prefix in runs:
        result = run_cli(args)
        assert result.exit_code == 4, result.output
        assert "Traceback" not in result.output
        assert result.output.count("error:") == 1
        assert result.output.startswith(prefix)
        assert str(manifest) in result.output
    assert not (tmp_path / "s.tar").exists()


@pytest.mark.parametrize(
    "content, line",
    [(b"sh\n# comment\ntar -xzf\n", 3), (b"sh\n\nls\xff\n", 3), (b"\xfe\n", 1)],
    ids=["interior-whitespace", "not-utf-8", "not-utf-8-first-line"],
)
def test_ctl_that_breaks_the_format_exits_4(tmp_path, content, line):
    image = write_shell_image(tmp_path)
    ctl = tmp_path / "bad.ctl"
    ctl.write_bytes(content)
    out = tmp_path / "slim.tar"
    result = run_cli(
        ["slim", "--input", str(image), "--output", str(out), "--ctl", str(ctl)]
    )
    assert result.exit_code == 4, result.output
    assert "Traceback" not in result.output
    assert result.output.count("error:") == 1
    assert result.output.startswith(f"error: {ctl}:{line}: ")
    assert not out.exists()


def test_strict_fails_alike_in_analyze_and_slim(tmp_path):
    """``analyze --strict`` and ``slim --project --strict`` warn of each
    unresolved exec argument and fail with one and the same error line."""
    project = write_project(tmp_path, {"run.js": "exec(process.argv[2]);\nexecSync(cmd());\n"}).resolve()
    out = tmp_path / "slim.tar"
    analyze = run_cli(["analyze", "--project", str(project), "--strict"])
    slim = run_cli(["slim", "--input", str(write_shell_image(tmp_path)),
                    "--output", str(out), "--project", str(project), "--strict"])
    js = f"{project}/run.js"
    for result in (analyze, slim):
        assert result.exit_code == 4, result.output
        assert result.stderr.splitlines()[-3:] == [
            f"warning: unresolved exec argument at {js}:1",
            f"warning: unresolved exec argument at {js}:2",
            f"error: 2 unresolved exec argument(s): {js}:1, {js}:2",
        ]
    assert not out.exists()


class TestSlim:
    def _ctl(self, tmp_path, *tokens):
        path = tmp_path / "in.ctl"
        path.write_text("".join(t + "\n" for t in tokens))
        return path

    def test_slim_keeps_sh_chain_drops_perl(self, tmp_path):
        image = write_shell_image(tmp_path)
        ctl = self._ctl(tmp_path, "sh")
        out = tmp_path / "slim.tar"
        result = run_cli(
            ["slim", "--input", str(image), "--output", str(out), "--ctl", str(ctl)],
        )
        assert result.exit_code == 0, result.output
        _, stack = load_image_archive(out)
        with stack:
            rootfs = flatten_layers(stack)
        assert "/usr/bin/sh" in rootfs.entries
        assert "/usr/bin/dash" in rootfs.entries
        assert "/bin" in rootfs.entries
        assert "/usr/bin/perl" not in rootfs.entries
        assert "slimming ratio" in result.output

    def test_input_not_mutated(self, tmp_path):
        image = write_shell_image(tmp_path)
        before = hashlib.sha256(image.read_bytes()).hexdigest()
        run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(tmp_path / "s.tar"),
                "--ctl", str(self._ctl(tmp_path, "sh")),
            ],
        )
        assert hashlib.sha256(image.read_bytes()).hexdigest() == before

    def test_conservative_keeps_everything(self, tmp_path):
        image = write_shell_image(tmp_path)
        out = tmp_path / "slim.tar"
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(out),
                "--ctl", str(self._ctl(tmp_path)),
                "--conservative",
            ],
        )
        assert result.exit_code == 0, result.output
        _, fat_stack = load_image_archive(image)
        _, slim_stack = load_image_archive(out)
        with fat_stack, slim_stack:
            fat = flatten_layers(fat_stack)
            slim = flatten_layers(slim_stack)
            assert slim.entries == fat.entries
            assert content_bytes(slim) == content_bytes(fat)

    def test_strict_mode_aborts_on_unresolved(self, tmp_path):
        image = write_shell_image(tmp_path)
        project = write_project(tmp_path, {"d.js": "execSync(buildCmd());\n"})
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(tmp_path / "s.tar"),
                "--project", str(project),
                "--strict",
            ],
        )
        assert result.exit_code == 4

    def test_same_input_output_rejected(self, tmp_path):
        image = write_shell_image(tmp_path)
        result = run_cli(
            ["slim", "--input", str(image), "--output", str(image), "--ctl", str(self._ctl(tmp_path))],
        )
        assert result.exit_code == 4

    def test_needs_project_or_ctl(self, tmp_path):
        image = write_shell_image(tmp_path)
        result = run_cli(
            ["slim", "--input", str(image), "--output", str(tmp_path / "o.tar")]
        )
        assert result.exit_code == 4

    def test_format_error_exit_code(self, tmp_path):
        garbage = tmp_path / "noise.tar"
        layer = make_layer_tar([{"path": "/x", "data": b"1"}])
        garbage.write_bytes(layer)  # a tar, but not an image archive
        result = run_cli(
            [
                "slim",
                "--input", str(garbage),
                "--output", str(tmp_path / "o.tar"),
                "--ctl", str(self._ctl(tmp_path)),
            ],
        )
        assert result.exit_code == 3

    def test_empty_image_exit_code(self, tmp_path):
        image = tmp_path / "empty.tar"
        image.write_bytes(make_docker_archive([make_layer_tar([])]))
        out = tmp_path / "o.tar"
        result = run_cli(
            ["slim", "--input", str(image), "--output", str(out), "--ctl", str(self._ctl(tmp_path))],
        )
        assert result.exit_code == 3
        assert "no entries" in result.output
        assert not out.exists()

    def test_report_ratio_matches_hand_arithmetic(self, tmp_path):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/keep", "data": b"k" * 3000, "mode": 0o755},
            {"path": "/usr/bin/drop", "data": b"d" * 7000, "mode": 0o755},
        ]
        layer = make_layer_tar(members)
        image = tmp_path / "sized.tar"
        image.write_bytes(make_docker_archive([layer]))
        report_path = tmp_path / "report.json"
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(tmp_path / "o.tar"),
                "--ctl", str(self._ctl(tmp_path, "keep")),
                "--report", str(report_path),
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["original_size"] == 10000
        assert report["slim_size"] == 3000
        assert abs(report["slimming_ratio"] - 0.7) < 0.001

    def test_pipeline_compositionality(self, tmp_path):
        project = write_project(
            tmp_path, {"app.js": "require('child_process').exec('sh -c true');\n"}
        )
        image = write_shell_image(tmp_path)
        one_shot = tmp_path / "oneshot.tar"
        result = run_cli(
            ["slim", "--input", str(image), "--output", str(one_shot), "--project", str(project)],
        )
        assert result.exit_code == 0, result.output

        ctl_file = tmp_path / "staged.ctl"
        result = run_cli(["analyze", "--project", str(project), "-o", str(ctl_file)])
        assert result.exit_code == 0
        staged = tmp_path / "staged.tar"
        result = run_cli(
            ["slim", "--input", str(image), "--output", str(staged), "--ctl", str(ctl_file)],
        )
        assert result.exit_code == 0, result.output
        assert staged.read_bytes() == one_shot.read_bytes()

    def test_dump_artifacts(self, tmp_path):
        image = write_shell_image(tmp_path)
        cll_dump = tmp_path / "cll.jsonl"
        retain_dump = tmp_path / "retain.txt"
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(tmp_path / "o.tar"),
                "--ctl", str(self._ctl(tmp_path, "sh")),
                "--dump-cll", str(cll_dump),
                "--dump-retain", str(retain_dump),
            ],
        )
        assert result.exit_code == 0
        nodes = {n["node"]: n["next"] for n in map(json.loads, cll_dump.read_text().splitlines())}
        # The chains slim matched against, without the alias spellings of
        # expand_command_linked_list: /bin/sh is reached by resolving it.
        assert (nodes["sh"], nodes["/usr/bin/sh"]) == ("/usr/bin/sh", "/usr/bin/dash")
        assert "/bin/sh" not in nodes
        assert "/usr/bin/dash" in retain_dump.read_text().splitlines()

    def test_docker_output_format(self, tmp_path):
        image = write_shell_image(tmp_path, layout="oci")
        out = tmp_path / "slim.tar"
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(out),
                "--ctl", str(self._ctl(tmp_path, "sh")),
                "--format", "docker",
            ],
        )
        assert result.exit_code == 0
        with tarfile.open(out) as tf:
            assert "manifest.json" in tf.getnames()

    def test_gzip_input_and_output(self, tmp_path):
        layer = make_layer_tar(shell_chain_members())
        image = tmp_path / "gz.tar"
        image.write_bytes(make_oci_archive([layer], layer_blobs=gzip_layer_blobs([layer])))
        out = tmp_path / "slim.tar"
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(out),
                "--ctl", str(self._ctl(tmp_path, "sh")),
                "--gzip",
            ],
        )
        assert result.exit_code == 0, result.output
        with tarfile.open(out) as tf:
            index = json.load(tf.extractfile("index.json"))
            digest = index["manifests"][0]["digest"].split(":")[1]
            manifest = json.load(tf.extractfile(f"blobs/sha256/{digest}"))
        assert manifest["layers"][0]["mediaType"].endswith("+gzip")
        _, stack = load_image_archive(out)
        with stack:
            assert "/usr/bin/dash" in flatten_layers(stack).entries

    def test_multi_layer_image_with_whiteout(self, tmp_path):
        base = make_layer_tar(shell_chain_members())
        top = make_layer_tar(
            [
                {"path": "/usr/bin/.wh.perl", "data": b""},
                {"path": "/usr/bin/newtool", "data": b"n", "mode": 0o755},
            ]
        )
        image = tmp_path / "two.tar"
        image.write_bytes(make_docker_archive([base, top]))
        out = tmp_path / "slim.tar"
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(out),
                "--ctl", str(self._ctl(tmp_path, "newtool")),
            ],
        )
        assert result.exit_code == 0, result.output
        _, stack = load_image_archive(out)
        with stack:
            rootfs = flatten_layers(stack)
        assert "/usr/bin/newtool" in rootfs.entries
        assert "/usr/bin/perl" not in rootfs.entries  # whiteout consumed upstream
        assert "/usr/bin/sh" not in rootfs.entries  # unmatched command pruned


class TestInspect:
    def test_reports_no_entrypoint(self, tmp_path):
        image = write_shell_image(tmp_path)
        result = run_cli(["inspect", "--input", str(image)])
        assert result.exit_code == 0
        assert "entrypoint: none" in result.output

    def test_reports_entrypoint(self, tmp_path):
        layer = make_layer_tar(shell_chain_members())
        cfg = default_config([layer], config={"Entrypoint": ["/bin/sh", "-c"], "Cmd": ["app"]})
        image = tmp_path / "entry.tar"
        image.write_bytes(make_docker_archive([layer], cfg))
        result = run_cli(["inspect", "--input", str(image)])
        assert "entrypoint: /bin/sh -c" in result.output
        assert "cmd: app" in result.output

    @pytest.mark.parametrize(
        "extra, tokens, flags, expected",
        [
            ((), ("sh",), (), 2),
            # A retained dangling command link still counts, before and after.
            (({"path": "/usr/bin/ghost", "kind": "symlink", "target": "missing"},), ("sh", "ghost"), (), 3),
            ((), (), ("--conservative",), 3),
        ],
        ids=["sh", "dangling-link", "conservative"],
    )
    def test_command_count_matches_report(self, tmp_path, extra, tokens, flags, expected):
        image = write_shell_image(tmp_path, extra=extra)
        out = tmp_path / "slim.tar"
        report_path = tmp_path / "r.json"
        ctl = tmp_path / "c.ctl"
        ctl.write_text("".join(t + "\n" for t in tokens))
        result = run_cli(
            [
                "slim",
                "--input", str(image),
                "--output", str(out),
                "--ctl", str(ctl),
                "--report", str(report_path),
                *flags,
            ],
        )
        assert result.exit_code == 0
        commands_after = json.loads(report_path.read_text())["commands_after"]
        assert commands_after == expected
        result = run_cli(["inspect", "--input", str(out)])
        assert f"commands supported: {commands_after}" in result.output

    def test_format_error_exit(self, tmp_path):
        bogus = tmp_path / "b.tar"
        bogus.write_bytes(make_layer_tar([{"path": "/x", "data": b"y"}]))
        result = run_cli(["inspect", "--input", str(bogus)])
        assert result.exit_code == 3

    def test_recorded_listing_command_count(self, tmp_path):
        recorded = 57  # the listing itself is the oracle
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
        ] + [
            {"path": f"/usr/bin/u{i}", "data": b"b", "mode": 0o755} for i in range(recorded)
        ]
        layer = make_layer_tar(members)
        image = tmp_path / "listing.tar"
        image.write_bytes(make_docker_archive([layer]))
        result = run_cli(["inspect", "--input", str(image)])
        assert f"commands supported: {recorded}" in result.output


# --- where a command lives ----------------------------------------------------


def _slim_tool(tmp_path, members, *extra, config=None, ctl="tool"):
    """``slim`` of a one-layer image with ``config`` (the image config's
    ``config`` object) and CTL ``ctl``: the image and the slim rootfs's
    entries."""
    layer = make_layer_tar(members)
    image = tmp_path / "search.tar"
    image.write_bytes(make_docker_archive([layer], default_config([layer], config=config or {})))
    ctl_path = tmp_path / "tool.ctl"
    ctl_path.write_text(ctl + "\n")
    out = tmp_path / "slim.tar"
    result = run_cli(["slim", "--input", str(image), "--output", str(out), "--ctl", str(ctl_path), *extra])
    assert result.exit_code == 0, result.output
    _, stack = load_image_archive(out)
    with stack:
        return image, flatten_layers(stack).entries


@pytest.mark.parametrize("spelling", ["/usr/bin/", "/usr//bin", "usr/bin"])
def test_search_dir_in_any_spelling_keeps_the_command(tmp_path, caplog, spelling):
    members = [
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
        {"path": "/usr/bin/tool", "data": b"t", "mode": 0o755},
        {"path": "/usr/bin/other", "data": b"o", "mode": 0o755},
    ]
    image, entries = _slim_tool(tmp_path, members, "--search-dirs", spelling)
    assert "/usr/bin/tool" in entries
    assert "/usr/bin/other" not in entries
    assert "not resolvable" not in caplog.text
    result = run_cli(["inspect", "--input", str(image), "--search-dirs", spelling])
    assert "commands supported: 2" in result.output


def test_search_dir_behind_a_linked_ancestor_keeps_the_command(tmp_path, caplog):
    members = [
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
        {"path": "/usr/bin/ls", "data": b"l", "mode": 0o755},
        {"path": "/usr/local", "kind": "symlink", "target": "/opt/local"},
        {"path": "/opt", "kind": "directory"},
        {"path": "/opt/local", "kind": "directory"},
        {"path": "/opt/local/bin", "kind": "directory"},
        {"path": "/opt/local/bin/tool", "data": b"t", "mode": 0o755},
    ]
    image, entries = _slim_tool(tmp_path, members)
    assert "/opt/local/bin/tool" in entries  # in the prune area, kept as a command
    assert "/usr/bin/ls" not in entries
    assert "not resolvable" not in caplog.text
    result = run_cli(["inspect", "--input", str(image)])
    assert "commands supported: 2" in result.output


def _dirs(*paths):
    return [{"path": p, "kind": "directory"} for p in paths]


def test_path_order_keeps_the_command_the_shell_runs(tmp_path):
    """The image's PATH, not the default list, orders the search: ``node``
    in /usr/local/bin shadows the one in /usr/bin."""
    members = _dirs("/bin", "/usr", "/usr/bin", "/usr/local", "/usr/local/bin") + [
        {"path": "/usr/bin/node", "data": b"old", "mode": 0o755},
        {"path": "/usr/local/bin/node", "data": b"new", "mode": 0o755},
    ]
    config = {"Env": ["PATH=/usr/local/bin:/usr/bin:/bin"], "Cmd": ["node"]}
    _, entries = _slim_tool(tmp_path, members, config=config, ctl="")
    assert "/usr/local/bin/node" in entries
    assert "/usr/bin/node" not in entries


def test_search_dirs_order_holds_through_a_linked_ancestor(tmp_path):
    """``--search-dirs`` is searched in the order given, a directory reached
    through a symlink (/usr/local -> /opt/local) included."""
    members = _dirs("/usr", "/usr/bin", "/opt", "/opt/local", "/opt/local/bin") + [
        {"path": "/usr/local", "kind": "symlink", "target": "/opt/local"},
        {"path": "/usr/bin/x", "data": b"usr", "mode": 0o755},
        {"path": "/opt/local/bin/x", "data": b"opt", "mode": 0o755},
    ]
    _, entries = _slim_tool(tmp_path, members, "--search-dirs", "/usr/local/bin,/usr/bin", ctl="x")
    assert "/opt/local/bin/x" in entries
    assert "/usr/bin/x" not in entries


def test_image_without_path_searches_the_default_directories(tmp_path):
    """Without PATH in ``Env`` the search is ``DEFAULT_SEARCH_DIRS``, /bin
    first; the same image with PATH is searched in PATH's order."""
    members = _dirs("/bin", "/usr", "/usr/local", "/usr/local/bin") + [
        {"path": "/bin/x", "data": b"bin", "mode": 0o755},
        {"path": "/usr/local/bin/x", "data": b"local", "mode": 0o755},
    ]
    for env, kept, dropped in [
        (["NODE_ENV=production"], "/bin/x", "/usr/local/bin/x"),
        (["NODE_ENV=production", "PATH=/usr/local/bin:/bin"], "/usr/local/bin/x", "/bin/x"),
    ]:
        _, entries = _slim_tool(tmp_path, members, config={"Env": env, "WorkingDir": "/"}, ctl="x")
        assert kept in entries, env
        assert dropped not in entries, env


def test_empty_and_relative_path_entries_lie_in_the_working_directory(tmp_path):
    """An empty PATH entry is the working directory and a relative one lies
    below it; ``inspect`` counts the commands of PATH, not of the default
    directories."""
    members = _dirs("/bin", "/usr", "/usr/bin", "/srv", "/srv/app", "/srv/app/bin") + [
        {"path": "/bin/sh", "data": b"sh", "mode": 0o755},
        {"path": "/usr/bin/ls", "data": b"ls", "mode": 0o755},
        {"path": "/srv/app/tool", "data": b"tool", "mode": 0o755},
        {"path": "/srv/app/bin/run", "data": b"run", "mode": 0o755},
    ]
    config = {"Env": ["PATH=/usr/bin::bin"], "WorkingDir": "/srv/app"}
    image, entries = _slim_tool(tmp_path, members, "--report", str(tmp_path / "r.json"),
                                config=config, ctl="run\ntool")
    assert "/srv/app/bin/run" in entries  # in the prune area, kept as a command
    assert "/bin/sh" not in entries
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["matched_tokens"] == {"run": "run", "tool": "tool"}
    assert report["commands_before"] == 3
    result = run_cli(["inspect", "--input", str(image)])
    assert "commands supported: 3" in result.output  # ls, run and tool; not sh


def _malformed_layer(kind: str) -> bytes:
    if kind == "not-a-tar":
        return b"this layer is not a tar stream\n" * 32
    if kind == "truncated-tar":
        # The last member's data is cut short and no end-of-archive blocks
        # follow: a reader that slices member data must still see the cut.
        tar = make_layer_tar([{"path": "/a", "data": b"a"}, {"path": "/big", "data": b"b" * 2000}])
        return tar[:512 * 3 + 1000]
    if kind in ("corrupt-header", "truncated-header"):
        # Three members of one header block and one data block each; the
        # damage is in the second header, after a member that reads fine.
        tar = make_layer_tar([{"path": f"/{c}", "data": c.encode()} for c in "abc"])
        if kind == "truncated-header":
            return tar[:1024 + 300]
        corrupt = bytearray(tar)
        corrupt[1024 + 1] ^= 0x01  # a byte of the second member's name
        return bytes(corrupt)
    if kind.startswith("sparse-then-"):
        return hostile_pax_after_sparse(kind.removeprefix("sparse-then-"))
    if kind in HOSTILE_PAX_RECORDS:
        return make_layer_tar([{"path": "/PaxHeader", "kind": "pax-records",
                                "data": HOSTILE_PAX_RECORDS[kind]},
                               {"path": "/a", "data": b"a"}])
    blob = gzip.compress(make_layer_tar(shell_chain_members()), mtime=0)
    if kind == "truncated-gzip":
        return blob[: len(blob) // 2]
    if kind == "gzip-header-crc":
        # FHCRC set, with a header CRC that is not the header's.
        header = blob[:3] + bytes([gzip.FHCRC]) + blob[4:10]
        crc = (zlib.crc32(header) ^ 1) & 0xFFFF
        return header + crc.to_bytes(2, "little") + blob[10:]
    if kind == "gzip-reserved-flags":
        return blob[:3] + b"\xe0" + blob[4:]
    corrupt = bytearray(blob)
    corrupt[11] ^= 0xFF  # first bytes of the deflate stream, after the header
    return bytes(corrupt)


@pytest.mark.parametrize("kind", ["not-a-tar", "truncated-gzip", "corrupt-gzip", "gzip-header-crc",
                                  "gzip-reserved-flags", "truncated-tar",
                                  "corrupt-header", "truncated-header", *HOSTILE_PAX_RECORDS,
                                  *(f"sparse-then-{kind}" for kind in sorted(HOSTILE_PAX_RECORDS))])
@pytest.mark.parametrize("command", ["slim", "inspect"])
def test_malformed_layer_exits_3(tmp_path, command, kind):
    layers = [make_layer_tar([{"path": "/ok", "data": b"1"}]), _malformed_layer(kind)]
    # The config declares the diff_id of what gzip.decompress makes of the
    # layer, where it accepts it, so that only the layer can refuse the image.
    try:
        declared = [layers[0], gzip.decompress(layers[1])]
    except (OSError, EOFError, zlib.error):
        declared = layers
    image = tmp_path / "bad.tar"
    image.write_bytes(make_docker_archive(layers, default_config(declared)))
    args = [command, "--input", str(image)]
    if command == "slim":
        ctl = tmp_path / "c.ctl"
        ctl.write_text("sh\n")
        args += ["--output", str(tmp_path / "o.tar"), "--ctl", str(ctl)]
    result = run_cli(args)
    assert result.exit_code == 3, result.output
    assert "error: layer 1" in result.output
    if "gzip" in kind:  # the decoder refuses it, with one message for every format
        assert "error: layer 1: not a readable tar stream: cannot decompress: " in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "o.tar").exists()


@pytest.mark.parametrize("packing", ["gzip", "bz2", "xz"])
@pytest.mark.parametrize("command", ["slim", "inspect"])
def test_damaged_later_stream_exits_3(tmp_path, command, packing):
    image = tmp_path / "bad.tar"
    image.write_bytes(make_docker_archive([two_stream_layer(packing, damaged=True)]))
    args = [command, "--input", str(image)]
    if command == "slim":
        ctl = tmp_path / "c.ctl"
        ctl.write_text("sh\n")
        args += ["--output", str(tmp_path / "o.tar"), "--ctl", str(ctl)]
    result = run_cli(args)
    assert result.exit_code == 3, result.output
    assert "error: layer 0: not a readable tar stream: cannot decompress: " in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "o.tar").exists()


@pytest.mark.parametrize("packing", ["bz2", "xz"])
def test_compressed_docker_save_layer_slims(tmp_path, packing):
    """A docker-save layer stored as bzip2 or xz passes the diff_id its
    config declares, the digest of its tar stream, as ``docker load``
    accepts it."""
    layer = make_layer_tar(shell_chain_members())
    blob = {"bz2": bz2.compress, "xz": lzma.compress}[packing](layer)
    image = tmp_path / "img.tar"
    image.write_bytes(make_docker_archive([blob], default_config([layer])))
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out = tmp_path / "o.tar"
    result = run_cli(["slim", "--input", str(image), "--output", str(out),
                      "--ctl", str(ctl)])
    assert result.exit_code == 0, result.output
    _, stack = load_image_archive(out)
    with stack:
        assert "/usr/bin/dash" in flatten_layers(stack).entries


# --- the output file ----------------------------------------------------------


def _slim_into(tmp_path, image, *extra):
    """Run ``slim`` with ``--output`` in a directory of its own, which holds
    an earlier output; the result, the output path and its directory."""
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "slim.tar"
    out.write_bytes(b"an earlier output")
    result = run_cli(["slim", "--input", str(image), "--output", str(out),
                      "--ctl", str(ctl), *extra])
    return result, out, out_dir


@pytest.mark.parametrize("gzip_layer", [False, True])
def test_failed_slim_leaves_the_output_as_it_was(tmp_path, gzip_layer):
    image = tmp_path / "bad.tar"
    image.write_bytes(make_docker_archive([make_layer_tar([{"path": "/ok", "data": b"1"}]),
                                           _malformed_layer("truncated-tar")]))
    result, out, out_dir = _slim_into(tmp_path, image, *(["--gzip"] if gzip_layer else []))
    assert result.exit_code == 3, result.output
    assert out.read_bytes() == b"an earlier output"
    assert [p.name for p in out_dir.iterdir()] == ["slim.tar"]  # no temporary file left


def test_successful_slim_replaces_the_output(tmp_path):
    result, out, out_dir = _slim_into(tmp_path, write_shell_image(tmp_path))
    assert result.exit_code == 0, result.output
    _, stack = load_image_archive(out)
    with stack:
        assert "/usr/bin/dash" in flatten_layers(stack).entries
    assert [p.name for p in out_dir.iterdir()] == ["slim.tar"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask  # as ``open`` creates a file


def test_output_through_a_symlink_replaces_its_target(tmp_path):
    target_dir = tmp_path / "images"
    target_dir.mkdir()
    (target_dir / "slim.tar").write_bytes(b"an earlier output")
    link = tmp_path / "slim.tar"
    link.symlink_to(target_dir / "slim.tar")
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    result = run_cli(["slim", "--input", str(write_shell_image(tmp_path)),
                      "--output", str(link), "--ctl", str(ctl)])
    assert result.exit_code == 0, result.output
    assert link.is_symlink()
    assert [p.name for p in target_dir.iterdir()] == ["slim.tar"]
    _, stack = load_image_archive(link)
    stack.close()


@pytest.mark.parametrize("option", ["--output", "--report", "--dump-cll", "--dump-retain"])
def test_missing_output_directory_exits_4_before_the_input_is_read(tmp_path, monkeypatch,
                                                                  option):
    def unread(path):
        raise AssertionError("the input was read")

    monkeypatch.setattr(pruner_mod, "load_image_archive", unread)
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    paths = {"--output": tmp_path / "slim.tar", option: tmp_path / "missing" / "file"}
    args = ["slim", "--input", str(write_shell_image(tmp_path)), "--ctl", str(ctl)]
    for name, path in paths.items():
        args += [name, str(path)]
    result = run_cli(args)
    assert result.exit_code == 4, result.output
    assert result.output == f"error: {option}: no such directory: {tmp_path / 'missing'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ctl", "fat.tar"]


@pytest.mark.parametrize("option", ["--output", "--report"])
def test_analyze_missing_output_directory_exits_4(tmp_path, monkeypatch, option):
    def unwalked(*args, **kwargs):
        raise AssertionError("the project was walked")

    monkeypatch.setattr(analyzer_mod, "analyze_project", unwalked)
    project = write_project(tmp_path, {"a.js": "exec('ls');\n"})
    result = run_cli(["analyze", "--project", str(project), option,
                      str(tmp_path / "missing" / "file")])
    assert result.exit_code == 4, result.output
    assert "Traceback" not in result.output
    assert result.output == f"error: {option}: no such directory: {tmp_path / 'missing'}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["proj"]


@pytest.mark.parametrize("case", [
    "analyze-without-project", "analyze-project-missing", "analyze-project-is-a-file",
    "analyze-output-is-a-directory", "analyze-report-is-a-directory", "slim-input-missing",
    "slim-input-is-a-directory", "slim-output-is-a-directory", "slim-report-is-a-directory",
    "slim-format-zip", "unknown-command", "analyze-sinks-names-nothing", "slim-sinks-names-nothing",
    "slim-search-dirs-names-nothing", "inspect-search-dirs-names-nothing",
])
def test_usage_error_exits_2_and_writes_nothing(tmp_path, case):
    """A bad invocation is refused before any work: exit 2, a message that
    names what was wrong, no traceback and no output file."""
    project = write_project(tmp_path, {"a.js": "exec('ls');\n"})
    image = write_shell_image(tmp_path)
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    directory = tmp_path / "dir"
    directory.mkdir()
    out, report = tmp_path / "out", tmp_path / "report.json"
    analyze = ["analyze", "--project", str(project), "--output", str(out), "--report", str(report)]
    slim = ["slim", "--input", str(image), "--ctl", str(ctl), "--output", str(out), "--report", str(report)]
    args, named = {
        "analyze-without-project": (analyze[:1] + analyze[3:], "--project"),
        "analyze-project-missing": (analyze[:2] + [str(tmp_path / "nope")] + analyze[3:], "nope"),
        "analyze-project-is-a-file": (analyze[:2] + [str(ctl)] + analyze[3:], "--project"),
        "analyze-output-is-a-directory": (analyze[:4] + [str(directory)] + analyze[5:], "--output"),
        "analyze-report-is-a-directory": (analyze[:6] + [str(directory)], "--report"),
        "slim-input-missing": (slim[:2] + [str(tmp_path / "nope")] + slim[3:], "nope"),
        "slim-input-is-a-directory": (slim[:2] + [str(directory)] + slim[3:], "--input"),
        "slim-output-is-a-directory": (slim[:6] + [str(directory)] + slim[7:], "--output"),
        "slim-report-is-a-directory": (slim[:8] + [str(directory)], "--report"),
        "slim-format-zip": (slim + ["--format", "zip"], "zip"),
        "unknown-command": (["frob"] + analyze[1:], "frob"),
        # A comma-separated list that names nothing, not the defaults.
        "analyze-sinks-names-nothing": (analyze + ["--sinks", ","], "--sinks: no names in ','"),
        "slim-sinks-names-nothing": (slim[:3] + ["--project", str(project)] + slim[5:] + ["--sinks", ""],
                                     "--sinks: no names in ''"),
        "slim-search-dirs-names-nothing": (slim + ["--search-dirs", " , "], "--search-dirs: no names in ' , '"),
        "inspect-search-dirs-names-nothing": (["inspect"] + slim[1:3] + ["--search-dirs", ","],
                                              "--search-dirs: no names in ','"),
    }[case]
    result = run_cli(args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert named in result.output
    assert "Traceback" not in result.output
    assert not out.exists() and not report.exists()
    assert list(directory.iterdir()) == []


def test_interrupt_exits_1_with_aborted(monkeypatch, tmp_path):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(analyzer_mod, "analyze_project", interrupted)
    result = run_cli(["analyze", "--project", str(write_project(tmp_path, {}))])
    assert result.exit_code == 1
    assert result.stderr == "\nAborted!\n"


# Run the CLI in a fresh interpreter as the console script does, on the
# source tree given first.
_RUN_CLI = """\
import sys
sys.path.insert(0, sys.argv.pop(1))
from staticslim.cli import main
main(prog_name="staticslim")
"""


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    """Output piped to a reader that has gone away (``| head -1``) ends the
    run with exit 1 and nothing on stderr but the run's own messages."""
    project = write_project(tmp_path, {"a.js": "".join(f"exec('c{i}');\n" for i in range(2000))})
    src = pathlib.Path(analyzer_mod.__file__).parents[1]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-I", "-c", _RUN_CLI, str(src), "analyze", "--project",
                               str(project)], stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == "2000 tokens extracted\n"


def test_entry_point_as_the_benchmark_calls_it(monkeypatch, tmp_path, capsys):
    """``main.main`` is ``main``; with ``standalone_mode=False`` a success
    returns and a failure raises ``SystemExit``; each command's callback is
    looked up when it is dispatched, so a wrapper put there runs."""
    calls = []
    command = main.commands["analyze"]
    original = command.callback

    def wrapped(*args, **kwargs):
        calls.append(kwargs["project"])
        return original(*args, **kwargs)

    monkeypatch.setattr(command, "callback", wrapped)
    project = write_project(tmp_path, {"a.js": "exec('ls');\n"})
    assert main.main(["analyze", "--project", str(project)], prog_name="staticslim",
                     standalone_mode=False) is None
    assert capsys.readouterr().out == "ls\n"
    assert calls == [str(project)]
    with pytest.raises(SystemExit) as exc:
        main(["slim", "--input", str(write_shell_image(tmp_path)), "--output", str(tmp_path / "o.tar")],
             prog_name="staticslim", standalone_mode=False)
    assert exc.value.code == 4


@pytest.mark.parametrize("fmt", ["gnu", "0.0", "0.1", "1.0"])
def test_sparse_member_in_the_archive_exits_3(tmp_path, fmt):
    """The image archive's members are read as slices of it, which a sparse
    member's bytes are not."""
    image = tmp_path / "sparse.tar"
    image.write_bytes(make_layer_tar([
        {"path": "/manifest.json", "data": b"[]"},
        {"path": "/layer.tar", "kind": "sparse", "format": fmt, "regions": [(9, b"x")]},
    ]))
    result = run_cli(["inspect", "--input", str(image)])
    assert result.exit_code == 3, result.output
    assert result.output == ("error: not a readable tar archive: "
                             "the archive holds a GNU sparse member\n")


def _huge_sparse_image(tmp_path):
    """The shell-chain image plus a sparse file of one stored byte that
    declares 2**60 bytes, in the prune area."""
    members = [*shell_chain_members(),
               {"path": "/usr/lib/huge.img", "kind": "sparse", "format": "0.1",
                "regions": [(0, b"x")], "tail": 2**60 - 1}]
    image = tmp_path / "huge.tar"
    image.write_bytes(make_docker_archive([make_layer_tar(members)]))
    return image


def test_declared_size_of_a_sparse_file_is_never_laid_out(tmp_path):
    """``inspect`` sizes the huge sparse file and ``slim`` drops it, and
    neither lays the file out in memory."""
    image = _huge_sparse_image(tmp_path)
    size = 2**60 + sum(len(m.get("data", b"")) for m in shell_chain_members())

    result = run_cli(["inspect", "--input", str(image)])
    assert result.exit_code == 0, result.output
    assert f"rootfs size: {size}\n" in result.output

    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out, report = tmp_path / "slim.tar", tmp_path / "report.json"
    result = run_cli(["slim", "--input", str(image), "--output", str(out),
                      "--ctl", str(ctl), "--report", str(report)])
    assert result.exit_code == 0, result.output
    assert json.loads(report.read_text())["original_size"] == size
    _, stack = load_image_archive(out)
    with stack:
        entries = flatten_layers(stack).entries
    assert "/usr/bin/dash" in entries
    assert "/usr/lib/huge.img" not in entries


@pytest.mark.parametrize("gzip_layer", [False, True])
def test_retained_sparse_file_too_large_to_lay_out_exits_3(tmp_path, gzip_layer):
    """``--conservative`` keeps the huge sparse file, which cannot be laid
    out to be written: the run ends with one error line, not a
    ``MemoryError`` traceback."""
    image = _huge_sparse_image(tmp_path)
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out = tmp_path / "slim.tar"
    args = ["slim", "--input", str(image), "--output", str(out), "--ctl", str(ctl), "--conservative"]
    result = run_cli(args + (["--gzip"] if gzip_layer else []))
    assert result.exit_code == 3, result.output
    assert result.output.count("error:") == 1
    assert f"error: /usr/lib/huge.img: a sparse file of {2**60} bytes" in result.output
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ctl", "huge.tar"]  # no output, no temporary


# --- spools -----------------------------------------------------------------


def _slim(tmp_path, image, out_name="slim.tar"):
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out = tmp_path / out_name
    result = run_cli(["slim", "--input", str(image), "--output", str(out),
                      "--ctl", str(ctl), "--gzip"])
    return result, out


def test_gzipped_docker_save_archive_slims_like_the_plain_one(tmp_path):
    """``docker save | gzip`` is read through a spool, to the same image."""
    plain = write_shell_image(tmp_path)
    packed = tmp_path / "fat.tar.gz"
    packed.write_bytes(gzip.compress(plain.read_bytes(), mtime=0))
    first, out_plain = _slim(tmp_path, plain, "from-plain.tar")
    second, out_packed = _slim(tmp_path, packed, "from-packed.tar")
    assert first.exit_code == second.exit_code == 0, second.output
    assert first.output == second.output
    assert out_plain.read_bytes() == out_packed.read_bytes()


@pytest.fixture
def spools(monkeypatch, tmp_path):
    """Every temporary file made during the test, with TMPDIR and
    ``tempfile``'s own cached directory pointed at an empty directory."""
    made = []
    real = tempfile.TemporaryFile

    def tracked(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    monkeypatch.setattr(tempfile, "TemporaryFile", tracked)
    return made, tmpdir


def _gzip_image(tmp_path, damage=None):
    """A docker-save image of two gzip layers; ``damage`` spoils it so that
    loading (the second layer's gzip stream), flattening (the second
    layer's tar stream) or the diff_id check fails after the first layer
    was spooled."""
    layers = [make_layer_tar(shell_chain_members()), make_layer_tar([{"path": "/a", "data": b"1"}])]
    config = default_config(layers)
    if damage == "diff-id":
        config["rootfs"]["diff_ids"][1] = "sha256:" + "0" * 64
    if damage == "tar":
        layers[1] = layers[1][:600]
        config = default_config(layers)
    blobs = [gzip.compress(layer, mtime=0) for layer in layers]
    if damage == "gzip":
        blobs[1] = blobs[1][:-12]
    image = tmp_path / "fat.tar"
    image.write_bytes(make_docker_archive(blobs, config=config))
    return image


@pytest.mark.parametrize("damage", [None, "gzip", "tar", "diff-id"])
def test_spools_are_closed_and_leave_no_file(tmp_path, spools, damage):
    made, tmpdir = spools
    result, _ = _slim(tmp_path, _gzip_image(tmp_path, damage))
    assert result.exit_code == (0 if damage is None else 3), result.output
    assert "Traceback" not in result.output
    assert made and all(f.closed for f in made)
    assert list(tmpdir.iterdir()) == []


def test_a_spool_that_cannot_be_written_exits_3(tmp_path, monkeypatch):
    class FullDisk(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: FullDisk())
    result, out = _slim(tmp_path, _gzip_image(tmp_path))
    assert result.exit_code == 3
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and os.strerror(errno.ENOSPC) in errors[0]
    assert not out.exists()


# --- the image documents ------------------------------------------------------

_FULL_CONFIG = {
    "User": "node",
    "Volumes": {"/data": {}},
    "StopSignal": "SIGQUIT",
    "Healthcheck": {"Test": ["CMD", "true"], "Interval": 30000000000},
    "Shell": ["/bin/sh", "-c"],
    "OnBuild": ["RUN true"],
    "Labels": {"team": "infra"},
    "Entrypoint": ["/bin/sh"],
    "Cmd": ["-c", "true"],
    "Env": ["PATH=/usr/bin:/bin"],
    "ExposedPorts": {"80/tcp": {}},
    "WorkingDir": "/srv",
}


def _full_config(layer: bytes) -> dict:
    """The config of an image of ``layer`` that holds fields staticslim
    does not read, as the OCI config spec defines them."""
    config = default_config([layer], config=copy.deepcopy(_FULL_CONFIG), variant="v8")
    config.update({
        "os.version": "10.0.17763.1040",
        "created": "2024-01-02T03:04:05Z",
        "author": "ops",
        "history": [{"created_by": "/bin/sh -c #(nop) ADD file:abc in /"}],
    })
    return config


def _write_image(path, layer: bytes, layout: str, config: dict, damage=None) -> None:
    """An image archive of ``layer`` and ``config`` in ``layout``. Each of its
    documents ("config", "manifest", "index"), once the digests of those
    it names are filled in, is replaced by ``damage(name, document)``: any
    JSON value, or ``bytes`` written as they are."""
    def encode(name, document):
        document = damage(name, document) if damage else document
        return document if isinstance(document, bytes) else json.dumps(document).encode()

    def descriptor(media, data):
        return {"mediaType": media, "digest": _digest(data), "size": len(data)}

    config = encode("config", config)
    if layout == "docker":
        members = [("config.json", config), ("layer0/layer.tar", layer), ("manifest.json", encode(
            "manifest", [{"Config": "config.json", "RepoTags": ["demo:latest"],
                          "Layers": ["layer0/layer.tar"]}]))]
    else:
        manifest = encode("manifest", {
            "schemaVersion": 2,
            "mediaType": "application/vnd.oci.image.manifest.v1+json",
            "config": descriptor("application/vnd.oci.image.config.v1+json", config),
            "layers": [descriptor("application/vnd.oci.image.layer.v1.tar", layer)],
        })
        index_entry = descriptor("application/vnd.oci.image.manifest.v1+json", manifest)
        index_entry["annotations"] = {"org.opencontainers.image.ref.name": "demo:latest"}
        members = [("oci-layout", b'{"imageLayoutVersion": "1.0.0"}'),
                   ("index.json", encode("index", {"schemaVersion": 2, "manifests": [index_entry]}))]
        members += [(f"blobs/sha256/{_digest(data)[7:]}", data)
                    for data in dict.fromkeys([config, manifest, layer])]
    with tarfile.open(path, "w") as tf:
        for name, data in members:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read_config(path) -> dict:
    """The config of the image archive at ``path``, read with tarfile and
    json alone."""
    with tarfile.open(path) as tf:
        def member(name):
            return json.loads(tf.extractfile(name).read())

        if "manifest.json" in tf.getnames():
            return member(member("manifest.json")[0]["Config"])
        digest = member("index.json")["manifests"][0]["digest"]
        config_digest = member("blobs/sha256/" + digest[7:])["config"]["digest"]
        return member("blobs/sha256/" + config_digest[7:])


@pytest.mark.parametrize("in_layout", ["docker", "oci"])
@pytest.mark.parametrize("out_layout", ["docker", "oci"])
def test_slim_config_is_the_input_config(tmp_path, in_layout, out_layout):
    """Every config field reaches the slim image as it was: only ``rootfs``
    names the slim layer, and ``history``, which describes the input's
    layers, is dropped. Slimming the slim image again is the identity."""
    layer = make_layer_tar(shell_chain_members())
    config = _full_config(layer)
    image = tmp_path / "fat.tar"
    _write_image(image, layer, in_layout, config)
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    outputs = []
    for source in (image, tmp_path / "slim-0.tar"):
        outputs.append(tmp_path / f"slim-{len(outputs)}.tar")
        result = run_cli(["slim", "--input", str(source), "--output", str(outputs[-1]),
                          "--ctl", str(ctl), "--format", out_layout])
        assert result.exit_code == 0, result.output
    _, stack = load_image_archive(outputs[0])
    with stack:
        diff_ids = stack.diff_ids
    expected = {key: value for key, value in config.items() if key != "history"}
    expected["rootfs"] = {"type": "layers", "diff_ids": diff_ids}
    assert len(diff_ids) == 1
    assert _read_config(outputs[0]) == expected
    assert outputs[1].read_bytes() == outputs[0].read_bytes()


def _run_both(tmp_path, image):
    """The results of ``slim`` and ``inspect`` on ``image``."""
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    return [run_cli(["slim", "--input", str(image), "--output", str(tmp_path / "o.tar"),
                     "--ctl", str(ctl)]),
            run_cli(["inspect", "--input", str(image)])]


def _config_with(**fields):
    return default_config([make_layer_tar(shell_chain_members())], config=fields)


_MALFORMED_DOCUMENTS = {
    "index-is-a-list": ("oci", "index", []),
    "index-is-not-json": ("oci", "index", b"{not json"),
    "index-is-not-utf8": ("oci", "index", b'{"schemaVersion": 2, "x": "\xff"}'),
    "manifest-descriptor-without-digest": (
        "oci", "index",
        {"schemaVersion": 2, "manifests": [{"mediaType": "application/vnd.oci.image.manifest.v1+json"}]}),
    "manifest-json-of-strings": ("docker", "manifest", ["x"]),
    "manifest-json-is-not-json": ("docker", "manifest", b"[{"),
    "manifest-json-nested-too-deep": ("docker", "manifest", b"[" * 100_000 + b"]" * 100_000),
    "config-is-a-list": ("docker", "config", [1, 2]),
    "config-holds-nan": ("oci", "config", b'{"architecture": "amd64", "os": "linux", "created": NaN}'),
    "config-config-is-a-string": ("docker", "config", {"architecture": "amd64", "os": "linux",
                                                       "config": "x"}),
    "cmd-is-a-number": ("docker", "config", _config_with(Cmd=5)),
    "cmd-is-a-string": ("oci", "config", _config_with(Cmd="sh -c true")),
    "entrypoint-holds-a-number": ("docker", "config", _config_with(Entrypoint=["sh", 1])),
    "env-is-an-object": ("oci", "config", _config_with(Env={"PATH": "/bin"})),
    "exposed-ports-is-a-list": ("docker", "config", _config_with(ExposedPorts=["80/tcp"])),
    "labels-is-a-string": ("docker", "config", _config_with(Labels="a=b")),
    "architecture-is-a-number": ("docker", "config", {"architecture": 5, "os": "linux"}),
    "rootfs-is-a-string": ("docker", "config", {"architecture": "amd64", "os": "linux",
                                                "rootfs": "layers"}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DOCUMENTS))
def test_malformed_image_document_exits_3(tmp_path, case):
    layout, name, bad = _MALFORMED_DOCUMENTS[case]
    image = tmp_path / "bad.tar"
    layer = make_layer_tar(shell_chain_members())
    _write_image(image, layer, layout, default_config([layer]),
                 lambda document_name, document: bad if document_name == name else document)
    for result in _run_both(tmp_path, image):
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.output.startswith("error: ")
        assert "Traceback" not in result.output
    assert not (tmp_path / "o.tar").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(["", "sha256:", "amd64", "/bin/sh", "config.json"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(document, at=()):
    """The path of each value in ``document``: key and index steps."""
    yield at
    items = document.items() if isinstance(document, dict) else (
        enumerate(document) if isinstance(document, list) else ())
    for key, value in items:
        yield from _paths(value, at + (key,))


def _put(document, path, value):
    if not path:
        return value
    document[path[0]] = _put(document[path[0]], path[1:], value)
    return document


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("docker", "manifest"), ("docker", "config"), ("oci", "index"),
                        ("oci", "manifest"), ("oci", "config")]), st.data())
def test_any_json_in_an_image_document_exits_0_3_or_4(target, data):
    """Any JSON value at any path of any document, or under a new key of
    one of its objects, ends ``slim`` and ``inspect`` with a documented
    exit code, never a traceback."""
    layout, target_name = target

    def damage(name, document):
        if name != target_name:
            return document
        path = data.draw(st.sampled_from(list(_paths(document))), label="path")
        parent = document
        for step in path:
            parent = parent[step]
        if isinstance(parent, dict) and data.draw(st.booleans(), label="new key"):
            path += (data.draw(st.sampled_from(["Cmd", "Env", "digest", "mediaType", "x"]), label="key"),)
            parent[path[-1]] = None
        return _put(document, path, data.draw(_JSON, label="value"))

    layer = make_layer_tar(shell_chain_members())
    with tempfile.TemporaryDirectory() as work:
        image = os.path.join(work, "img.tar")
        _write_image(image, layer, layout, _full_config(layer), damage)
        for result in _run_both(pathlib.Path(work), image):
            assert result.exit_code in (0, 3, 4), (result.output, result.exception)


# Run in a fresh interpreter: import the CLI, run the command given (if any)
# and print the names of the modules then loaded.
_LOADED_MODULES = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import staticslim.cli
if len(sys.argv) > 2:
    staticslim.cli.main(sys.argv[2:], prog_name="staticslim", standalone_mode=False)
print(json.dumps(sorted(sys.modules)))
"""


def test_each_command_imports_only_its_stages(tmp_path):
    src = pathlib.Path(analyzer_mod.__file__).parents[1]

    def loaded(*args):
        proc = subprocess.run([sys.executable, "-I", "-c", _LOADED_MODULES, str(src), *args],
                              capture_output=True, text=True, check=True)
        return set(json.loads(proc.stdout.splitlines()[-1]))

    stages = {f"staticslim.{m}" for m in ("analyzer", "jsmodule", "imageio", "tarcodec", "streams",
                                          "pruner", "rootfs", "elf")}
    codec = {"staticslim.tarcodec", "staticslim.streams"}
    image_code = {"staticslim.imageio", *codec, "staticslim.pruner", "staticslim.rootfs",
                  "staticslim.elf", "_hashlib", "tarfile"}
    analysis = {"staticslim.analyzer", "staticslim.jsmodule"}

    assert loaded() & (stages | {"hashlib", "_hashlib", "tarfile", "click"}) == set()

    project = write_project(tmp_path, {"a.js": "exec('ls');\n"})
    ctl = tmp_path / "a.ctl"
    after_analyze = loaded("analyze", "--project", str(project), "--output", str(ctl))
    assert ctl.read_text() == "ls\n"
    assert analysis <= after_analyze
    assert after_analyze & image_code == set()

    after_inspect = loaded("inspect", "--input", str(write_shell_image(tmp_path)))
    assert {"staticslim.imageio", *codec, "staticslim.rootfs"} <= after_inspect
    assert after_inspect & analysis == set()

    # A prebuilt CTL needs only the CTL module, not the analysis behind it.
    after_slim = loaded("slim", "--input", str(write_shell_image(tmp_path)), "--ctl", str(ctl),
                        "--output", str(tmp_path / "slim.tar"))
    assert {"staticslim.ctl", "staticslim.pruner", *codec} <= after_slim
    assert after_slim & (analysis | {"staticslim.shellwords"}) == set()
