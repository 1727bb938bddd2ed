"""End-to-end CLI behavior: analyze, slim, inspect."""

from __future__ import annotations

import errno
import gzip
import hashlib
import io
import json
import os
import tarfile
import tempfile

import pytest
from click.testing import CliRunner

from conftest import (
    HOSTILE_PAX_RECORDS,
    content_bytes,
    default_config,
    hostile_pax_after_sparse,
    make_docker_archive,
    make_layer_tar,
    make_oci_archive,
    make_stack,
    shell_chain_members,
)
from staticslim import pruner as pruner_mod
from staticslim.cli import main
from staticslim.imageio import flatten_layers, load_image_archive


@pytest.fixture
def runner():
    return CliRunner()


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
    def test_fig2_style_project_yields_ls(self, runner, tmp_path):
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
        result = runner.invoke(main, ["analyze", "--project", str(project), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "ls" in out.read_text().splitlines()

    def test_no_exec_no_scripts_warns_exit_zero(self, runner, tmp_path):
        project = write_project(tmp_path, {"index.js": "module.exports = 1;\n"})
        result = runner.invoke(main, ["analyze", "--project", str(project)])
        assert result.exit_code == 0
        assert "no command tokens" in result.output

    def test_strict_unresolved_names_sink(self, runner, tmp_path):
        project = write_project(tmp_path, {"run.js": "exec(process.argv[2]);\n"})
        result = runner.invoke(main, ["analyze", "--project", str(project), "--strict"])
        assert result.exit_code == 4
        assert "run.js:1" in result.output

    def test_report_written(self, runner, tmp_path):
        project = write_project(tmp_path, {"a.js": "exec('du -sh /var');\n"})
        report = tmp_path / "report.json"
        result = runner.invoke(
            main, ["analyze", "--project", str(project), "--report", str(report)]
        )
        assert result.exit_code == 0
        doc = json.loads(report.read_text())
        assert any(t["token"] == "du" for t in doc["tokens"])

    def test_report_pins_tokens_origins_and_unresolved_sinks(self, runner, tmp_path):
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
        result = runner.invoke(
            main, ["analyze", "--project", str(project), "--report", str(report)]
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

    def test_sinks_option_replaces_the_sink_names(self, runner, tmp_path):
        project = write_project(tmp_path, {"a.js": "runCommand('fdisk -l');\nexec('ls');\n"})
        result = runner.invoke(main, ["analyze", "--project", str(project)])
        assert result.stdout.splitlines() == ["ls"]
        result = runner.invoke(
            main, ["analyze", "--project", str(project), "--sinks", "runCommand, spawn"]
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == ["fdisk", "-l"]

    def test_include_dep_scripts_tokenizes_installed_scripts(self, runner, tmp_path):
        project = write_project(
            tmp_path, {"start.sh": "mount -a\n", "a.js": "exec('ls');\n"}, dependencies=["dep"]
        )
        dep = project / "node_modules" / "dep"
        dep.mkdir(parents=True)
        (dep / "package.json").write_text('{"name": "dep"}')
        (dep / "build.sh").write_text("make install\n")
        result = runner.invoke(main, ["analyze", "--project", str(project)])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == ["ls", "mount", "-a"]
        result = runner.invoke(
            main, ["analyze", "--project", str(project), "--include-dep-scripts"]
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
def test_package_json_of_the_wrong_shape_exits_4(runner, tmp_path, where, manifest):
    project, manifest = _project_with_manifest(tmp_path, where, manifest)
    image = write_shell_image(tmp_path)
    runs = [
        (["analyze", "--project", str(project)], "error: "),
        (["slim", "--input", str(image), "--output", str(tmp_path / "s.tar"),
          "--project", str(project)], "error: analyze: "),
    ]
    for args, prefix in runs:
        result = runner.invoke(main, args)
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
def test_ctl_that_breaks_the_format_exits_4(runner, tmp_path, content, line):
    image = write_shell_image(tmp_path)
    ctl = tmp_path / "bad.ctl"
    ctl.write_bytes(content)
    out = tmp_path / "slim.tar"
    result = runner.invoke(
        main, ["slim", "--input", str(image), "--output", str(out), "--ctl", str(ctl)]
    )
    assert result.exit_code == 4, result.output
    assert "Traceback" not in result.output
    assert result.output.count("error:") == 1
    assert result.output.startswith(f"error: {ctl}:{line}: ")
    assert not out.exists()


class TestSlim:
    def _ctl(self, tmp_path, *tokens):
        path = tmp_path / "in.ctl"
        path.write_text("".join(t + "\n" for t in tokens))
        return path

    def test_slim_keeps_sh_chain_drops_perl(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        ctl = self._ctl(tmp_path, "sh")
        out = tmp_path / "slim.tar"
        result = runner.invoke(
            main,
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

    def test_input_not_mutated(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        before = hashlib.sha256(image.read_bytes()).hexdigest()
        runner.invoke(
            main,
            [
                "slim",
                "--input", str(image),
                "--output", str(tmp_path / "s.tar"),
                "--ctl", str(self._ctl(tmp_path, "sh")),
            ],
        )
        assert hashlib.sha256(image.read_bytes()).hexdigest() == before

    def test_conservative_keeps_everything(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        out = tmp_path / "slim.tar"
        result = runner.invoke(
            main,
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
            assert content_bytes(slim.content) == content_bytes(fat.content)

    def test_strict_mode_aborts_on_unresolved(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        project = write_project(tmp_path, {"d.js": "execSync(buildCmd());\n"})
        result = runner.invoke(
            main,
            [
                "slim",
                "--input", str(image),
                "--output", str(tmp_path / "s.tar"),
                "--project", str(project),
                "--strict",
            ],
        )
        assert result.exit_code == 4

    def test_same_input_output_rejected(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        result = runner.invoke(
            main,
            ["slim", "--input", str(image), "--output", str(image), "--ctl", str(self._ctl(tmp_path))],
        )
        assert result.exit_code == 4

    def test_needs_project_or_ctl(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        result = runner.invoke(
            main, ["slim", "--input", str(image), "--output", str(tmp_path / "o.tar")]
        )
        assert result.exit_code == 4

    def test_format_error_exit_code(self, runner, tmp_path):
        garbage = tmp_path / "noise.tar"
        layer = make_layer_tar([{"path": "/x", "data": b"1"}])
        garbage.write_bytes(layer)  # a tar, but not an image archive
        result = runner.invoke(
            main,
            [
                "slim",
                "--input", str(garbage),
                "--output", str(tmp_path / "o.tar"),
                "--ctl", str(self._ctl(tmp_path)),
            ],
        )
        assert result.exit_code == 3

    def test_empty_image_exit_code(self, runner, tmp_path):
        image = tmp_path / "empty.tar"
        image.write_bytes(make_docker_archive([make_layer_tar([])]))
        out = tmp_path / "o.tar"
        result = runner.invoke(
            main,
            ["slim", "--input", str(image), "--output", str(out), "--ctl", str(self._ctl(tmp_path))],
        )
        assert result.exit_code == 3
        assert "no entries" in result.output
        assert not out.exists()

    def test_report_ratio_matches_hand_arithmetic(self, runner, tmp_path):
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
        result = runner.invoke(
            main,
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

    def test_pipeline_compositionality(self, runner, tmp_path):
        project = write_project(
            tmp_path, {"app.js": "require('child_process').exec('sh -c true');\n"}
        )
        image = write_shell_image(tmp_path)
        one_shot = tmp_path / "oneshot.tar"
        result = runner.invoke(
            main,
            ["slim", "--input", str(image), "--output", str(one_shot), "--project", str(project)],
        )
        assert result.exit_code == 0, result.output

        ctl_file = tmp_path / "staged.ctl"
        result = runner.invoke(main, ["analyze", "--project", str(project), "-o", str(ctl_file)])
        assert result.exit_code == 0
        staged = tmp_path / "staged.tar"
        result = runner.invoke(
            main,
            ["slim", "--input", str(image), "--output", str(staged), "--ctl", str(ctl_file)],
        )
        assert result.exit_code == 0, result.output
        assert staged.read_bytes() == one_shot.read_bytes()

    def test_dump_artifacts(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        cll_dump = tmp_path / "cll.jsonl"
        retain_dump = tmp_path / "retain.txt"
        result = runner.invoke(
            main,
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
        lines = [json.loads(l) for l in cll_dump.read_text().splitlines()]
        assert any(n["node"] == "/bin/sh" and n["next"] == "/usr/bin/sh" for n in lines)
        assert "/usr/bin/dash" in retain_dump.read_text().splitlines()

    def test_docker_output_format(self, runner, tmp_path):
        image = write_shell_image(tmp_path, layout="oci")
        out = tmp_path / "slim.tar"
        result = runner.invoke(
            main,
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

    def test_gzip_input_and_output(self, runner, tmp_path):
        layer = make_layer_tar(shell_chain_members())
        image = tmp_path / "gz.tar"
        image.write_bytes(make_oci_archive([layer], gzip_layers=True))
        out = tmp_path / "slim.tar"
        result = runner.invoke(
            main,
            [
                "slim",
                "--input", str(image),
                "--output", str(out),
                "--ctl", str(self._ctl(tmp_path, "sh")),
                "--gzip",
            ],
        )
        assert result.exit_code == 0, result.output
        _, stack = load_image_archive(out)
        with stack:
            assert stack.layers[0].media_type.endswith("+gzip")
            assert "/usr/bin/dash" in flatten_layers(stack).entries

    def test_multi_layer_image_with_whiteout(self, runner, tmp_path):
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
        result = runner.invoke(
            main,
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
    def test_reports_no_entrypoint(self, runner, tmp_path):
        image = write_shell_image(tmp_path)
        result = runner.invoke(main, ["inspect", "--input", str(image)])
        assert result.exit_code == 0
        assert "entrypoint: none" in result.output

    def test_reports_entrypoint(self, runner, tmp_path):
        layer = make_layer_tar(shell_chain_members())
        cfg = default_config([layer], config={"Entrypoint": ["/bin/sh", "-c"], "Cmd": ["app"]})
        image = tmp_path / "entry.tar"
        image.write_bytes(make_docker_archive([layer], cfg))
        result = runner.invoke(main, ["inspect", "--input", str(image)])
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
    def test_command_count_matches_report(self, runner, tmp_path, extra, tokens, flags, expected):
        image = write_shell_image(tmp_path, extra=extra)
        out = tmp_path / "slim.tar"
        report_path = tmp_path / "r.json"
        ctl = tmp_path / "c.ctl"
        ctl.write_text("".join(t + "\n" for t in tokens))
        result = runner.invoke(
            main,
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
        result = runner.invoke(main, ["inspect", "--input", str(out)])
        assert f"commands supported: {commands_after}" in result.output

    def test_format_error_exit(self, runner, tmp_path):
        bogus = tmp_path / "b.tar"
        bogus.write_bytes(make_layer_tar([{"path": "/x", "data": b"y"}]))
        result = runner.invoke(main, ["inspect", "--input", str(bogus)])
        assert result.exit_code == 3

    def test_recorded_listing_command_count(self, runner, tmp_path):
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
        result = runner.invoke(main, ["inspect", "--input", str(image)])
        assert f"commands supported: {recorded}" in result.output


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
    corrupt = bytearray(blob)
    corrupt[11] ^= 0xFF  # first bytes of the deflate stream, after the header
    return bytes(corrupt)


@pytest.mark.parametrize("kind", ["not-a-tar", "truncated-gzip", "corrupt-gzip", "truncated-tar",
                                  "corrupt-header", "truncated-header", *HOSTILE_PAX_RECORDS,
                                  *(f"sparse-then-{kind}" for kind in sorted(HOSTILE_PAX_RECORDS))])
@pytest.mark.parametrize("command", ["slim", "inspect"])
def test_malformed_layer_exits_3(runner, tmp_path, command, kind):
    image = tmp_path / "bad.tar"
    image.write_bytes(make_docker_archive([make_layer_tar([{"path": "/ok", "data": b"1"}]),
                                           _malformed_layer(kind)]))
    args = [command, "--input", str(image)]
    if command == "slim":
        ctl = tmp_path / "c.ctl"
        ctl.write_text("sh\n")
        args += ["--output", str(tmp_path / "o.tar"), "--ctl", str(ctl)]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "error: layer 1" in result.output
    assert "Traceback" not in result.output


# --- the output file ----------------------------------------------------------


def _slim_into(runner, tmp_path, image, *extra):
    """Run ``slim`` with ``--output`` in a directory of its own, which holds
    an earlier output; the result, the output path and its directory."""
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "slim.tar"
    out.write_bytes(b"an earlier output")
    result = runner.invoke(main, ["slim", "--input", str(image), "--output", str(out),
                                  "--ctl", str(ctl), *extra])
    return result, out, out_dir


@pytest.mark.parametrize("gzip_layer", [False, True])
def test_failed_slim_leaves_the_output_as_it_was(runner, tmp_path, gzip_layer):
    image = tmp_path / "bad.tar"
    image.write_bytes(make_docker_archive([make_layer_tar([{"path": "/ok", "data": b"1"}]),
                                           _malformed_layer("truncated-tar")]))
    result, out, out_dir = _slim_into(runner, tmp_path, image, *(["--gzip"] if gzip_layer else []))
    assert result.exit_code == 3, result.output
    assert out.read_bytes() == b"an earlier output"
    assert [p.name for p in out_dir.iterdir()] == ["slim.tar"]  # no temporary file left


def test_successful_slim_replaces_the_output(runner, tmp_path):
    result, out, out_dir = _slim_into(runner, tmp_path, write_shell_image(tmp_path))
    assert result.exit_code == 0, result.output
    _, stack = load_image_archive(out)
    with stack:
        assert "/usr/bin/dash" in flatten_layers(stack).entries
    assert [p.name for p in out_dir.iterdir()] == ["slim.tar"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask  # as ``open`` creates a file


def test_output_through_a_symlink_replaces_its_target(runner, tmp_path):
    target_dir = tmp_path / "images"
    target_dir.mkdir()
    (target_dir / "slim.tar").write_bytes(b"an earlier output")
    link = tmp_path / "slim.tar"
    link.symlink_to(target_dir / "slim.tar")
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    result = runner.invoke(main, ["slim", "--input", str(write_shell_image(tmp_path)),
                                  "--output", str(link), "--ctl", str(ctl)])
    assert result.exit_code == 0, result.output
    assert link.is_symlink()
    assert [p.name for p in target_dir.iterdir()] == ["slim.tar"]
    _, stack = load_image_archive(link)
    stack.close()


@pytest.mark.parametrize("option", ["--output", "--report", "--dump-cll", "--dump-retain"])
def test_missing_output_directory_exits_4_before_the_input_is_read(runner, tmp_path, monkeypatch,
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
    result = runner.invoke(main, args)
    assert result.exit_code == 4, result.output
    assert result.output == f"error: {option}: no such directory: {tmp_path / 'missing'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ctl", "fat.tar"]


@pytest.mark.parametrize("fmt", ["gnu", "0.0", "0.1", "1.0"])
def test_sparse_member_in_the_archive_exits_3(runner, tmp_path, fmt):
    """The image archive's members are read as slices of it, which a sparse
    member's bytes are not."""
    image = tmp_path / "sparse.tar"
    image.write_bytes(make_layer_tar([
        {"path": "/manifest.json", "data": b"[]"},
        {"path": "/layer.tar", "kind": "sparse", "format": fmt, "regions": [(9, b"x")]},
    ]))
    result = runner.invoke(main, ["inspect", "--input", str(image)])
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


def test_declared_size_of_a_sparse_file_is_never_laid_out(runner, tmp_path):
    """``inspect`` sizes the huge sparse file and ``slim`` drops it, and
    neither lays the file out in memory."""
    image = _huge_sparse_image(tmp_path)
    size = 2**60 + sum(len(m.get("data", b"")) for m in shell_chain_members())

    result = runner.invoke(main, ["inspect", "--input", str(image)])
    assert result.exit_code == 0, result.output
    assert f"rootfs size: {size}\n" in result.output

    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out, report = tmp_path / "slim.tar", tmp_path / "report.json"
    result = runner.invoke(main, ["slim", "--input", str(image), "--output", str(out),
                                  "--ctl", str(ctl), "--report", str(report)])
    assert result.exit_code == 0, result.output
    assert json.loads(report.read_text())["original_size"] == size
    _, stack = load_image_archive(out)
    with stack:
        entries = flatten_layers(stack).entries
    assert "/usr/bin/dash" in entries
    assert "/usr/lib/huge.img" not in entries


@pytest.mark.parametrize("gzip_layer", [False, True])
def test_retained_sparse_file_too_large_to_lay_out_exits_3(runner, tmp_path, gzip_layer):
    """``--conservative`` keeps the huge sparse file, which cannot be laid
    out to be written: the run ends with one error line, not a
    ``MemoryError`` traceback."""
    image = _huge_sparse_image(tmp_path)
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out = tmp_path / "slim.tar"
    args = ["slim", "--input", str(image), "--output", str(out), "--ctl", str(ctl), "--conservative"]
    result = runner.invoke(main, args + (["--gzip"] if gzip_layer else []))
    assert result.exit_code == 3, result.output
    assert result.output.count("error:") == 1
    assert f"error: /usr/lib/huge.img: a sparse file of {2**60} bytes" in result.output
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ctl", "huge.tar"]  # no output, no temporary


# --- spools -----------------------------------------------------------------


def _slim(runner, tmp_path, image, out_name="slim.tar"):
    ctl = tmp_path / "c.ctl"
    ctl.write_text("sh\n")
    out = tmp_path / out_name
    result = runner.invoke(main, ["slim", "--input", str(image), "--output", str(out),
                                  "--ctl", str(ctl), "--gzip"])
    return result, out


def test_gzipped_docker_save_archive_slims_like_the_plain_one(runner, tmp_path):
    """``docker save | gzip`` is read through a spool, to the same image."""
    plain = write_shell_image(tmp_path)
    packed = tmp_path / "fat.tar.gz"
    packed.write_bytes(gzip.compress(plain.read_bytes(), mtime=0))
    first, out_plain = _slim(runner, tmp_path, plain, "from-plain.tar")
    second, out_packed = _slim(runner, tmp_path, packed, "from-packed.tar")
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
def test_spools_are_closed_and_leave_no_file(runner, tmp_path, spools, damage):
    made, tmpdir = spools
    result, _ = _slim(runner, tmp_path, _gzip_image(tmp_path, damage))
    assert result.exit_code == (0 if damage is None else 3), result.output
    assert "Traceback" not in result.output
    assert made and all(f.closed for f in made)
    assert list(tmpdir.iterdir()) == []


def test_a_spool_that_cannot_be_written_exits_3(runner, tmp_path, monkeypatch):
    class FullDisk(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: FullDisk())
    result, out = _slim(runner, tmp_path, _gzip_image(tmp_path))
    assert result.exit_code == 3
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and os.strerror(errno.ENOSPC) in errors[0]
    assert not out.exists()
