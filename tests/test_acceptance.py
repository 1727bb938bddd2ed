"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 10 (network smoke test) is gated behind
STATICSLIM_NETWORK_TESTS=1 and stays skipped in the default suite.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import tarfile
import time

import pytest

from conftest import (
    default_config,
    flattened_snapshot,
    make_docker_archive,
    make_elf,
    make_layer_tar,
    make_oci_archive,
    make_stack,
    oracle_command_start,
    oracle_walk,
    random_symlink_rootfs,
    rootfs_from_ground_truth,
    sequential_apply_oracle,
    sha256,
    shell_chain_members,
    snapshot_dir,
)
from staticslim.analyzer import CommandTokenList, analyze_project
from staticslim.imageio import flatten_layers, load_image_archive
from staticslim.pruner import (
    RetainList,
    build_retain_list,
    compute_report,
    emit_slim_rootfs,
    in_prune_area,
    match_tokens,
    slim_image,
)
from staticslim.rootfs import (
    build_command_linked_list,
    collect_system_commands,
    expand_command_linked_list,
    resolve_chain,
    resolve_entry,
)

from test_elf import build_random_elf_forest, oracle_bfs_closure, walk_closure


class _Criterion:
    """Times a criterion and prints its verdict line."""

    def __init__(self, number: int, title: str, budget_seconds: float):
        self.number = number
        self.title = title
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number}: {self.title}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def _ctl(*tokens) -> CommandTokenList:
    ctl = CommandTokenList()
    for i, t in enumerate(tokens):
        ctl.add(t, "exec-argument", f"acceptance:{i}")
    return ctl


def _slim_pipeline(archive_bytes: bytes, tokens, tmp_path, tag: str):
    """load -> flatten -> model -> match -> retain -> emit -> build -> report:
    the slim archive's bytes and the ``SlimResult``."""
    src = tmp_path / f"{tag}.tar"
    src.write_bytes(archive_bytes)
    out = tmp_path / f"{tag}-slim.tar"
    result = slim_image(src, _ctl(*tokens), out)
    return out.read_bytes(), result


def _rebuilt_head_count(rootfs, retain) -> int:
    """Heads of a CLL rebuilt from the emitted slim rootfs tar."""
    slim_rootfs = flatten_layers(make_stack([b"".join(emit_slim_rootfs(rootfs, retain))]))
    return len(build_command_linked_list(collect_system_commands(slim_rootfs), slim_rootfs).heads)


def test_criterion_1_fig4_reproduction(shell_rootfs):
    with _Criterion(1, "command chain reproduction (sh/dash/bin alias)", 1.0):
        cll = build_command_linked_list(["sh", "dash"], shell_rootfs)
        expand_command_linked_list(cll, shell_rootfs)
        assert resolve_chain(cll, "sh") == ["/usr/bin/sh", "/usr/bin/dash"]
        assert resolve_chain(cll, "/bin/sh") == ["/bin/sh", "/usr/bin/sh", "/usr/bin/dash"]
        assert cll.nodes["sh"].next is cll.nodes["/usr/bin/sh"]
        assert cll.nodes["/usr/bin/sh"].next is cll.nodes["/usr/bin/dash"]
        assert cll.nodes["/bin/sh"].next is cll.nodes["/usr/bin/sh"]
        assert {"sh", "/bin/sh", "/usr/bin/sh", "/usr/bin/dash"} <= set(cll.nodes)


def test_criterion_2_randomized_chain_properties():
    with _Criterion(2, "1000 randomized symlink forests vs brute-force oracle", 30.0):
        for seed in range(1000):
            rng = random.Random(20_000 + seed)
            entries, _, search_dirs = random_symlink_rootfs(rng)
            assert len(entries) <= 200
            rootfs = rootfs_from_ground_truth(entries)
            commands = collect_system_commands(rootfs, search_dirs)
            cll = build_command_linked_list(commands, rootfs, search_dirs)

            assert cll.heads == commands, f"seed={seed}"
            for cmd in commands:
                start = oracle_command_start(entries, cmd, search_dirs)
                assert start is not None, f"seed={seed} cmd={cmd}"
                expected = oracle_walk(entries, start)
                got = resolve_chain(cll, cmd)
                assert got == expected, f"seed={seed} cmd={cmd}: {got} != {expected}"
                assert got[-1] == expected[-1]  # terminal equality

            expand_command_linked_list(cll, rootfs)
            node_count = len(cll.nodes)
            dump = cll.dump()
            expand_command_linked_list(cll, rootfs)
            assert len(cll.nodes) == node_count, f"seed={seed}: expansion not idempotent"
            assert cll.dump() == dump, f"seed={seed}"

            for head in cll.heads:
                chain = resolve_chain(cll, head)  # must terminate
                assert len(chain) <= node_count


def test_criterion_3_elf_closure_oracle():
    with _Criterion(3, "ELF closure equals breadth-first oracle", 5.0):
        total_objects = 0
        for seed in range(8):
            rng = random.Random(77_000 + seed)
            rootfs, graph, placements, roots = build_random_elf_forest(rng)
            total_objects += len(graph)
            for root, interp in roots:
                expected, missing = oracle_bfs_closure(graph, placements, root, interp)
                closure = walk_closure(root, rootfs)
                assert closure.paths == expected, f"seed={seed} root={root}"
                assert set(closure.missing) == missing  # reported, never fatal
        assert total_objects >= 10


def test_criterion_4_flatten_oracle(tmp_path):
    from test_imageio import random_layers

    with _Criterion(4, "layer flattening equals sequential-apply oracle", 10.0):
        for seed in range(25):
            rng = random.Random(31_000 + seed)
            layers = random_layers(rng)
            dest = tmp_path / f"scratch{seed}"
            dest.mkdir()
            sequential_apply_oracle(layers, str(dest))
            expected = snapshot_dir(str(dest))
            actual = flattened_snapshot(flatten_layers(make_stack(layers)))
            assert actual == expected, f"seed={seed}"


def _elf_image_members():
    members = shell_chain_members()
    dash_elf = make_elf(needed=["libc.so.6"], interp="/lib/ld-linux.so.2")
    replaced = []
    for m in members:
        if m["path"] == "/usr/bin/dash":
            m = dict(m, data=dash_elf)
        replaced.append(m)
    replaced.extend(
        [
            {"path": "/usr/lib", "kind": "directory"},
            {"path": "/usr/lib/libc.so.6", "data": make_elf(), "mode": 0o755},
            {"path": "/usr/lib/ld-linux.so.2", "data": make_elf(), "mode": 0o755},
            {"path": "/lib", "kind": "symlink", "target": "usr/lib"},
            {"path": "/usr/bin/ls", "data": b"ls binary", "mode": 0o755},
        ]
    )
    return replaced


def test_criterion_5_round_trip_and_idempotence(tmp_path):
    with _Criterion(5, "slim image round trip and idempotent pruning", 10.0):
        layer = make_layer_tar(_elf_image_members())
        cfg = default_config(
            [layer],
            config={"Env": ["PATH=/usr/bin:/bin"], "ExposedPorts": {"443/tcp": {}}},
        )
        fat = make_docker_archive([layer], cfg, repo_tag="roundtrip:fat")

        first, slimmed = _slim_pipeline(fat, ["sh"], tmp_path, "fat")
        metadata = slimmed.metadata
        out = tmp_path / "first.tar"
        out.write_bytes(first)
        loaded, stack = load_image_archive(out)
        # every field preserved; rootfs names the slim layer
        assert {**loaded.config, "rootfs": None} == {**metadata.config, "rootfs": None}
        with stack:
            layer_blob = stack.layers[0]
            # The slim layer is stored uncompressed: its diff_id is its digest.
            assert layer_blob.diff_id == sha256(layer_blob.data)

        second, _ = _slim_pipeline(first, ["sh"], tmp_path, "slim-again")
        assert second == first  # second pass byte-identical


def test_criterion_6_static_coverage_of_unreached_branch(tmp_path):
    with _Criterion(6, "unreached exec branch still yields its command", 5.0):
        project = tmp_path / "server"
        project.mkdir()
        (project / "package.json").write_text(json.dumps({"name": "server", "version": "1.0.0"}))
        (project / "server.js").write_text(
            "const net = require('net');\n"
            "const { exec } = require('child_process');\n"
            "const server = net.createServer((socket) => {\n"
            "  socket.on('data', (data) => {\n"
            "    const folderName = data.toString().trim();\n"
            "    exec('ls ' + folderName, (err, stdout) => socket.write(stdout));\n"
            "  });\n"
            "});\n"
            "server.listen(8124);\n"
        )
        ctl = analyze_project(project)
        assert "ls" in ctl.token_texts()  # found without any client connection

        layer = make_layer_tar(_elf_image_members())
        fat = make_docker_archive([layer], default_config([layer]))
        archive, slimmed = _slim_pipeline(fat, ctl.token_texts(), tmp_path, "fig2")
        retain = slimmed.retain
        assert "/usr/bin/ls" in retain.paths

        out = tmp_path / "fig2-slim.tar"
        out.write_bytes(archive)
        _, stack = load_image_archive(out)
        with stack:
            slim_rootfs = flatten_layers(stack)
        assert "/usr/bin/ls" in slim_rootfs.entries


def test_criterion_7_no_entry_point(tmp_path):
    with _Criterion(7, "image without entry point slims and round-trips", 5.0):
        layer = make_layer_tar(_elf_image_members())
        cfg = default_config([layer])  # no Entrypoint, no Cmd
        fat = make_docker_archive([layer], cfg, repo_tag="noentry:latest")

        archive, slimmed = _slim_pipeline(fat, ["sh"], tmp_path, "noentry")
        metadata, retain = slimmed.metadata, slimmed.retain
        assert metadata.entrypoint is None
        assert metadata.cmd is None
        assert {"/usr/bin/sh", "/usr/bin/dash"} <= retain.paths

        out = tmp_path / "noentry-slim.tar"
        out.write_bytes(archive)
        loaded, stack = load_image_archive(out)
        stack.close()
        assert loaded.entrypoint is None
        assert loaded.cmd is None


def test_criterion_8_report_arithmetic():
    with _Criterion(8, "ratio arithmetic and recorded command counts", 5.0):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/keep", "data": b"k" * 4000, "mode": 0o755},
            {"path": "/usr/bin/drop", "data": b"d" * 6000, "mode": 0o755},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(collect_system_commands(rootfs), rootfs)
        expand_command_linked_list(cll, rootfs)
        match = match_tokens(_ctl("keep"), cll)
        retain = build_retain_list(match.start_nodes, cll, rootfs)
        report = compute_report(rootfs, cll, retain, match=match)
        assert report.original_size == 10000
        assert report.slim_size == 4000
        assert abs(report.slimming_ratio - 0.6) <= 0.001  # 0.1 percentage point
        assert report.commands_before == 2
        assert report.commands_after == 1

        # Recorded listings modeled on the fat/slim base-image disparity:
        # 1678 and 878 distinct commands respectively.
        for recorded_count in (1678, 878):
            names = [f"c{i:04d}" for i in range(recorded_count)]
            listing_members = [
                {"path": "/usr", "kind": "directory"},
                {"path": "/usr/bin", "kind": "directory"},
            ] + [{"path": f"/usr/bin/{n}", "data": b"b", "mode": 0o755} for n in names]
            listing_rootfs = flatten_layers(make_stack([make_layer_tar(listing_members)]))
            listing_cll = build_command_linked_list(
                collect_system_commands(listing_rootfs), listing_rootfs
            )
            assert len(listing_cll.heads) == recorded_count


def test_criterion_9_safety_invariants():
    with _Criterion(9, "safety invariants on randomized prune cases", 30.0):
        for seed in range(200):
            rng = random.Random(55_000 + seed)
            entries, commands, _ = random_symlink_rootfs(rng)

            # Drop a couple of dynamic ELFs with a recorded needed-set in.
            entries["/usr/lib"] = {"kind": "directory", "mode": 0o755}
            entries["/usr/lib/libdep.so"] = {
                "kind": "regular", "mode": 0o755, "data": make_elf(),
            }
            elf_cmds = []
            for commands_slot in range(rng.randrange(0, 3)):
                name = f"elfcmd{commands_slot}"
                entries[f"/usr/bin/{name}"] = {
                    "kind": "regular",
                    "mode": 0o755,
                    "data": make_elf(needed=["libdep.so"]),
                }
                elf_cmds.append(name)

            rootfs = rootfs_from_ground_truth(entries)
            all_commands = collect_system_commands(rootfs)
            cll = build_command_linked_list(all_commands, rootfs)
            expand_command_linked_list(cll, rootfs)

            picks = rng.sample(all_commands, k=min(len(all_commands), rng.randrange(0, 5)))
            tokens = picks + ["--flag", "not-a-command", "/etc/none"] + elf_cmds
            match = match_tokens(_ctl(*tokens), cll)
            retain = build_retain_list(match.start_nodes, cll, rootfs)

            removed = set(rootfs.entries) - retain.paths
            assert all(in_prune_area(p) for p in removed), f"seed={seed}"

            for path in retain.paths:
                rec = rootfs.entries[path]
                if rec.kind == "symlink":
                    physical = resolve_entry(rootfs, rootfs.symlink_table[path])
                    if physical in rootfs.entries:
                        assert physical in retain.paths, f"seed={seed} {path}"

            for path in sorted(retain.paths):
                rec = rootfs.entries[path]
                if rec.kind != "regular" or not rec.is_executable():
                    continue
                closure = walk_closure(path, rootfs)
                assert closure.paths <= retain.paths, f"seed={seed} {path}"

            report = compute_report(rootfs, cll, retain, match=match)
            assert report.slim_size <= report.original_size, f"seed={seed}"
            assert report.commands_after == _rebuilt_head_count(rootfs, retain), f"seed={seed}"

            everything = RetainList()
            for path in rootfs.entries:
                everything.add(path, "conservative")
            kept_all = compute_report(rootfs, cll, everything, match=match)
            assert kept_all.commands_after == _rebuilt_head_count(rootfs, everything), f"seed={seed}"


NETWORK_GATE = os.environ.get("STATICSLIM_NETWORK_TESTS") == "1"


@pytest.mark.skipif(not NETWORK_GATE, reason="network smoke test; set STATICSLIM_NETWORK_TESTS=1")
def test_criterion_10_network_smoke(tmp_path):
    """Pull a small real image, slim it with a hand-authored CTL, and run the
    retained shell from a scratch extraction."""
    import urllib.request

    image = "library/busybox"
    registry = "https://registry-1.docker.io"
    token_url = (
        "https://auth.docker.io/token?service=registry.docker.io"
        f"&scope=repository:{image}:pull"
    )
    token = json.loads(urllib.request.urlopen(token_url, timeout=30).read())["token"]

    def fetch(path, accept):
        req = urllib.request.Request(registry + path)
        req.add_header("Authorization", f"Bearer {token}")
        req.add_header("Accept", accept)
        return urllib.request.urlopen(req, timeout=60).read()

    index = json.loads(
        fetch(
            f"/v2/{image}/manifests/latest",
            "application/vnd.oci.image.index.v1+json,"
            "application/vnd.docker.distribution.manifest.list.v2+json",
        )
    )
    digest = next(
        m["digest"]
        for m in index["manifests"]
        if m.get("platform", {}).get("architecture") == "amd64"
    )
    manifest = json.loads(
        fetch(
            f"/v2/{image}/manifests/{digest}",
            "application/vnd.oci.image.manifest.v1+json,"
            "application/vnd.docker.distribution.manifest.v2+json",
        )
    )
    config_bytes = fetch(f"/v2/{image}/blobs/{manifest['config']['digest']}", "*/*")
    layers = [fetch(f"/v2/{image}/blobs/{l['digest']}", "*/*") for l in manifest["layers"]]

    import gzip as _gzip

    layer_tars = [_gzip.decompress(b) if b[:2] == b"\x1f\x8b" else b for b in layers]
    cfg = json.loads(config_bytes)
    cfg["rootfs"]["diff_ids"] = [sha256(t) for t in layer_tars]
    fat = make_docker_archive(layer_tars, cfg, repo_tag="busybox:smoke")

    archive, _ = _slim_pipeline(fat, ["sh", "echo"], tmp_path, "busybox")
    out = tmp_path / "busybox-slim.tar"
    out.write_bytes(archive)
    _, stack = load_image_archive(out)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    with stack, tarfile.open(fileobj=io.BytesIO(stack.layers[0].data), mode="r:*") as tf:
        tf.extractall(scratch)
    shell = scratch / "bin" / "sh"
    assert shell.exists()
    result = subprocess.run(
        [str(shell), "-c", "echo slim-ok"], capture_output=True, text=True, timeout=30
    )
    assert result.returncode == 0
    assert "slim-ok" in result.stdout
