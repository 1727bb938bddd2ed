"""Static ELF parsing and needed-library closure."""

from __future__ import annotations

import random

import pytest

from conftest import make_elf, make_layer_tar, make_stack
from staticslim.elf import read_dynamic_info, resolve_elf_dependencies
from staticslim.imageio import flatten_layers


class TestReadDynamicInfo:
    @pytest.mark.parametrize(
        "elf_class,little_endian", [(64, True), (32, True), (64, False), (32, False)]
    )
    def test_round_trip(self, elf_class, little_endian):
        data = make_elf(
            needed=["liba.so.1", "libb.so.2"],
            interp="/lib/ld-test.so.1",
            rpath="/opt/lib",
            runpath="/srv/lib:/srv/lib2",
            elf_class=elf_class,
            little_endian=little_endian,
        )
        info = read_dynamic_info(data)
        assert info is not None
        assert info.elf_class == elf_class
        assert info.needed == ["liba.so.1", "libb.so.2"]
        assert info.interpreter == "/lib/ld-test.so.1"
        assert info.rpath == ["/opt/lib"]
        assert info.runpath == ["/srv/lib", "/srv/lib2"]
        assert info.is_dynamic

    def test_non_elf_is_none(self):
        assert read_dynamic_info(b"#!/bin/sh\necho hi\n") is None
        assert read_dynamic_info(b"") is None

    def test_static_object(self):
        info = read_dynamic_info(make_elf(dynamic=False))
        assert info is not None
        assert not info.is_dynamic
        assert info.needed == []

    def test_malformed_treated_as_non_elf(self, caplog):
        data = make_elf(needed=["libx.so"])
        truncated = data[:70]
        with caplog.at_level("WARNING"):
            assert read_dynamic_info(truncated, origin="trunc") is None
        assert any("malformed ELF" in r.message for r in caplog.records)


def _lib_members(libs: dict[str, bytes], extra=()):
    """Rootfs skeleton hosting the given name -> bytes libraries in /usr/lib."""
    members = [
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/lib", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
        {"path": "/lib", "kind": "symlink", "target": "usr/lib"},
    ]
    for name, data in libs.items():
        members.append({"path": f"/usr/lib/{name}", "data": data, "mode": 0o755})
    members.extend(extra)
    return members


def _rootfs(members):
    return flatten_layers(make_stack([make_layer_tar(members)]))


def oracle_bfs_closure(graph: dict[str, list[str]], placements: dict[str, list[str]],
                       root: str, interp: str | None):
    """Breadth-first closure over the declared dependency graph.

    graph maps an object key to its declared needed names; placements maps a
    needed name to the entry paths its resolution touches ([] when missing).
    """
    expected: set[str] = set()
    missing: set[str] = set()
    queue = [root]
    seen = {root}
    if interp:
        expected.update(placements.get(interp, []))
        terminal = placements.get(interp, [None])[-1]
        if terminal and terminal in graph and terminal not in seen:
            seen.add(terminal)
            queue.append(terminal)
    while queue:
        obj = queue.pop(0)
        for name in graph.get(obj, []):
            paths = placements.get(name)
            if not paths:
                missing.add(name)
                continue
            expected.update(paths)
            terminal = paths[-1]
            if terminal in graph and terminal not in seen:
                seen.add(terminal)
                queue.append(terminal)
    return expected, missing


class TestClosure:
    def test_static_binary_empty(self):
        members = _lib_members({}, extra=[
            {"path": "/usr/bin/app", "data": make_elf(dynamic=False), "mode": 0o755},
        ])
        rootfs = _rootfs(members)
        closure = resolve_elf_dependencies("/usr/bin/app", rootfs)
        assert closure.paths == set()
        assert closure.missing == []

    def test_non_elf_empty(self):
        members = _lib_members({}, extra=[
            {"path": "/usr/bin/script", "data": b"#!/bin/sh\n", "mode": 0o755},
        ])
        closure = resolve_elf_dependencies("/usr/bin/script", _rootfs(members))
        assert closure.paths == set()

    def test_chain_a_b_c_with_interpreter(self):
        interp = "/usr/lib/ld-test.so"
        libs = {
            "libc.so": make_elf(),
            "libb.so": make_elf(needed=["libc.so"]),
            "ld-test.so": make_elf(),
        }
        app = make_elf(needed=["libb.so"], interp=interp)
        members = _lib_members(libs, extra=[
            {"path": "/usr/bin/app", "data": app, "mode": 0o755},
        ])
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        # Both libraries are found as /lib/<name>, through the /lib link.
        assert closure.paths == {"/lib", "/usr/lib/libb.so", "/usr/lib/libc.so", interp}
        assert closure.interpreter == interp
        assert closure.missing == []

    def test_missing_library_reported_not_fatal(self):
        app = make_elf(needed=["libgone.so"])
        members = _lib_members({}, extra=[
            {"path": "/usr/bin/app", "data": app, "mode": 0o755},
        ])
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        assert closure.paths == set()
        assert closure.missing == ["libgone.so"]

    def test_symlinked_library_keeps_link_and_target(self):
        libs = {"libreal-1.2.so": make_elf()}
        members = _lib_members(libs, extra=[
            {"path": "/usr/lib/libreal.so.1", "kind": "symlink", "target": "libreal-1.2.so"},
            {"path": "/usr/bin/app", "data": make_elf(needed=["libreal.so.1"]), "mode": 0o755},
        ])
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        # Found as /lib/libreal.so.1, through the /lib link.
        assert closure.paths == {"/lib", "/usr/lib/libreal.so.1", "/usr/lib/libreal-1.2.so"}

    def test_rpath_origin_precedes_defaults(self):
        # Same soname exists next to the binary (via $ORIGIN) and in /usr/lib;
        # the rpath copy must win.
        origin_lib = make_elf()
        default_lib = make_elf(needed=["libmarker.so"])
        members = _lib_members({"libpick.so": default_lib}, extra=[
            {"path": "/opt", "kind": "directory"},
            {"path": "/opt/app", "kind": "directory"},
            {"path": "/opt/app/libpick.so", "data": origin_lib, "mode": 0o755},
            {
                "path": "/opt/app/run",
                "data": make_elf(needed=["libpick.so"], rpath="$ORIGIN"),
                "mode": 0o755,
            },
        ])
        closure = resolve_elf_dependencies("/opt/app/run", _rootfs(members))
        assert closure.paths == {"/opt/app/libpick.so"}
        assert "libmarker.so" not in closure.missing

    def test_runpath_searched(self):
        members = _lib_members({}, extra=[
            {"path": "/srv", "kind": "directory"},
            {"path": "/srv/libs", "kind": "directory"},
            {"path": "/srv/libs/libweb.so", "data": make_elf(), "mode": 0o755},
            {
                "path": "/usr/bin/app",
                "data": make_elf(needed=["libweb.so"], runpath="/srv/libs"),
                "mode": 0o755,
            },
        ])
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        assert closure.paths == {"/srv/libs/libweb.so"}

    def test_ld_so_conf_directories(self):
        members = _lib_members({}, extra=[
            {"path": "/etc", "kind": "directory"},
            {"path": "/etc/ld.so.conf", "data": b"# comment\n/opt/vendor/lib\n"},
            {"path": "/opt", "kind": "directory"},
            {"path": "/opt/vendor", "kind": "directory"},
            {"path": "/opt/vendor/lib", "kind": "directory"},
            {"path": "/opt/vendor/lib/libv.so", "data": make_elf(), "mode": 0o755},
            {"path": "/usr/bin/app", "data": make_elf(needed=["libv.so"]), "mode": 0o755},
        ])
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        assert closure.paths == {"/opt/vendor/lib/libv.so"}

    def test_arch_triplet_subdir(self):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/lib", "kind": "directory"},
            {"path": "/usr/lib/x86_64-linux-gnu", "kind": "directory"},
            {"path": "/usr/lib/x86_64-linux-gnu/libt.so", "data": make_elf(), "mode": 0o755},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/app", "data": make_elf(needed=["libt.so"]), "mode": 0o755},
        ]
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        assert closure.paths == {"/usr/lib/x86_64-linux-gnu/libt.so"}

    def test_directory_symlink_on_runpath_kept(self):
        # The loader reaches libfoo.so through the /usr/lib/app link, so the
        # closure must hold that link as well as the library it leads to.
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/lib", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/opt", "kind": "directory"},
            {"path": "/opt/applib", "kind": "directory"},
            {"path": "/opt/applib/libfoo.so", "data": make_elf(), "mode": 0o755},
            {"path": "/usr/lib/app", "kind": "symlink", "target": "/opt/applib"},
            {
                "path": "/usr/bin/app",
                "data": make_elf(needed=["libfoo.so"], runpath="/usr/lib/app"),
                "mode": 0o755,
            },
        ]
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        assert closure.paths == {"/usr/lib/app", "/opt/applib/libfoo.so"}
        assert closure.missing == []

    def test_needed_with_slash_resolved_directly(self):
        members = _lib_members({"libabs.so": make_elf()}, extra=[
            {
                "path": "/usr/bin/app",
                "data": make_elf(needed=["/usr/lib/libabs.so"]),
                "mode": 0o755,
            },
        ])
        closure = resolve_elf_dependencies("/usr/bin/app", _rootfs(members))
        assert closure.paths == {"/usr/lib/libabs.so"}


def build_random_elf_forest(rng: random.Random):
    """A rootfs of >= 10 dynamic objects with chain and diamond shapes.

    Returns (rootfs, graph, placements, roots) where graph/placements are the
    declared ground truth for the breadth-first oracle.
    """
    n_libs = rng.randrange(8, 14)
    lib_names = [f"lib{i}.so" for i in range(n_libs)]
    graph: dict[str, list[str]] = {}
    placements: dict[str, list[str]] = {}
    members = [
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/lib", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
    ]

    for i, name in enumerate(lib_names):
        # A library may only need higher-numbered ones: acyclic by construction,
        # with diamonds arising from shared targets.
        candidates = lib_names[i + 1 :]
        needed = rng.sample(candidates, k=min(len(candidates), rng.randrange(0, 3)))
        if rng.random() < 0.15:
            needed.append(f"libmissing{i}.so")
            placements[f"libmissing{i}.so"] = []
        data = make_elf(needed=needed)
        real = f"/usr/lib/{name}"
        if rng.random() < 0.3:
            real = f"/usr/lib/{name}.real"
            members.append({"path": real, "data": data, "mode": 0o755})
            members.append({"path": f"/usr/lib/{name}", "kind": "symlink", "target": f"{name}.real"})
            placements[name] = [f"/usr/lib/{name}", real]
        else:
            members.append({"path": real, "data": data, "mode": 0o755})
            placements[name] = [real]
        graph[real] = needed

    interp = "/usr/lib/ld-fixture.so" if rng.random() < 0.7 else None
    if interp:
        members.append({"path": interp, "data": make_elf(), "mode": 0o755})
        placements[interp] = [interp]
        graph[interp] = []

    roots = []
    for b in range(2):
        needed = rng.sample(lib_names, k=rng.randrange(1, 4))
        path = f"/usr/bin/app{b}"
        members.append({"path": path, "data": make_elf(needed=needed, interp=interp), "mode": 0o755})
        graph[path] = needed
        roots.append((path, interp))
    return _rootfs(members), graph, placements, roots


@pytest.mark.parametrize("seed", range(6))
def test_random_forest_matches_bfs_oracle(seed):
    rng = random.Random(9000 + seed)
    rootfs, graph, placements, roots = build_random_elf_forest(rng)
    for root, interp in roots:
        expected, missing = oracle_bfs_closure(graph, placements, root, interp)
        closure = resolve_elf_dependencies(root, rootfs)
        assert closure.paths == expected, f"seed={seed} root={root}"
        assert set(closure.missing) == missing, f"seed={seed} root={root}"
