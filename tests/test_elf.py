"""Static ELF parsing and needed-library closure."""

from __future__ import annotations

import collections
import dataclasses
import posixpath
import random
import struct
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_elf
import reference_retain
from conftest import (
    default_config,
    make_docker_archive,
    make_elf,
    make_layer_tar,
    make_stack,
    random_symlink_rootfs,
    rootfs_from_ground_truth,
)
from staticslim import elf, rootfs as rootfs_mod
from staticslim.ctl import CommandTokenList
from staticslim.elf import LibrarySearch, read_dynamic_info
from staticslim.imageio import (
    KIND_DIRECTORY,
    KIND_HARDLINK,
    KIND_REGULAR,
    KIND_SYMLINK,
    FileRecord,
    FlattenedRootfs,
    flatten_layers,
)
from staticslim.pruner import build_retain_list, match_tokens, slim_image
from staticslim.rootfs import (
    CommandLinkedList,
    build_command_linked_list,
    collect_system_commands,
    expand_command_linked_list,
)
from staticslim.streams import FileBytes


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

    def test_string_past_table_end_and_unterminated_string(self):
        data = bytearray(make_elf(needed=["liba.so", "libbb.so"]))
        # The dynamic entries follow the header and two program headers:
        # NEEDED, NEEDED, STRTAB, STRSZ, NULL over the string table
        # "\0liba.so\0libbb.so\0". Point the first DT_NEEDED past the table's
        # end and cut the table before its last NUL.
        dyn = 64 + 2 * 56
        for index, old, new in ((0, (1, 1), (1, 100)), (3, (10, 18), (10, 17))):
            assert struct.unpack_from("<qQ", data, dyn + 16 * index) == old
            struct.pack_into("<qQ", data, dyn + 16 * index, *new)
        assert read_dynamic_info(bytes(data)).needed == ["", "libbb.so"]

    def test_malformed_treated_as_non_elf(self, caplog):
        data = make_elf(needed=["libx.so"])
        truncated = data[:70]
        with caplog.at_level("WARNING"):
            assert read_dynamic_info(truncated, origin="trunc") is None
        assert any("malformed ELF" in r.message for r in caplog.records)


class _CountedReads:
    """An object read as a sized range that records the size of each read."""

    def __init__(self, data: bytes):
        self.data = data
        self.reads: list[int] = []

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, span: slice) -> bytes:
        piece = self.data[span]
        self.reads.append(len(piece))
        return piece


class TestReadByRange:
    FACTS = dict(needed=["liba.so.1", "libb.so.2"], interp="/lib/ld-test.so.1", runpath="/srv/lib")

    def test_object_inside_the_head_window_is_read_once(self):
        data = make_elf(**self.FACTS, filler=b"x" * 1000)
        counted = _CountedReads(data)
        assert read_dynamic_info(counted) == read_dynamic_info(data)
        assert counted.reads == [len(data)]

    def test_large_object_is_read_as_its_head_window(self):
        data = make_elf(**self.FACTS, filler=b"x" * (4 << 20))
        counted = _CountedReads(data)
        assert read_dynamic_info(counted).needed == ["liba.so.1", "libb.so.2"]
        assert counted.reads == [elf.HEAD_WINDOW]

    def test_headers_past_the_head_window_are_read_by_range(self):
        """Program headers, interpreter, dynamic section and string table
        far into a large object: each is read on its own, the object never
        whole."""
        data = make_elf(**self.FACTS, gap=2 * elf.HEAD_WINDOW, filler=b"x" * (4 << 20))
        counted = _CountedReads(data)
        info = read_dynamic_info(counted)
        assert (info.interpreter, info.needed, info.runpath) == (
            "/lib/ld-test.so.1", ["liba.so.1", "libb.so.2"], ["/srv/lib"])
        assert len(counted.reads) == 5
        assert sum(counted.reads) < elf.HEAD_WINDOW + 1024


_NAMES = st.text("abcl./$-_", min_size=1, max_size=12)


@st.composite
def _elf_objects(draw) -> bytes:
    """ELF objects, valid or damaged: a few bytes of the ELF header or of
    the tables at the end overwritten, or the object cut short. Some have
    their headers straddling or past ``HEAD_WINDOW``."""
    data = bytearray(draw(st.builds(
        make_elf, needed=st.lists(_NAMES, max_size=3), interp=st.none() | _NAMES,
        rpath=st.none() | _NAMES, runpath=st.none() | _NAMES, elf_class=st.sampled_from([32, 64]),
        little_endian=st.booleans(), dynamic=st.booleans(), filler=st.binary(max_size=64),
        gap=st.sampled_from([0, elf.HEAD_WINDOW - 300, elf.HEAD_WINDOW - 120, elf.HEAD_WINDOW]))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, 63) | st.integers(max(0, len(data) - 400), len(data) - 1))
        data[at] = draw(st.integers(0, 255))
    cut = draw(st.none() | st.integers(0, len(data)))
    return bytes(data[:cut])


# One byte of e_phoff set so that it reads 2**63 + 64, past any offset
# ``struct.unpack_from`` can take: malformed, so every parse gives None.
_PHOFF_PAST_ANY_INDEX = make_elf()[:39] + b"\x80" + make_elf()[40:]


@settings(max_examples=150, deadline=None)
@given(data=_elf_objects(), pad=st.integers(0, 700))
@example(data=_PHOFF_PAST_ANY_INDEX, pad=0)
def test_file_range_parses_as_bytes(data, pad):
    """A ``FileBytes`` view of an object, in a file with other bytes
    around it, parses to what its bytes parse to, and both to what the
    parse of the object held whole gives."""
    with tempfile.TemporaryFile() as file:
        file.write(b"\x7f" * pad + data + b"\xff" * 9)
        file.flush()
        view = FileBytes(file).view(pad, len(data))
        assert read_dynamic_info(view) == read_dynamic_info(data) == reference_elf.parse_whole(data)


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


def _slim(tmp_path, members, tokens):
    layer = make_layer_tar(members)
    src = tmp_path / "image.tar"
    src.write_bytes(make_docker_archive([layer], default_config([layer])))
    ctl = CommandTokenList()
    for token in tokens:
        ctl.add(token, "exec-argument", "test")
    return slim_image(src, ctl, tmp_path / "slim.tar")


def walk_closure(root: str, rootfs: FlattenedRootfs, search: LibrarySearch | None = None):
    """The one-root loader walk as a closure: every entry its edges cross,
    each unresolved name once in the order met, and the root's interpreter."""
    closure = reference_elf.Closure()
    for _requester, name, hops, terminal, is_interpreter in (search or LibrarySearch(rootfs)).edges([root]):
        closure.paths.update(hops)
        if is_interpreter:
            closure.interpreter = name
        if terminal is None and name not in closure.missing:
            closure.missing.append(name)
    return closure


class TestParseOnce:
    def test_slim_parses_each_object_once(self, tmp_path, monkeypatch):
        interp = "/lib/ld-test.so"
        libs = {
            "libc.so.6": make_elf(filler=b"libc"),
            "libm.so.6": make_elf(needed=["libc.so.6"]),
            "ld-test.so": make_elf(filler=b"ld"),
        }
        apps = [
            {"path": f"/usr/bin/app{i}", "mode": 0o755,
             "data": make_elf(needed=["libm.so.6", "libc.so.6"], interp=interp, filler=b"app%d" % i)}
            for i in range(3)
        ]
        parsed = collections.Counter()
        real = elf.read_dynamic_info

        def counting(data, origin=""):
            parsed[data[:]] += 1
            return real(data, origin)

        monkeypatch.setattr(elf, "read_dynamic_info", counting)
        result = _slim(tmp_path, _lib_members(libs, extra=apps), ["app0", "app1", "app2"])
        assert "/usr/lib/libm.so.6" in result.retain.paths
        assert set(parsed) == {*libs.values(), *(a["data"] for a in apps)}
        assert max(parsed.values()) == 1

    def test_malformed_library_of_two_closures_warned_once(self, tmp_path, caplog):
        libs = {"libbad.so.1": make_elf(needed=["libx.so"])[:70]}
        apps = [
            {"path": f"/usr/bin/app{i}", "mode": 0o755,
             "data": make_elf(needed=["libbad.so.1"], filler=b"app%d" % i)}
            for i in range(2)
        ]
        with caplog.at_level("WARNING"):
            result = _slim(tmp_path, _lib_members(libs, extra=apps), ["app0", "app1"])
        assert "/usr/lib/libbad.so.1" in result.retain.paths
        assert sum("malformed ELF" in r.message for r in caplog.records) == 1


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
        closure = walk_closure("/usr/bin/app", rootfs)
        assert closure.paths == set()
        assert closure.missing == []

    def test_non_elf_empty(self):
        members = _lib_members({}, extra=[
            {"path": "/usr/bin/script", "data": b"#!/bin/sh\n", "mode": 0o755},
        ])
        closure = walk_closure("/usr/bin/script", _rootfs(members))
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
        closure = walk_closure("/usr/bin/app", _rootfs(members))
        # Both libraries are found as /lib/<name>, through the /lib link.
        assert closure.paths == {"/lib", "/usr/lib/libb.so", "/usr/lib/libc.so", interp}
        assert closure.interpreter == interp
        assert closure.missing == []

    def test_missing_library_reported_not_fatal(self):
        app = make_elf(needed=["libgone.so"])
        members = _lib_members({}, extra=[
            {"path": "/usr/bin/app", "data": app, "mode": 0o755},
        ])
        closure = walk_closure("/usr/bin/app", _rootfs(members))
        assert closure.paths == set()
        assert closure.missing == ["libgone.so"]

    def test_symlinked_library_keeps_link_and_target(self):
        libs = {"libreal-1.2.so": make_elf()}
        members = _lib_members(libs, extra=[
            {"path": "/usr/lib/libreal.so.1", "kind": "symlink", "target": "libreal-1.2.so"},
            {"path": "/usr/bin/app", "data": make_elf(needed=["libreal.so.1"]), "mode": 0o755},
        ])
        closure = walk_closure("/usr/bin/app", _rootfs(members))
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
        closure = walk_closure("/opt/app/run", _rootfs(members))
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
        closure = walk_closure("/usr/bin/app", _rootfs(members))
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
        closure = walk_closure("/usr/bin/app", _rootfs(members))
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
        closure = walk_closure("/usr/bin/app", _rootfs(members))
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
        closure = walk_closure("/usr/bin/app", _rootfs(members))
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
        closure = walk_closure("/usr/bin/app", _rootfs(members))
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
        closure = walk_closure(root, rootfs)
        assert closure.paths == expected, f"seed={seed} root={root}"
        assert set(closure.missing) == missing, f"seed={seed} root={root}"


_LIB_NAMES = ["liba.so", "libb.so", "libc.so", "libd.so"]
# Bare names, names the loader opens as spelled (absolute and relative), a
# name found nowhere, and the names a directory probe walks whole.
_NEEDED = _LIB_NAMES + ["libgone.so", "/usr/lib/liba.so", "/opt/libs/libb.so", "lib/libc.so", "", ".", ".."]
_RUNPATHS = [None, None, "$ORIGIN", "${ORIGIN}/lib", "$ORIGIN/../libs", "/opt/libs", "/srv/real:$ORIGIN/lib"]
_INTERP = "/lib/ld.so"


def random_loader_rootfs(rng: random.Random) -> tuple[FlattenedRootfs, list[str]]:
    """A rootfs that exercises every rule of the library search, plus root spellings.

    Merged-usr links (``/lib``, ``/bin``); ``/lib64`` as a two-link loop,
    a merged link or absent; ``/etc/ld.so.conf`` listing ``/`` and the
    symlinked ``/opt/libs``; each library placed in one to three directories
    as an ELF object, a directory, a dangling symlink or a symlink into
    another directory, so earlier directories shadow later ones (or do not);
    ``$ORIGIN`` rpaths and runpaths.
    """
    entries: dict[str, FileRecord] = {}

    def directory(path):
        entries[path] = FileRecord(path=path, kind=KIND_DIRECTORY, mode=0o755)

    def link(path, target):
        entries[path] = FileRecord(path=path, kind=KIND_SYMLINK, mode=0o777, link_target=target)

    def elf_object(path, **kwargs):
        entries[path] = FileRecord(path=path, kind=KIND_REGULAR, mode=0o755,
                                   data=make_elf(filler=path.encode(), **kwargs))

    def random_elf(path, interp=None):
        elf_object(path, needed=rng.sample(_NEEDED, k=rng.randrange(0, 4)), interp=interp,
                   rpath=rng.choice(_RUNPATHS), runpath=rng.choice(_RUNPATHS))

    for d in ("/usr", "/usr/lib", "/usr/bin", "/usr/lib/x86_64-linux-gnu", "/opt", "/opt/app",
              "/opt/app/lib", "/srv", "/srv/real", "/etc"):
        directory(d)
    link("/lib", "usr/lib")
    link("/bin", "usr/bin")
    link("/opt/libs", "/srv/real")
    # Physical directories; the search reaches most of them through links.
    homes = ["/", "/srv/real", "/usr/lib", "/usr/lib/x86_64-linux-gnu", "/opt/app", "/opt/app/lib"]
    lib64 = rng.choice(["loop", "merged", "absent"])
    if lib64 == "loop":
        link("/lib64", "usr/lib64")
        link("/usr/lib64", "/lib64")
    elif lib64 == "merged":
        link("/lib64", "usr/lib64")
        directory("/usr/lib64")
        homes.append("/usr/lib64")
    conf = [d for d in ("/", "/opt/libs", "/lib64", "/srv/real") if rng.random() < 0.7]
    rng.shuffle(conf)
    entries["/etc/ld.so.conf"] = FileRecord(path="/etc/ld.so.conf", kind=KIND_REGULAR, mode=0o644,
                                            data=("# loader\n" + "".join(d + "\n" for d in conf)).encode())

    for name in _LIB_NAMES:
        for home in rng.sample(homes, k=rng.randrange(1, 4)):
            path = home.rstrip("/") + "/" + name
            shape = rng.choice(["elf", "elf", "elf", "directory", "dangling", "link"])
            if shape == "elf":
                random_elf(path)
            elif shape == "directory":
                directory(path)
            elif shape == "dangling":
                link(path, "/nowhere/" + name)
            else:
                link(path, rng.choice(["/usr/lib/", "../lib/", "/opt/libs/"]) + name)
    interp_shape = rng.choice(["elf", "dynamic", "dangling", "absent"])
    if interp_shape == "elf":
        elf_object("/usr/lib/ld.so")
    elif interp_shape == "dynamic":
        random_elf("/usr/lib/ld.so")
    elif interp_shape == "dangling":
        link("/usr/lib/ld.so", "ld-2.so")

    for i in range(3):
        random_elf(f"/usr/bin/app{i}", interp=_INTERP if rng.random() < 0.7 else None)
    random_elf("/opt/app/run", interp=_INTERP)
    roots = ["/usr/bin/app0", "/bin/app1", "/usr/bin/app2", "/opt/app/run", "/bin/app0", "/lib/liba.so",
             "/usr/lib/libb.so", "/opt/libs/libc.so", "/opt/app/libd.so"]
    return FlattenedRootfs(entries=entries), roots


def _carries_own_dirs(rootfs: FlattenedRootfs) -> bool:
    """Whether any ELF object of ``rootfs`` has a DT_RPATH or DT_RUNPATH."""
    infos = (read_dynamic_info(rec.data) for rec in rootfs.entries.values() if rec.kind == KIND_REGULAR)
    return any(info is not None and (info.rpath or info.runpath) for info in infos)


def _without_own_dirs(rootfs: FlattenedRootfs) -> FlattenedRootfs:
    """``rootfs`` with every dynamic object rebuilt without rpath or runpath."""
    entries = dict(rootfs.entries)
    for path, rec in rootfs.entries.items():
        info = read_dynamic_info(rec.data) if rec.kind == KIND_REGULAR else None
        if info is not None and info.is_dynamic:
            entries[path] = dataclasses.replace(rec, data=make_elf(
                needed=info.needed, interp=info.interpreter, filler=path.encode()))
    return FlattenedRootfs(entries=entries)


def assert_retain_matches_reference(start_nodes, cll, rootfs, entry_paths):
    """The retain graph keeps what the five-pass reference keeps, and more
    only where an object resolves a needed name through its own rpath or
    runpath: the reference resolves each name once per closure, through the
    first object that needs it."""
    want = reference_retain.build_retain_list(start_nodes, cll, rootfs, entry_paths)
    got = build_retain_list(start_nodes, cll, rootfs, entry_paths=entry_paths)
    assert got.paths >= want.paths
    assert set(got.missing_libraries) >= set(want.missing_libraries)
    assert set(got.missing_interpreters) >= set(want.missing_interpreters)
    if not _carries_own_dirs(rootfs):
        assert got.paths == want.paths
        assert got.missing_libraries == want.missing_libraries
        assert got.missing_interpreters == want.missing_interpreters


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_library_search_matches_reference_closure(rng):
    rootfs, roots = random_loader_rootfs(rng)
    # One search for every root, as in a retain pass: what earlier walks put
    # in the memo must not change a later walk.
    search = LibrarySearch(rootfs)
    for root in roots:
        want = reference_elf.object_closure(root, rootfs)
        got = walk_closure(root, rootfs, search=search)
        assert (got.paths, got.missing, got.interpreter) == (want.paths, want.missing, want.interpreter), root

    assert_retain_matches_reference([], CommandLinkedList(), rootfs, roots)


@pytest.mark.parametrize("links", [63, 64])
def test_library_chain_shares_one_hop_budget(links):
    """The 64-hop budget spans a library's whole symlink chain, not each
    link of it: 63 links of one hop each reach the library, 64 do not, and
    the reference chain agrees on the entries crossed."""
    entries = {"/lib": FileRecord(path="/lib", kind=KIND_DIRECTORY, mode=0o755)}
    for i in range(links):
        entries[f"/lib/libz.so.{i}"] = FileRecord(path=f"/lib/libz.so.{i}", kind=KIND_SYMLINK, mode=0o777,
                                                  link_target=f"libz.so.{i + 1}")
    library = make_elf()
    last = f"/lib/libz.so.{links}"
    entries[last] = FileRecord(path=last, kind=KIND_REGULAR, mode=0o755, size=len(library), data=library)
    rootfs = FlattenedRootfs(entries=entries)
    hops, terminal = LibrarySearch(rootfs).chain("/lib/libz.so.0")
    assert terminal == (last if links < 64 else None)
    assert (list(hops), terminal) == reference_elf._chain_entries(rootfs, "/lib/libz.so.0")


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_retain_graph_keeps_reference_set(rng, own_dirs):
    """Library roots plus random command chains that end in dynamic objects,
    and commands hardlinked to files of the library tree, matched by a random CTL."""
    loader, roots = random_loader_rootfs(rng)
    forest = rootfs_from_ground_truth(random_symlink_rootfs(rng)[0])
    entries = {p: r for p, r in forest.entries.items()
               if posixpath.dirname(p) not in loader.symlink_table}
    for path, rec in entries.items():
        if rec.kind == KIND_REGULAR and path.startswith(("/usr/bin/", "/usr/sbin/", "/bin/", "/sbin/")):
            entries[path] = dataclasses.replace(rec, data=make_elf(
                needed=rng.sample(_NEEDED, k=rng.randrange(0, 4)),
                interp=_INTERP if rng.random() < 0.7 else None,
                rpath=rng.choice(_RUNPATHS), runpath=rng.choice(_RUNPATHS)))
    loader_files = sorted(p for p, r in loader.entries.items() if r.kind == KIND_REGULAR)
    for i in range(rng.randrange(0, 3)):
        entries[f"/usr/bin/hard{i}"] = FileRecord(path=f"/usr/bin/hard{i}", kind=KIND_HARDLINK, mode=0o755,
                                                  link_target=rng.choice(loader_files))
    rootfs = FlattenedRootfs(entries={**entries, **loader.entries})
    if not own_dirs:
        rootfs = _without_own_dirs(rootfs)

    cll = build_command_linked_list(collect_system_commands(rootfs), rootfs)
    expand_command_linked_list(cll, rootfs)
    ctl = CommandTokenList()
    for token in rng.sample(sorted(cll.nodes), k=rng.randrange(0, min(len(cll.nodes), 6) + 1)) + ["ghost"]:
        ctl.add(token, "exec-argument", "test")
    start_nodes = match_tokens(ctl, cll).start_nodes
    entry_paths = rng.sample(roots, k=rng.randrange(0, 4))
    assert_retain_matches_reference(start_nodes, cll, rootfs, entry_paths)


def _shared_chain_image(n_roots: int, dynamic: bool) -> FlattenedRootfs:
    """``n_roots`` binaries that all need libone -> libtwo -> libthree, or none of it."""
    libs = {
        "libone.so.1": make_elf(needed=["libtwo.so.1"]),
        "libtwo.so.1": make_elf(needed=["libthree.so.1"]),
        "libthree.so.1": make_elf(filler=b"three"),
        "ld-test.so": make_elf(filler=b"ld"),
    }
    apps = [
        {"path": f"/usr/bin/app{i}", "mode": 0o755,
         "data": make_elf(needed=["libone.so.1"], interp="/lib/ld-test.so", filler=b"app%d" % i)
         if dynamic else make_elf(dynamic=False, filler=b"app%d" % i)}
        for i in range(n_roots)
    ]
    return _rootfs(_lib_members(libs, extra=apps))


class TestLookupsPerRetain:
    def test_library_probes_do_not_grow_with_roots(self, monkeypatch):
        # Every lookup_record/resolve_entry goes through rootfs._resolve. A
        # static root costs only its own chain, so whatever the dynamic
        # roots cost beyond that is the library search: paid once per
        # retain pass, not once per root.
        probes = []
        real = rootfs_mod._resolve

        def counting(*args):
            probes.append(args[1])
            return real(*args)

        monkeypatch.setattr(rootfs_mod, "_resolve", counting)
        finds = []
        real_find = LibrarySearch.find

        def counting_find(self, name, own_dirs):
            finds.append(name)
            return real_find(self, name, own_dirs)

        monkeypatch.setattr(LibrarySearch, "find", counting_find)

        def count(n_roots, dynamic):
            rootfs = _shared_chain_image(n_roots, dynamic)
            probes.clear()
            finds.clear()
            retain = build_retain_list([], CommandLinkedList(), rootfs,
                                       entry_paths=[f"/usr/bin/app{i}" for i in range(n_roots)])
            assert retain.missing_libraries == []
            return len(probes), len(finds)

        extra = []
        for n in (1, 3, 6):
            (dynamic_probes, dynamic_finds), (static_probes, static_finds) = count(n, True), count(n, False)
            extra.append(dynamic_probes - static_probes)
            # One find per distinct (object, name) edge: each root's libone,
            # then libone's libtwo and libtwo's libthree once for all roots.
            assert (dynamic_finds, static_finds) == (n + 2, 0)
        assert extra[0] > 0
        assert extra == [extra[0]] * 3
