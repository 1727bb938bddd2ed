"""Rootfs scanning and command linked list construction/expansion."""

from __future__ import annotations

import json
import posixpath
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_resolver
from conftest import (
    make_layer_tar,
    make_stack,
    oracle_alias_closure,
    oracle_command_start,
    oracle_one_hop,
    oracle_walk,
    random_symlink_rootfs,
    rootfs_from_ground_truth,
    shell_chain_members,
)
from staticslim.errors import UnknownNodeError
from staticslim.imageio import (
    KIND_DIRECTORY,
    KIND_REGULAR,
    KIND_SYMLINK,
    FileRecord,
    FlattenedRootfs,
    ImageMetadata,
    flatten_layers,
)
from staticslim.rootfs import (
    DEFAULT_SEARCH_DIRS,
    SHELL_BUILTINS,
    build_command_linked_list,
    collect_system_commands,
    command_search_dirs,
    expand_command_linked_list,
    list_directory,
    resolve_chain,
    resolve_entry,
)


class TestScan:
    def test_symlink_table(self, shell_rootfs):
        assert shell_rootfs.symlink_table == {
            "/usr/bin/sh": "/usr/bin/dash",
            "/bin": "/usr/bin",
        }

    def test_every_entry_scanned_once(self, shell_rootfs):
        assert list(shell_rootfs.entries) == sorted(shell_rootfs.entries)

    def test_empty_rootfs(self):
        from staticslim.imageio import FlattenedRootfs

        rootfs = FlattenedRootfs(entries={})
        assert rootfs.entries == {}
        assert rootfs.symlink_table == {}

    def test_randomized_count_matches_generator(self):
        rng = random.Random(7)
        entries, _, _ = random_symlink_rootfs(rng)
        rootfs = rootfs_from_ground_truth(entries)
        assert len(rootfs.entries) == len(entries)
        expected_links = {p for p, g in entries.items() if g["kind"] == "symlink"}
        assert set(rootfs.symlink_table) == expected_links

    def test_500_entry_fixture_count(self):
        rng = random.Random(99)
        entries = {"/srv": {"kind": "directory", "mode": 0o755}}
        while len(entries) < 500:
            i = len(entries)
            if rng.random() < 0.1:
                entries[f"/srv/l{i}"] = {"kind": "symlink", "mode": 0o777, "target": f"f{i - 1}"}
            else:
                entries[f"/srv/f{i}"] = {"kind": "regular", "mode": 0o644, "data": b"z"}
        rootfs = rootfs_from_ground_truth(entries)
        assert len(rootfs.entries) == 500


class TestCollectCommands:
    def test_shell_fixture(self, shell_rootfs):
        commands = collect_system_commands(shell_rootfs)
        assert "sh" in commands
        assert "dash" in commands
        assert "tool" not in commands  # /opt is not a search directory

    def test_executable_only_under_opt(self):
        rootfs = flatten_layers(
            make_stack(
                [
                    make_layer_tar(
                        [
                            {"path": "/opt", "kind": "directory"},
                            {"path": "/opt/x", "data": b"x", "mode": 0o755},
                        ]
                    )
                ]
            )
        )
        assert collect_system_commands(rootfs) == []

    def test_non_executable_excluded(self):
        rootfs = flatten_layers(
            make_stack(
                [
                    make_layer_tar(
                        [
                            {"path": "/usr", "kind": "directory"},
                            {"path": "/usr/bin", "kind": "directory"},
                            {"path": "/usr/bin/readme", "data": b"x", "mode": 0o644},
                            {"path": "/usr/bin/run", "data": b"x", "mode": 0o755},
                        ]
                    )
                ]
            )
        )
        assert collect_system_commands(rootfs) == ["run"]

    def test_symlink_is_a_command_whatever_its_own_mode(self):
        # Linux ignores a symlink's own mode: /usr/bin/sh at 0o644 runs dash.
        rootfs = flatten_layers(
            make_stack(
                [
                    make_layer_tar(
                        [
                            {"path": "/usr", "kind": "directory"},
                            {"path": "/usr/bin", "kind": "directory"},
                            {"path": "/usr/bin/dash", "data": b"x", "mode": 0o755},
                            {"path": "/usr/bin/sh", "kind": "symlink", "target": "dash", "mode": 0o644},
                            {"path": "/usr/bin/sh2", "kind": "symlink", "target": "dash"},
                        ]
                    )
                ]
            )
        )
        assert collect_system_commands(rootfs) == ["dash", "sh", "sh2"]

    def test_symlink_to_a_directory_is_not_a_command(self):
        # A shell's PATH search skips a directory, reached through a link or
        # not (Debian's /usr/bin/X11 -> .); a dangling or looping link counts.
        link = {"kind": "symlink", "mode": 0o777}
        entries = {
            "/usr": {"kind": "directory", "mode": 0o755},
            "/usr/bin": {"kind": "directory", "mode": 0o755},
            "/usr/bin/ls": {"kind": "regular", "mode": 0o755, "data": b"x"},
            "/usr/bin/X11": {**link, "target": "."},
            "/usr/bin/usr": {**link, "target": "/usr"},
            "/usr/bin/up": {**link, "target": "../.."},
            "/usr/bin/sh": {**link, "target": "ls"},
            "/usr/bin/gone": {**link, "target": "/nowhere"},
            "/usr/bin/loop": {**link, "target": "loop"},
        }
        rootfs = rootfs_from_ground_truth(entries)
        search_dirs = ("/usr/bin",)
        commands = collect_system_commands(rootfs, search_dirs)
        assert commands == ["gone", "loop", "ls", "sh"]
        names = [posixpath.basename(p) for p in entries if p.startswith("/usr/bin/")]
        assert sorted(n for n in names if oracle_command_start(entries, n, search_dirs)) == commands
        cll = build_command_linked_list(names, rootfs, search_dirs)
        assert cll.heads == commands

    def test_builtin_names_excluded(self):
        rootfs = flatten_layers(
            make_stack(
                [
                    make_layer_tar(
                        [
                            {"path": "/usr", "kind": "directory"},
                            {"path": "/usr/bin", "kind": "directory"},
                            {"path": "/usr/bin/cd", "data": b"x", "mode": 0o755},
                            {"path": "/usr/bin/ls", "data": b"x", "mode": 0o755},
                        ]
                    )
                ]
            )
        )
        assert collect_system_commands(rootfs) == ["ls"]

    def test_recorded_listing_count(self):
        # The recorded listing is the oracle: N names in, N commands out.
        names = [f"util{i}" for i in range(120)]
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
        ] + [{"path": f"/usr/bin/{n}", "data": b"b", "mode": 0o755} for n in names]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        assert collect_system_commands(rootfs) == sorted(names)


class TestChains:
    def test_sh_chain_through_symlink(self, shell_rootfs):
        cll = build_command_linked_list(["sh", "dash"], shell_rootfs)
        assert resolve_chain(cll, "sh") == ["/usr/bin/sh", "/usr/bin/dash"]

    def test_plain_file_two_node_chain(self, shell_rootfs):
        cll = build_command_linked_list(["perl"], shell_rootfs)
        assert resolve_chain(cll, "perl") == ["/usr/bin/perl"]
        assert cll.nodes["perl"].next is cll.nodes["/usr/bin/perl"]

    def test_chains_share_nodes(self, shell_rootfs):
        cll = build_command_linked_list(["sh", "dash"], shell_rootfs)
        assert cll.nodes["sh"].next.next is cll.nodes["/usr/bin/dash"]
        assert cll.nodes["dash"].next is cll.nodes["/usr/bin/dash"]

    def test_heads_are_sorted_unique_resolvable_commands(self, shell_rootfs):
        commands = ["sh", "perl", "cd", "ghost", "sh", "dash", "exit", "perl"]
        cll = build_command_linked_list(commands, shell_rootfs)
        assert cll.heads == sorted(set(commands) - SHELL_BUILTINS - {"ghost"})
        assert "ghost" not in cll.nodes

    def test_unresolvable_command_skipped(self, shell_rootfs):
        cll = build_command_linked_list(["sh", "ghost"], shell_rootfs)
        assert "ghost" not in cll.nodes
        assert cll.heads == ["sh"]

    def test_dangling_symlink_flagged(self):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/broken", "kind": "symlink", "target": "/nowhere/else"},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["broken"], rootfs)
        assert resolve_chain(cll, "broken") == ["/usr/bin/broken", "/nowhere/else"]
        assert cll.nodes["/nowhere/else"].dangling

    def test_cycle_truncated_and_recorded(self):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/a", "kind": "symlink", "target": "b"},
            {"path": "/usr/bin/b", "kind": "symlink", "target": "a"},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["a"], rootfs)
        assert resolve_chain(cll, "a") == ["/usr/bin/a", "/usr/bin/b"]
        assert cll.cycles

    @pytest.mark.parametrize("alias_dir", [False, True])
    def test_cycle_recorded_once_as_its_paths(self, alias_dir):
        # Both heads, and with /bin -> usr/bin their alias spellings too,
        # run into the one loop.
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/a", "kind": "symlink", "target": "b"},
            {"path": "/usr/bin/b", "kind": "symlink", "target": "a"},
        ]
        if alias_dir:
            members.append({"path": "/bin", "kind": "symlink", "target": "usr/bin"})
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["a", "b"], rootfs)
        assert cll.cycles == [["/usr/bin/a", "/usr/bin/b"]]
        expand_command_linked_list(cll, rootfs)
        assert ("/bin/a" in cll.nodes) == alias_dir
        assert cll.cycles == [["/usr/bin/a", "/usr/bin/b"]]

    def test_loop_among_ancestor_directories_recorded_as_its_links(self):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/x", "kind": "symlink", "target": "/l0/one/y"},
            {"path": "/usr/bin/z", "kind": "symlink", "target": "/l1/y"},
            {"path": "/l0", "kind": "directory"},
            {"path": "/l0/one", "kind": "symlink", "target": "/l1"},
            {"path": "/l1", "kind": "symlink", "target": "/l2"},
            {"path": "/l2", "kind": "symlink", "target": "/l1"},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["x", "z"], rootfs)
        assert cll.nodes["/l0/one/y"].dangling and cll.nodes["/l1/y"].dangling
        assert cll.cycles == [["/l1", "/l2"]]

    def test_unknown_start_raises(self, shell_rootfs):
        cll = build_command_linked_list(["sh"], shell_rootfs)
        with pytest.raises(UnknownNodeError):
            resolve_chain(cll, "nope")

    def test_command_reachable_only_through_symlink_dir(self):
        # /bin is a symlink into a tree outside the search set; lookup falls
        # back to the physical location behind the alias.
        members = [
            {"path": "/opt", "kind": "directory"},
            {"path": "/opt/box", "kind": "directory"},
            {"path": "/opt/box/bin", "kind": "directory"},
            {"path": "/opt/box/bin/tool", "data": b"t", "mode": 0o755},
            {"path": "/bin", "kind": "symlink", "target": "/opt/box/bin"},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        commands = collect_system_commands(rootfs)
        assert commands == ["tool"]
        cll = build_command_linked_list(commands, rootfs)
        assert resolve_chain(cll, "tool") == ["/opt/box/bin/tool"]

    def test_search_dir_behind_a_linked_ancestor(self):
        # /usr/local/bin is a search directory only through /usr/local -> /opt/local.
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/ls", "data": b"l", "mode": 0o755},
            {"path": "/usr/local", "kind": "symlink", "target": "../opt/local"},
            {"path": "/opt", "kind": "directory"},
            {"path": "/opt/local", "kind": "directory"},
            {"path": "/opt/local/bin", "kind": "directory"},
            {"path": "/opt/local/bin/tool", "data": b"t", "mode": 0o755},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        commands = collect_system_commands(rootfs)
        assert commands == ["ls", "tool"]
        cll = build_command_linked_list(commands, rootfs)
        assert cll.heads == ["ls", "tool"]
        assert resolve_chain(cll, "tool") == ["/opt/local/bin/tool"]

    @pytest.mark.parametrize("spelling", ["/usr/bin/", "/usr//bin", "usr/bin", "/usr/bin/.", "/usr/sbin/../bin"])
    def test_search_dir_in_any_spelling(self, shell_rootfs, spelling):
        commands = collect_system_commands(shell_rootfs, (spelling,))
        assert commands == ["dash", "perl", "sh"]
        cll = build_command_linked_list(commands, shell_rootfs, (spelling,))
        assert cll.heads == commands
        assert resolve_chain(cll, "sh") == ["/usr/bin/sh", "/usr/bin/dash"]

    @pytest.mark.parametrize("search_dirs, x", [
        (("/bin", "/usr/bin"), "/opt/box/bin/x"),
        (("/usr/bin", "/bin"), "/usr/bin/x"),
        (("/opt/box/bin", "/usr/bin", "/bin"), "/opt/box/bin/x"),
    ], ids=["link-first", "physical-first", "target-first"])
    def test_first_directory_in_search_order_wins(self, search_dirs, x):
        # x is in both /opt/box/bin (also spelled /bin) and /usr/bin: the
        # directory searched first holds it, however it is spelled; y is
        # executable only behind the link.
        members = [
            {"path": "/bin", "kind": "symlink", "target": "/opt/box/bin"},
            {"path": "/opt", "kind": "directory"},
            {"path": "/opt/box", "kind": "directory"},
            {"path": "/opt/box/bin", "kind": "directory"},
            {"path": "/opt/box/bin/x", "data": b"1", "mode": 0o755},
            {"path": "/opt/box/bin/y", "data": b"2", "mode": 0o755},
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/x", "data": b"3", "mode": 0o755},
            {"path": "/usr/bin/y", "data": b"4", "mode": 0o644},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["x", "y"], rootfs, search_dirs)
        assert resolve_chain(cll, "x") == [x]
        assert resolve_chain(cll, "y") == ["/opt/box/bin/y"]  # /usr/bin/y is not executable

    def test_terminal_node_singleton(self, shell_rootfs):
        cll = build_command_linked_list(["sh"], shell_rootfs)
        assert resolve_chain(cll, "/usr/bin/dash") == ["/usr/bin/dash"]


class TestExpansion:
    def test_bin_sh_alias_chain(self, shell_rootfs):
        cll = build_command_linked_list(["sh", "dash"], shell_rootfs)
        expand_command_linked_list(cll, shell_rootfs)
        assert resolve_chain(cll, "/bin/sh") == ["/bin/sh", "/usr/bin/sh", "/usr/bin/dash"]
        assert cll.nodes["/bin/sh"].next is cll.nodes["/usr/bin/sh"]
        assert resolve_chain(cll, "/bin/dash") == ["/bin/dash", "/usr/bin/dash"]

    def test_no_dir_symlinks_identity(self):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/x", "data": b"x", "mode": 0o755},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["x"], rootfs)
        before = set(cll.nodes)
        expand_command_linked_list(cll, rootfs)
        assert set(cll.nodes) == before

    def test_alias_for_missing_file_not_created(self):
        # /bin -> /usr/bin exists, but /usr/local/bin -> /usr/nosuch dangles.
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/x", "data": b"x", "mode": 0o755},
            {"path": "/bin", "kind": "symlink", "target": "usr/bin"},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["x"], rootfs)
        expand_command_linked_list(cll, rootfs)
        assert "/bin/x" in cll.nodes
        assert "/bin/y" not in cll.nodes

    def test_idempotent(self, shell_rootfs):
        cll = build_command_linked_list(["sh", "dash", "perl"], shell_rootfs)
        expand_command_linked_list(cll, shell_rootfs)
        first_dump = cll.dump()
        expand_command_linked_list(cll, shell_rootfs)
        assert cll.dump() == first_dump

    def test_nested_dir_symlinks_match_alias_oracle(self):
        # Two levels: /bin -> /usr/bin and /usr/bin/vendor -> tools
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/tools", "kind": "directory"},
            {"path": "/usr/bin/tools/run", "data": b"r", "mode": 0o755},
            {"path": "/usr/bin/vendor", "kind": "symlink", "target": "tools"},
            {"path": "/bin", "kind": "symlink", "target": "usr/bin"},
            {"path": "/usr/bin/direct", "data": b"d", "mode": 0o755},
        ]
        entries = {
            "/usr": {"kind": "directory"},
            "/usr/bin": {"kind": "directory"},
            "/usr/bin/tools": {"kind": "directory"},
            "/usr/bin/tools/run": {"kind": "regular"},
            "/usr/bin/vendor": {"kind": "symlink", "target": "tools"},
            "/bin": {"kind": "symlink", "target": "usr/bin"},
            "/usr/bin/direct": {"kind": "regular"},
        }
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        cll = build_command_linked_list(["direct"], rootfs)
        # Seed with a path under the doubly-aliased directory as well.
        cll.add("/usr/bin/tools/run")
        expand_command_linked_list(cll, rootfs)
        path_nodes = {n for n in cll.nodes if n.startswith("/")}
        expected = oracle_alias_closure(entries, {"/usr/bin/direct", "/usr/bin/tools/run"})
        assert path_nodes == expected
        # Both substitution levels materialize.
        assert "/bin/direct" in path_nodes
        assert "/usr/bin/vendor/run" in path_nodes
        assert "/bin/vendor/run" in path_nodes
        assert "/bin/tools/run" in path_nodes


@pytest.mark.parametrize("seed", range(40))
def test_random_forests_match_bruteforce_oracle(seed):
    rng = random.Random(1000 + seed)
    entries, _, search_dirs = random_symlink_rootfs(rng)
    rootfs = rootfs_from_ground_truth(entries)
    commands = collect_system_commands(rootfs, search_dirs)
    cll = build_command_linked_list(commands, rootfs, search_dirs)

    # Every collected command heads a chain that starts where the oracle says,
    # and each loop a chain ends in is recorded once, as the paths on it.
    assert cll.heads == commands, f"seed={seed}"
    loops = set()
    for cmd in commands:
        start = oracle_command_start(entries, cmd, search_dirs)
        assert start is not None, f"seed={seed} cmd={cmd}"
        expected = oracle_walk(entries, start)
        assert resolve_chain(cll, cmd) == expected, f"seed={seed} cmd={cmd}"
        hop = oracle_one_hop(entries, expected[-1])
        if hop in expected:
            loops.add(tuple(sorted(expected[expected.index(hop):])))
    assert sorted(map(tuple, cll.cycles)) == sorted(loops), f"seed={seed}"

    pre_paths = {n for n in cll.nodes if n.startswith("/")}
    expand_command_linked_list(cll, rootfs)
    post_paths = {n for n in cll.nodes if n.startswith("/")}
    assert post_paths == oracle_alias_closure(entries, pre_paths), f"seed={seed}"

    dump = cll.dump()
    expand_command_linked_list(cll, rootfs)
    assert cll.dump() == dump, f"seed={seed}"

    for head in cll.heads:
        assert len(resolve_chain(cll, head)) <= len(cll.nodes)  # termination

    if not cll.cycles:
        # Chain closure: each symlink spelling's one-hop target shows up
        # further down the same chain.
        for name in cll.nodes:
            chain = resolve_chain(cll, name)
            for i, spelling in enumerate(chain):
                # One symlink-resolution step of the spelling, None for no symlink.
                hop = rootfs.symlink_table.get(resolve_entry(rootfs, spelling))
                if hop is not None:
                    assert hop in chain[i + 1 :], f"seed={seed} {spelling} -> {hop}"


@pytest.mark.parametrize("seed", range(40))
def test_subset_is_the_rootfs_of_those_entries(seed):
    """A subset shares its parent's records and symlink targets, yet is the
    rootfs built from those entries alone: the same entries, symlink table,
    size and commands, whichever links and directories it lacks."""
    rng = random.Random(3000 + seed)
    entries, _, search_dirs = random_symlink_rootfs(rng)
    rootfs = rootfs_from_ground_truth(entries)
    collect_system_commands(rootfs, search_dirs)  # fills the parent's directory cache
    paths = {p for p in rootfs.entries if rng.random() < 0.7}
    view = rootfs.subset(paths)
    built = FlattenedRootfs(entries={p: r for p, r in rootfs.entries.items() if p in paths})
    assert list(view.entries) == list(built.entries), f"seed={seed}"
    assert view.symlink_table == built.symlink_table, f"seed={seed}"
    assert view.total_size == sum(r.size for r in built.entries.values() if r.kind == KIND_REGULAR)
    for dirs in (search_dirs, DEFAULT_SEARCH_DIRS):
        assert collect_system_commands(view, dirs) == collect_system_commands(built, dirs), f"seed={seed}"


_RESPELLINGS = (
    lambda d: d,
    lambda d: d + "/",
    lambda d: d.lstrip("/"),
    lambda d: d.replace("/", "//"),
    lambda d: "./" + d,
    lambda d: "/" + d,
    lambda d: d + "/.",
)


def _listing(entries, search_dirs) -> tuple[list[str], str]:
    """The commands of ``search_dirs`` over a fresh rootfs of ``entries``,
    and the dump of their chains: where each one starts and what it walks."""
    rootfs = rootfs_from_ground_truth(entries)
    commands = collect_system_commands(rootfs, search_dirs)
    return commands, build_command_linked_list(commands, rootfs, search_dirs).dump()


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_respelling_a_search_dir_changes_no_listing(rng, data):
    """A search directory spelled another way (a trailing, leading or doubled
    ``/``, relative, ``.``) is the same directory at the same place. The
    spellings respelled may be relative already."""
    entries, _, search_dirs = random_symlink_rootfs(rng)
    respelled = [data.draw(st.sampled_from(_RESPELLINGS), label="respelling")(d) for d in search_dirs]
    assert _listing(entries, respelled) == _listing(entries, search_dirs)


@pytest.mark.parametrize("config, expected", [
    ({}, DEFAULT_SEARCH_DIRS),
    ({"Env": ["LANG=C"], "WorkingDir": "/app"}, DEFAULT_SEARCH_DIRS),
    ({"Env": ["PATH=/usr/local/bin:/usr/bin"]}, ("/usr/local/bin", "/usr/bin")),
    ({"Env": ["PATH=:bin:/usr/bin"]}, ("/", "/bin", "/usr/bin")),
    ({"Env": ["PATH=:bin:/usr/bin:"], "WorkingDir": "/app"}, ("/app/", "/app/bin", "/usr/bin", "/app/")),
    ({"Env": ["PATH="], "WorkingDir": ""}, ("/",)),
    ({"Env": ["PATH=/a", "LANG=C", "PATH=/b"]}, ("/b",)),
])
def test_command_search_dirs_are_the_image_path(config, expected):
    metadata = ImageMetadata(reference="", config={"architecture": "amd64", "os": "linux", "config": config})
    assert command_search_dirs(metadata) == expected
    assert command_search_dirs(metadata, ["/opt/bin", "/bin"]) == ("/opt/bin", "/bin")


def test_the_root_is_a_search_directory():
    members = [
        {"path": "/tool", "data": b"t", "mode": 0o755},
        {"path": "/notes", "data": b"n", "mode": 0o644},
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
        {"path": "/usr/bin/tool", "data": b"u", "mode": 0o755},
    ]
    rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
    assert collect_system_commands(rootfs, ("/",)) == ["tool"]
    cll = build_command_linked_list(["tool"], rootfs, ("/", "/usr/bin"))
    assert resolve_chain(cll, "tool") == ["/tool"]


def test_determinism_same_info_same_dump():
    rng = random.Random(424242)
    entries, _, _ = random_symlink_rootfs(rng)
    dumps = []
    for _ in range(2):
        rootfs = rootfs_from_ground_truth(entries)
        commands = collect_system_commands(rootfs)
        cll = build_command_linked_list(commands, rootfs)
        expand_command_linked_list(cll, rootfs)
        dumps.append(cll.dump())
    assert dumps[0] == dumps[1]


def test_dump_flags_exactly_the_heads(shell_rootfs):
    cll = build_command_linked_list(["sh", "dash", "perl"], shell_rootfs)
    expand_command_linked_list(cll, shell_rootfs)
    rows = [json.loads(line) for line in cll.dump().splitlines()]
    assert [row["node"] for row in rows] == list(cll.nodes)
    flagged = {row["node"] for row in rows if row["head"]}
    assert flagged == set(cll.heads)
    assert len(flagged) < len(rows)  # chain and alias nodes are not heads


# --- the shared directory listing ---------------------------------------------

# "-", "." and " " sort just below "/", so a child's siblings can sort between
# the child and its subtree.
_LISTING_PATH = st.lists(st.sampled_from(["a", "b", "a-b", "a.b", "a b", "a0", "-", "."]),
                         min_size=1, max_size=4).map(lambda c: "/" + "/".join(c))


@settings(max_examples=300, deadline=None)
@given(st.sets(_LISTING_PATH, max_size=40), st.booleans(),
       st.one_of(st.just("/"), _LISTING_PATH, st.just("/empty")))
def test_list_directory_is_the_children_in_path_order(paths, with_root, directory):
    keys = sorted(paths | ({"/"} if with_root else set()))
    got = list(list_directory(keys, directory))
    # Brute force: every key whose parent is the directory; the root is not its own child.
    want = [(posixpath.basename(p), p) for p in keys if p != "/" and posixpath.dirname(p) == directory]
    assert got == want


# --- cached resolver against the per-component walk ---------------------------

_NAMES = ("a", "b", "d", "p", "lib")
_SEGMENTS = st.lists(st.sampled_from(_NAMES + (".", "..", "")), max_size=5)
# Spellings: absolute or relative, with ".", ".." and empty segments (so
# doubled and trailing "/") anywhere.
_SPELLING = st.builds(lambda absolute, segs: "/" * absolute + "/".join(segs), st.booleans(), _SEGMENTS)
_ENTRY_PATH = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3).map(lambda c: "/" + "/".join(c))
_ENTRY = st.tuples(st.sampled_from([KIND_DIRECTORY, KIND_REGULAR, KIND_SYMLINK]), _SPELLING)
# With (n + 1) * (dir_hops + 1) == 65, the parent of the target of the n-th
# file link needs exactly the hops left: dir_hops 4 and 12 reach that edge.
_CHAIN = st.sampled_from([0, 1, 4, 12, 31, 62, 63, 64, 65])


def _link(path: str, target: str) -> FileRecord:
    return FileRecord(path=path, kind=KIND_SYMLINK, mode=0o777, link_target=target)


def _chain_forest(dir_hops: int, file_hops: int) -> dict[str, FileRecord]:
    """Hop chains around the budget of 64.

    ``/p/0`` reaches a file in exactly 63 hops and ``/q/0`` needs 64. Under
    ``/d``, ``/d/0`` reaches a directory in ``dir_hops`` hops; ``f0`` in it
    starts a chain of ``file_hops`` links whose targets are all spelled
    through ``/d/0``, so each hop also pays ``dir_hops`` hops in the parent.
    """
    entries = {}
    for top, hops in (("/p", 63), ("/q", 64)):
        for i in range(hops):
            entries[f"{top}/{i}"] = _link(f"{top}/{i}", str(i + 1) if i % 2 else f"{top}/{i + 1}")
        entries[f"{top}/{hops}"] = FileRecord(path=f"{top}/{hops}", kind=KIND_REGULAR, mode=0o755)
    for i in range(dir_hops):
        entries[f"/d/{i}"] = _link(f"/d/{i}", f"../d/{i + 1}" if i % 2 else f"/d/{i + 1}")
    home = f"/d/{dir_hops}"
    entries[home] = FileRecord(path=home, kind=KIND_DIRECTORY, mode=0o755)
    for j in range(file_hops):
        entries[f"{home}/f{j}"] = _link(f"{home}/f{j}", f"/d/0/f{j + 1}")
    entries[f"{home}/f{file_hops}"] = FileRecord(path=f"{home}/f{file_hops}", kind=KIND_REGULAR, mode=0o755)
    return entries


_CHAIN_QUERIES = [
    "/p/0", "/p/1", "/p/0/x", "/q/0", "/q/1", "/q/0/x", "/q/0/",
    "/d/0", "/d/0/", "/d/0/f0", "/d/0/f1", "/d/0/f0/..", "/d/0/./f0", "/d/1/../0/f0",
]


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(_ENTRY_PATH, _ENTRY, max_size=20),
    _CHAIN,
    _CHAIN,
    st.lists(_SPELLING, max_size=25),
    st.randoms(use_true_random=False),
)
def test_cached_resolver_matches_reference_walk(forest, dir_hops, file_hops, queries, rng):
    entries = _chain_forest(dir_hops, file_hops)
    for path, (kind, target) in forest.items():
        if kind == KIND_SYMLINK:
            entries[path] = _link(path, target)
        else:
            entries[path] = FileRecord(path=path, kind=kind, mode=0o755)
    rootfs = FlattenedRootfs(entries=entries)
    spellings = queries + _CHAIN_QUERIES + [p + tail for p in forest for tail in ("", "/", "/.", "/..", "/x")]
    # Every spelling twice, in shuffled order, on one rootfs: what the cache
    # holds from earlier queries must not change any answer.
    asked = [(s, follow) for s in spellings for follow in (False, True)] * 2
    rng.shuffle(asked)
    for spelling, follow in asked:
        want_trace: list[str] = []
        want = reference_resolver.resolve_entry(rootfs, spelling, follow_last=follow, trace=want_trace)
        got_trace: list[str] = []
        got = resolve_entry(rootfs, spelling, follow_last=follow, trace=got_trace)
        assert (got, got_trace) == (want, want_trace), (spelling, follow)


def test_hop_budget_allows_63_hops():
    rootfs = FlattenedRootfs(entries=_chain_forest(0, 0))
    trace: list[str] = []
    assert resolve_entry(rootfs, "/p/0", follow_last=True, trace=trace) == "/p/63"
    assert len(trace) == 63
    trace.clear()
    assert resolve_entry(rootfs, "/q/0", follow_last=True, trace=trace) is None
    assert trace == [f"/q/{i}" for i in range(63)]
