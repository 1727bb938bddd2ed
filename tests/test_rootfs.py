"""Rootfs scanning and command linked list construction/expansion."""

from __future__ import annotations

import random

import pytest

from conftest import (
    make_layer_tar,
    make_stack,
    oracle_alias_closure,
    oracle_command_start,
    oracle_walk,
    random_symlink_rootfs,
    rootfs_from_ground_truth,
    shell_chain_members,
)
from staticslim.errors import UnknownNodeError
from staticslim.imageio import flatten_layers
from staticslim.rootfs import (
    DEFAULT_SEARCH_DIRS,
    build_command_linked_list,
    collect_system_commands,
    expand_command_linked_list,
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
        entries, _ = random_symlink_rootfs(rng)
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

    def test_unresolvable_command_skipped(self, shell_rootfs):
        cll = build_command_linked_list(["sh", "ghost"], shell_rootfs)
        assert "ghost" not in cll.nodes
        assert cll.skipped_commands == ["ghost"]

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
    entries, _ = random_symlink_rootfs(rng)
    rootfs = rootfs_from_ground_truth(entries)
    commands = collect_system_commands(rootfs)
    cll = build_command_linked_list(commands, rootfs)

    for cmd in commands:
        start = oracle_command_start(entries, cmd, DEFAULT_SEARCH_DIRS)
        if start is None:
            assert cmd in cll.skipped_commands
            continue
        expected = oracle_walk(entries, start)
        assert resolve_chain(cll, cmd) == expected, f"seed={seed} cmd={cmd}"

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


def test_determinism_same_info_same_dump():
    rng = random.Random(424242)
    entries, _ = random_symlink_rootfs(rng)
    dumps = []
    for _ in range(2):
        rootfs = rootfs_from_ground_truth(entries)
        commands = collect_system_commands(rootfs)
        cll = build_command_linked_list(commands, rootfs)
        expand_command_linked_list(cll, rootfs)
        dumps.append(cll.dump())
    assert dumps[0] == dumps[1]
