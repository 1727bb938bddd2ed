"""Token matching, retain-list closure, and slim rootfs emission."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import posixpath
import tarfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_emit
from conftest import (
    default_config,
    make_docker_archive,
    make_elf,
    make_layer_tar,
    make_stack,
    random_symlink_rootfs,
    rootfs_from_ground_truth,
    shell_chain_members,
)
from staticslim import rootfs as rootfs_mod
from staticslim.ctl import CommandToken, CommandTokenList
from staticslim.errors import PruneConsistencyError
from staticslim.imageio import FileRecord, FlattenedRootfs, flatten_layers, load_image_archive
from staticslim.pruner import (
    PruneReport,
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
    resolve_entry,
)


def ctl_of(*tokens):
    ctl = CommandTokenList()
    for i, t in enumerate(tokens):
        ctl.add(t, "exec-argument", f"test:{i}")
    return ctl


def build_pipeline(members, tokens):
    rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
    cll = build_command_linked_list(collect_system_commands(rootfs), rootfs)
    match = match_tokens(ctl_of(*tokens), cll, rootfs)
    retain = build_retain_list(match.start_nodes, cll, rootfs)
    return rootfs, cll, match, retain


def elf_shell_members():
    """The shell-chain fixture with dash as a real dynamic ELF."""
    libc = make_elf()
    loader = make_elf()
    dash = make_elf(needed=["libc.so.6"], interp="/lib/ld-linux.so.2")
    return [
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
        {"path": "/usr/lib", "kind": "directory"},
        {"path": "/usr/lib/libc.so.6", "data": libc, "mode": 0o755},
        {"path": "/usr/lib/ld-linux.so.2", "data": loader, "mode": 0o755},
        {"path": "/lib", "kind": "symlink", "target": "usr/lib"},
        {"path": "/usr/bin/dash", "data": dash, "mode": 0o755},
        {"path": "/usr/bin/sh", "kind": "symlink", "target": "dash"},
        {"path": "/usr/bin/perl", "data": b"plain perl", "mode": 0o755},
        {"path": "/bin", "kind": "symlink", "target": "usr/bin"},
        {"path": "/etc", "kind": "directory"},
        {"path": "/etc/hosts", "data": b"127.0.0.1\n"},
    ]


class TestPruneArea:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/usr/bin/dash", True),
            ("/bin/sh", True),
            ("/usr/sbin/adduser", True),
            ("/usr/lib/libc.so.6", True),
            ("/usr/bin", False),  # the directory itself carries no trailing slash
            ("/etc/hosts", False),
            ("/usr/libexec/helper", False),  # substring semantics, taken literally
            ("/var/library/x", False),
            ("/opt/tool", False),
        ],
    )
    def test_markers(self, path, expected):
        assert in_prune_area(path) is expected


class TestMatchTokens:
    def test_bare_name_matches(self, shell_rootfs):
        cll = build_command_linked_list(collect_system_commands(shell_rootfs), shell_rootfs)
        result = match_tokens(ctl_of("sh"), cll, shell_rootfs)
        assert result.start_nodes == ["sh"]
        assert result.unmatched == []

    def test_flag_token_unmatched(self, shell_rootfs):
        cll = build_command_linked_list(collect_system_commands(shell_rootfs), shell_rootfs)
        result = match_tokens(ctl_of("-la"), cll, shell_rootfs)
        assert result.start_nodes == []
        assert result.unmatched == ["-la"]

    def test_builtin_matched_without_start_node(self, shell_rootfs):
        cll = build_command_linked_list(collect_system_commands(shell_rootfs), shell_rootfs)
        result = match_tokens(ctl_of("cd", "sh"), cll, shell_rootfs)
        assert result.matched["cd"] is None
        assert result.start_nodes == ["sh"]
        assert result.unmatched == []

    def test_both_spellings_union(self, shell_rootfs):
        from staticslim.rootfs import resolve_chain
        cll = build_command_linked_list(collect_system_commands(shell_rootfs), shell_rootfs)
        result = match_tokens(ctl_of("sh", "/bin/sh"), cll, shell_rootfs)
        assert result.start_nodes == ["sh", "/bin/sh"]
        union = set()
        for start in result.start_nodes:
            union.update(resolve_chain(cll, start))
        assert union == {"/bin/sh", "/usr/bin/sh", "/usr/bin/dash"}

    def test_path_token_off_every_chain_starts_its_own(self, shell_rootfs):
        from staticslim.rootfs import resolve_chain
        cll = build_command_linked_list(collect_system_commands(shell_rootfs), shell_rootfs)
        result = match_tokens(ctl_of("/opt/tool", "/bin/sh"), cll, shell_rootfs)
        assert result.matched == {"/opt/tool": "/opt/tool", "/bin/sh": "/bin/sh"}
        assert result.start_nodes == ["/opt/tool", "/bin/sh"]
        # The chain of a spelling is walked from its physical entry, one hop per node.
        assert resolve_chain(cll, "/bin/sh") == ["/bin/sh", "/usr/bin/dash"]

    def test_relative_path_token_is_joined_onto_the_working_dir(self, shell_rootfs):
        cll = build_command_linked_list(collect_system_commands(shell_rootfs), shell_rootfs)
        result = match_tokens(ctl_of("bin/sh", "./tool", "tool"), cll, shell_rootfs, "/opt")
        assert result.matched == {"./tool": "/opt/./tool"}
        assert result.unmatched == ["bin/sh", "tool"]  # no /opt/bin/sh; a bare word is a command name
        result = match_tokens(ctl_of("bin/sh"), cll, shell_rootfs, None)
        assert result.matched == {"bin/sh": "/bin/sh"}

    @pytest.mark.parametrize("token", [
        "/",                  # the root is no entry
        "/usr/bin",           # a directory
        "/usr/bin/",
        "../usr",             # a directory, reached from the working directory
        "/usr/bin/ghost",     # names nothing
        "/gone/sh",           # crosses a dangling directory link
        "/usr/bin/X11",       # a link to a directory, which the search listing skips too
        "/bin/X11/X11",
    ])
    def test_path_token_that_names_no_file_is_unmatched(self, token):
        rootfs = flatten_layers(make_stack([make_layer_tar(shell_chain_members([
            {"path": "/gone", "kind": "symlink", "target": "/nowhere"},
            {"path": "/usr/bin/X11", "kind": "symlink", "target": "."},
        ]))]))
        cll = build_command_linked_list(collect_system_commands(rootfs), rootfs)
        nodes = list(cll.nodes)
        result = match_tokens(ctl_of(token), cll, rootfs, "/etc")
        assert (result.matched, result.start_nodes, result.unmatched) == ({}, [], [token])
        assert list(cll.nodes) == nodes

    def test_dangling_link_token_is_matched(self):
        """A dangling link counts, as in the search listing: the link is
        kept for the container to fail on as it would have."""
        rootfs, cll, match, retain = build_pipeline(shell_chain_members([
            {"path": "/usr/bin/broken", "kind": "symlink", "target": "gone"},
        ]), ["/usr/bin/broken"])
        assert match.matched == {"/usr/bin/broken": "/usr/bin/broken"}
        assert "/usr/bin/broken" in retain.paths

    def test_path_argument_naming_a_file_is_matched_and_kept(self):
        """The CTL holds every exec argument, and a word with a ``/`` is
        resolved as a path whether or not it is run: an argument that names
        a non-executable file is matched, and the file is kept."""
        members = shell_chain_members([
            {"path": "/usr/lib", "kind": "directory"},
            {"path": "/usr/lib/os-release", "kind": "regular", "mode": 0o644, "data": b"ID=debian\n"},
        ])
        rootfs, cll, match, retain = build_pipeline(members, ["cat", "/usr/lib/os-release"])
        assert match.matched == {"/usr/lib/os-release": "/usr/lib/os-release"}
        assert match.unmatched == ["cat"]  # no cat in this rootfs
        assert retain.reasons["/usr/lib/os-release"] == "token-match"
        _, _, _, without = build_pipeline(members, ["cat"])
        assert "/usr/lib/os-release" not in without.paths

    def test_dot_dot_is_walked_physically_across_a_directory_link(self):
        """``..`` after a directory link leaves the link's target, not the
        link's parent: the token names ``/usr/lib/helper``, and no
        ``/opt/helper`` exists to be folded to lexically."""
        members = shell_chain_members([
            {"path": "/usr/lib", "kind": "directory"},
            {"path": "/usr/lib/tool", "kind": "directory"},
            {"path": "/usr/lib/helper", "kind": "regular", "mode": 0o755, "data": b"helper"},
            {"path": "/opt/link", "kind": "symlink", "target": "/usr/lib/tool"},
        ])
        rootfs, cll, match, retain = build_pipeline(members, ["/opt/link/../helper"])
        assert match.matched == {"/opt/link/../helper": "/opt/link/../helper"}
        assert {"/opt/link", "/usr/lib/helper"} <= retain.paths
        assert retain.reasons["/usr/lib/helper"] == "token-match"
        rootfs, cll, match, retain = build_pipeline(members, ["link/../helper"])
        assert match.unmatched == ["link/../helper"]  # joined onto /, no /link


class TestRetainList:
    def test_empty_ctl_keeps_protected_only(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), [])
        prunable = {p for p in rootfs.entries if in_prune_area(p)}
        assert retain.paths == set(rootfs.entries) - prunable
        assert "/etc/hosts" in retain.paths
        assert "/usr/bin/perl" not in retain.paths

    def test_sh_keeps_chain_drops_perl(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        assert {"/usr/bin/sh", "/usr/bin/dash"} <= retain.paths
        assert "/usr/bin/perl" not in retain.paths
        assert retain.reasons["/usr/bin/dash"] == "token-match"

    def test_alias_spelling_token_retains_dir_symlink(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["/bin/sh"])
        # The alias spelling needs the /bin symlink plus the physical chain.
        assert {"/bin", "/usr/bin/sh", "/usr/bin/dash"} <= retain.paths
        assert "/usr/bin/perl" not in retain.paths

    def test_elf_dependencies_retained(self):
        rootfs, cll, match, retain = build_pipeline(elf_shell_members(), ["sh"])
        assert "/usr/lib/libc.so.6" in retain.paths
        assert retain.reasons["/usr/lib/libc.so.6"] == "elf-dependency"
        assert "/usr/lib/ld-linux.so.2" in retain.paths  # loader survives /lib/ pruning
        assert "/usr/bin/perl" not in retain.paths

    def test_symlink_chain_closed(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        for path in retain.paths:
            rec = rootfs.entries[path]
            if rec.kind == "symlink":
                target = rootfs.symlink_table[path]
                from staticslim.rootfs import resolve_entry

                physical = resolve_entry(rootfs, target)
                assert physical in retain.paths

    def test_parents_present(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        import posixpath

        for path in retain.paths:
            parent = posixpath.dirname(path)
            if parent != "/":
                assert parent in retain.paths

    def test_monotone_in_ctl(self):
        members = shell_chain_members()
        _, _, _, small = build_pipeline(members, ["sh"])
        _, _, _, large = build_pipeline(members, ["sh", "perl"])
        assert small.paths <= large.paths
        assert "/usr/bin/perl" in large.paths

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_token_order_and_repeats_change_no_retain_set(self, rng, data):
        """The retain set is a function of the set of tokens: permuting or
        repeating the CTL's tokens changes no path kept. The path words
        include the alias spellings directory links create, which are no
        node of the chains ``slim`` builds, so matching them adds nodes."""
        entries, commands, search_dirs = random_symlink_rootfs(rng)
        rootfs = rootfs_from_ground_truth(entries)

        def chains():
            return build_command_linked_list(collect_system_commands(rootfs, search_dirs), rootfs, search_dirs)

        aliases = expand_command_linked_list(chains(), rootfs)
        words = commands + sorted(n for n in aliases.nodes if n.startswith("/")) + ["cd", "-v", "/nowhere"]
        tokens = data.draw(st.lists(st.sampled_from(words), max_size=8), label="tokens")
        repeats = data.draw(st.lists(st.sampled_from(tokens), max_size=4), label="repeats") if tokens else []
        shuffled = data.draw(st.permutations(tokens + repeats), label="shuffled")

        def retained(texts):
            ctl = CommandTokenList(tokens=[CommandToken(t, "exec-argument", "test") for t in texts])
            cll = chains()  # each call matches into chains of its own
            return build_retain_list(match_tokens(ctl, cll, rootfs).start_nodes, cll, rootfs).paths

        assert retained(shuffled) == retained(tokens)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_respelling_a_path_token_through_a_directory_link(self, rng):
        """A chain path ``p`` respelled through a directory link ``L -> T``
        as ``q = L + p[len(T):]`` keeps every path ``p`` keeps, and besides
        them only the links ``q``'s resolution crosses and their parent
        directories."""
        entries, _, search_dirs = random_symlink_rootfs(rng)
        rootfs = rootfs_from_ground_truth(entries)

        def chains():
            return build_command_linked_list(collect_system_commands(rootfs, search_dirs), rootfs, search_dirs)

        def retained(token):
            cll = chains()
            return build_retain_list(match_tokens(ctl_of(token), cll, rootfs).start_nodes, cll, rootfs).paths

        dir_links = {link: target for link, target in rootfs.symlink_table.items()
                     if getattr(rootfs.entries.get(target), "kind", None) == "directory"}
        for p in sorted(n for n in chains().nodes if n.startswith("/")):
            for link, target in dir_links.items():
                if not p.startswith(target + "/"):
                    continue
                q = link + p[len(target):]
                hops: list[str] = []
                resolve_entry(rootfs, q, trace=hops)
                crossed = set(hops)
                for hop in hops:
                    parent = posixpath.dirname(hop)
                    while parent != "/":
                        crossed.add(parent)
                        parent = posixpath.dirname(parent)
                kept_p, kept_q = retained(p), retained(q)
                assert kept_p <= kept_q, (p, q)
                assert kept_q - kept_p <= crossed, (p, q)

    def test_entry_path_elf_closure(self):
        members = elf_shell_members() + [
            {"path": "/srv", "kind": "directory"},
            {
                "path": "/srv/app",
                "data": make_elf(needed=["libc.so.6"]),
                "mode": 0o755,
            },
        ]
        rootfs, cll, match, retain = build_pipeline(members, ["/srv/app"])
        assert "/usr/lib/libc.so.6" in retain.paths

    def test_directory_symlink_on_runpath_retained(self):
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
        rootfs, _, _, retain = build_pipeline(members, ["app"])
        assert "/opt/applib/libfoo.so" in retain.paths
        # /usr/lib/app is in the prune area; without it the slim image's
        # loader cannot follow the RUNPATH to the library.
        assert "/usr/lib/app" in retain.paths

    def test_needed_name_resolved_per_requesting_object(self):
        # app finds libfoo through its own RUNPATH; libbar, which has none,
        # needs the same name and gets the default directory's copy.
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/lib", "kind": "directory"},
            {"path": "/usr/lib/x", "kind": "directory"},
            {"path": "/usr/lib/x/libfoo.so", "data": make_elf(filler=b"x"), "mode": 0o755},
            {"path": "/usr/lib/libfoo.so", "data": make_elf(filler=b"default"), "mode": 0o755},
            {"path": "/usr/lib/libbar.so", "data": make_elf(needed=["libfoo.so"]), "mode": 0o755},
            {"path": "/usr/bin/app", "mode": 0o755,
             "data": make_elf(needed=["libfoo.so", "libbar.so"], runpath="/usr/lib/x")},
        ]
        rootfs, _, _, retain = build_pipeline(members, ["app"])
        assert {"/usr/lib/x/libfoo.so", "/usr/lib/libbar.so", "/usr/lib/libfoo.so"} <= retain.paths
        assert retain.reasons["/usr/lib/libfoo.so"] == "elf-dependency"
        assert retain.missing_libraries == []

    def test_missing_interpreter_reported_apart_from_libraries(self, caplog):
        members = [m for m in elf_shell_members() if m["path"] != "/usr/lib/ld-linux.so.2"]
        members.append({"path": "/usr/bin/tool", "mode": 0o755,
                        "data": make_elf(needed=["libc.so.6", "libgone.so.1"],
                                         interp="/lib/ld-linux.so.2")})
        with caplog.at_level("WARNING", logger="staticslim.pruner"):
            rootfs, cll, match, retain = build_pipeline(members, ["sh", "tool"])
        assert retain.missing_interpreters == ["/lib/ld-linux.so.2"]
        assert retain.missing_libraries == ["libgone.so.1"]
        warnings = [r.getMessage() for r in caplog.records]
        assert sum("program interpreter '/lib/ld-linux.so.2' unresolved" in w for w in warnings) == 1
        assert not any("needed library '/lib/ld-linux.so.2'" in w for w in warnings)
        report = compute_report(rootfs, cll, retain, match=match)
        assert report.missing_interpreters == ["/lib/ld-linux.so.2"]
        assert report.missing_libraries == ["libgone.so.1"]
        assert json.loads(report.to_json())["missing_interpreters"] == ["/lib/ld-linux.so.2"]

    def test_protection_absolute(self):
        rootfs, _, _, retain = build_pipeline(elf_shell_members(), ["sh"])
        removed = set(rootfs.entries) - retain.paths
        assert all(in_prune_area(p) for p in removed)


class TestEmit:
    def test_member_count_equals_retain(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        data = b"".join(emit_slim_rootfs(rootfs, retain))
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            assert len(tf.getmembers()) == len(retain.paths)

    def test_extracted_bin_sh_resolves(self, tmp_path):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        data = b"".join(emit_slim_rootfs(rootfs, retain))
        dest = tmp_path / "x"
        dest.mkdir()
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            tf.extractall(dest)
        # Both hops are relative links, so resolution stays inside the tree.
        resolved = os.path.realpath(dest / "bin" / "sh")
        assert resolved == str(dest / "usr" / "bin" / "dash")
        assert os.path.isfile(resolved)

    def test_deterministic_bytes(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        first = b"".join(emit_slim_rootfs(rootfs, retain))
        assert b"".join(emit_slim_rootfs(rootfs, retain)) == first

    def test_symlinks_never_materialized(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        data = b"".join(emit_slim_rootfs(rootfs, retain))
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            kinds = {m.name: m.type for m in tf.getmembers()}
        assert kinds["usr/bin/sh"] == tarfile.SYMTYPE
        assert kinds["bin"] == tarfile.SYMTYPE

    def test_metadata_preserved(self):
        members = [
            {"path": "/etc", "kind": "directory", "mode": 0o711, "mtime": 77},
            {"path": "/etc/conf", "data": b"k=v", "mode": 0o600, "uid": 12, "gid": 34, "mtime": 99},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        retain = RetainList()
        retain.add("/etc", "non-protected")
        retain.add("/etc/conf", "non-protected")
        data = b"".join(emit_slim_rootfs(rootfs, retain))
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            conf = tf.getmember("etc/conf")
            assert (conf.mode, conf.uid, conf.gid, conf.mtime) == (0o600, 12, 34, 99)
            etc = tf.getmember("etc")
            assert (etc.mode, etc.mtime) == (0o711, 77)

    def test_hardlink_group_normalized(self, tmp_path):
        # The link path sorts before its target; emission must swap roles so
        # extraction never references a member that has not appeared yet.
        members = [
            {"path": "/zz-target", "data": b"shared", "mode": 0o644},
            {"path": "/aa-link", "kind": "hardlink", "target": "/zz-target"},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        retain = RetainList()
        retain.add("/zz-target", "non-protected")
        retain.add("/aa-link", "non-protected")
        data = b"".join(emit_slim_rootfs(rootfs, retain))
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            members_by_name = {m.name: m for m in tf.getmembers()}
            assert members_by_name["aa-link"].type == tarfile.REGTYPE
            assert members_by_name["zz-target"].type == tarfile.LNKTYPE
            assert members_by_name["zz-target"].linkname == "aa-link"
        dest = tmp_path / "x"
        dest.mkdir()
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            tf.extractall(dest)
        assert (dest / "zz-target").read_bytes() == b"shared"
        assert os.stat(dest / "zz-target").st_ino == os.stat(dest / "aa-link").st_ino

    def test_retain_of_missing_path_is_consistency_error(self):
        rootfs = flatten_layers(make_stack([make_layer_tar([{"path": "/a", "data": b"1"}])]))
        retain = RetainList()
        retain.add("/a", "non-protected")
        retain.add("/ghost", "non-protected")
        with pytest.raises(PruneConsistencyError):
            emit_slim_rootfs(rootfs, retain)  # raised by the call, before any chunk

    def test_device_and_fifo_round_trip(self):
        members = [
            {"path": "/dev", "kind": "directory"},
            {"path": "/dev/null0", "kind": "char-device", "devmajor": 1, "devminor": 3},
            {"path": "/dev/loop9", "kind": "block-device", "devmajor": 7, "devminor": 9},
            {"path": "/dev/pipe0", "kind": "fifo"},
        ]
        rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
        retain = RetainList()
        for p in rootfs.entries:
            retain.add(p, "non-protected")
        data = b"".join(emit_slim_rootfs(rootfs, retain))
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            by_name = {m.name: m for m in tf.getmembers()}
        assert by_name["dev/null0"].type == tarfile.CHRTYPE
        assert (by_name["dev/null0"].devmajor, by_name["dev/null0"].devminor) == (1, 3)
        assert by_name["dev/loop9"].type == tarfile.BLKTYPE
        assert (by_name["dev/loop9"].devmajor, by_name["dev/loop9"].devminor) == (7, 9)
        assert by_name["dev/pipe0"].type == tarfile.FIFOTYPE

    def test_reslim_fixpoint(self):
        rootfs, cll, match, retain = build_pipeline(elf_shell_members(), ["sh"])
        first = b"".join(emit_slim_rootfs(rootfs, retain))

        rootfs2 = flatten_layers(make_stack([first]))
        cll2 = build_command_linked_list(collect_system_commands(rootfs2), rootfs2)
        match2 = match_tokens(ctl_of("sh"), cll2, rootfs2)
        retain2 = build_retain_list(match2.start_nodes, cll2, rootfs2)
        second = b"".join(emit_slim_rootfs(rootfs2, retain2))
        assert second == first


# Name parts that reach the GNU long-name path (over 100 bytes, also once
# UTF-8 encoded), non-ASCII and surrogate-escaped bytes.
_NAME = st.lists(
    st.sampled_from(["a", "é", "中文", "\udcff", "n" * 60, "ü" * 40, "x.so.1"]),
    min_size=1, max_size=3,
).map(lambda parts: "/" + "/".join(parts))
# 2**21 and above need GNU base-256 in the 8-byte uid/gid fields. Sizes
# straddle block ends and, with one header, the end of a 10240-byte record.
_ID = st.sampled_from([0, 1, 65534, 2**21 - 1, 2**21, 2**40])
_SIZE = st.sampled_from([0, 1, 511, 512, 513, 1024, 1500, 8704, 9216])


@st.composite
def _retained_rootfs(draw):
    entries: dict[str, FileRecord] = {}
    regular: list[str] = []
    for path in draw(st.lists(_NAME, min_size=1, max_size=12, unique=True)):
        kind = draw(st.sampled_from(
            ["regular", "directory", "symlink", "hardlink", "device", "fifo"]))
        common = dict(path=path, mode=draw(st.sampled_from([0o644, 0o755, 0o4755, 0o777])),
                      uid=draw(_ID), gid=draw(_ID), mtime=draw(st.sampled_from([0, 1, 2**33])),
                      uname=draw(st.sampled_from(["", "root", "ünïcode"])), gname="")
        if kind == "regular":
            data = bytes([len(regular) % 256]) * draw(_SIZE)
            regular.append(path)
            entries[path] = FileRecord(kind=kind, size=len(data), data=data, **common)
        elif kind == "symlink":
            entries[path] = FileRecord(kind=kind, link_target=draw(_NAME).lstrip("/"), **common)
        elif kind == "device":
            entries[path] = FileRecord(kind=kind, devmajor=draw(st.sampled_from([0, 1, 259])),
                                       devminor=draw(st.sampled_from([3, 2**20])),
                                       block_device=draw(st.booleans()), **common)
        else:
            entries[path] = FileRecord(kind=kind, **common)
    # Hardlinks point at a regular file, which may or may not be retained.
    regular.sort()
    for path, rec in list(entries.items()):
        if rec.kind == "hardlink":
            if regular:
                entries[path] = dataclasses.replace(rec, link_target=draw(st.sampled_from(regular)))
            else:
                del entries[path]
    if not entries:
        entries["/d"] = FileRecord(path="/d", kind="directory", mode=0o755)
    retain = RetainList()
    for path in draw(st.lists(st.sampled_from(sorted(entries)), min_size=1)):
        retain.add(path, "non-protected")
    return FlattenedRootfs(entries=entries), retain


def _one_file(size: int):
    rootfs = FlattenedRootfs(entries={"/f": FileRecord(path="/f", kind="regular", mode=0o644, size=size,
                                                       data=b"f" * size)})
    retain = RetainList()
    retain.add("/f", "non-protected")
    return rootfs, retain


@settings(max_examples=300, deadline=None)
@given(_retained_rootfs())
@example(_one_file(9216))  # with its header and the two end blocks, 512 bytes past a record
@example(_one_file(2 * (1 << 18) + 100))  # read and written in three chunks
def test_emit_matches_addfile_reference(case):
    rootfs, retain = case
    assert b"".join(emit_slim_rootfs(rootfs, retain)) == reference_emit.emit_slim_rootfs(rootfs, retain)


class TestReport:
    def test_exact_ratio(self):
        members = [
            {"path": "/usr", "kind": "directory"},
            {"path": "/usr/bin", "kind": "directory"},
            {"path": "/usr/bin/keepme", "data": b"k" * 4000, "mode": 0o755},
            {"path": "/usr/bin/dropme", "data": b"d" * 6000, "mode": 0o755},
        ]
        rootfs, cll, match, retain = build_pipeline(members, ["keepme"])
        report = compute_report(rootfs, cll, retain, match=match)
        assert report.original_size == 10000
        assert report.slim_size == 4000
        assert abs(report.slimming_ratio - 0.6) < 0.001
        assert report.commands_before == 2
        assert report.commands_after == 1
        assert report.retained_count == len(retain.paths)
        assert report.removed_count == len(rootfs.entries) - len(retain.paths)

    def test_nothing_pruned(self):
        members = [
            {"path": "/srv", "kind": "directory"},
            {"path": "/srv/data", "data": b"x" * 100},
        ]
        rootfs, cll, match, retain = build_pipeline(members, [])
        report = compute_report(rootfs, cll, retain, match=match)
        assert report.slimming_ratio == 0.0
        assert report.commands_after == report.commands_before

    def test_recorded_listing_counts(self):
        # Two recorded listings modeled on a fat/slim base pair; counts are
        # the listing lengths.
        for count in (167, 87):
            names = [f"bin{i}" for i in range(count)]
            members = [
                {"path": "/usr", "kind": "directory"},
                {"path": "/usr/bin", "kind": "directory"},
            ] + [{"path": f"/usr/bin/{n}", "data": b"b", "mode": 0o755} for n in names]
            rootfs = flatten_layers(make_stack([make_layer_tar(members)]))
            cll = build_command_linked_list(collect_system_commands(rootfs), rootfs)
            assert len(cll.heads) == count

    def test_json_serializable(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        report = compute_report(rootfs, cll, retain, match=match)
        import json

        doc = json.loads(report.to_json())
        assert doc["commands_before"] >= doc["commands_after"]
        assert "original size" in report.table()

    @pytest.mark.parametrize("size,text", [
        (0, "0B"), (1023, "1023B"), (1024, "1.0KB"), (3 << 19, "1.5MB"), (3 << 40, "3072.0GB"),
    ])
    def test_table_size_text(self, size, text):
        report = PruneReport(matched_tokens={}, unmatched_tokens=[], retained_count=0, removed_count=0,
                             original_size=size, slim_size=size, slimming_ratio=0.0,
                             commands_before=0, commands_after=0)
        rows = report.table().splitlines()
        assert rows[0] == f"original size        {text}"
        assert rows[1] == f"size after slimming  {text}"

    def test_commands_after_counts_retained_heads(self):
        rootfs, cll, match, retain = build_pipeline(shell_chain_members(), ["sh"])
        report = compute_report(rootfs, cll, retain, match=match)
        # sh and dash chains survive entirely; perl's binary is gone.
        assert report.commands_before == 3
        assert report.commands_after == 2

    def test_commands_after_builds_no_chain(self, monkeypatch):
        rootfs, cll, match, retain = build_pipeline(elf_shell_members(), ["sh"])
        kept = FlattenedRootfs(entries={p: r for p, r in rootfs.entries.items() if p in retain.paths})
        rebuilt = build_command_linked_list(collect_system_commands(kept), kept)

        def no_chain(*args):
            raise AssertionError("a command count built a chain")

        monkeypatch.setattr(rootfs_mod, "_extend_chain", no_chain)
        report = compute_report(rootfs, cll, retain, match=match)
        assert report.commands_after == len(rebuilt.heads) == 2


def test_slim_image_leaves_the_ctl_alone(tmp_path):
    """One CTL slims two images: each image's entrypoint words are matched
    for that image only, and the CTL keeps its own tokens."""
    layer = make_layer_tar(shell_chain_members())

    def image(name, entrypoint):
        path = tmp_path / name
        config = default_config([layer], config={"Entrypoint": entrypoint})
        path.write_bytes(make_docker_archive([layer], config))
        return path

    shared = ctl_of("sh")
    tokens = list(shared.tokens)
    first = slim_image(image("first.tar", ["perl", "-e"]), shared, tmp_path / "slim.tar").report
    second = slim_image(image("second.tar", ["dash"]), shared, tmp_path / "slim.tar").report
    assert shared.tokens == tokens
    assert first.matched_tokens == {"sh": "sh", "perl": "perl"}
    assert first.unmatched_tokens == ["-e"]
    assert second.matched_tokens == {"sh": "sh", "dash": "dash"}
    assert second.unmatched_tokens == []


def _slim_kept(tmp_path, members, config, tokens):
    """Slim a docker-save image of ``members`` with ``config``: the report and
    the paths the slim image holds."""
    layer = make_layer_tar(members)
    image = tmp_path / "image.tar"
    image.write_bytes(make_docker_archive([layer], default_config([layer], config=config)))
    report = slim_image(image, ctl_of(*tokens), tmp_path / "slim.tar").report
    _, stack = load_image_archive(tmp_path / "slim.tar")
    with stack:
        return report, set(flatten_layers(stack).entries)


class TestSlashRuleInImages:
    """A command word with a ``/`` is run as a pathname, so the file it names
    is kept whether or not a search directory holds it."""

    MEMBERS = [
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
        {"path": "/usr/bin/git", "data": b"git", "mode": 0o755},
        {"path": "/bin", "kind": "directory"},
        {"path": "/bin/sh", "data": b"sh", "mode": 0o755},
        {"path": "/usr/lib", "kind": "directory"},
        {"path": "/usr/lib/git-core", "kind": "directory"},
        {"path": "/usr/lib/git-core/git-remote-http", "data": b"remote", "mode": 0o755},
        {"path": "/usr/lib/git-core/git-remote-ftp", "data": b"ftp", "mode": 0o755},
        {"path": "/usr/src", "kind": "directory"},
        {"path": "/usr/src/app", "kind": "directory"},
        {"path": "/usr/src/app/bin", "kind": "directory"},
        {"path": "/usr/src/app/bin/start", "data": b"#!/bin/sh\n", "mode": 0o755},
        {"path": "/usr/src/app/bin/stop", "data": b"#!/bin/sh\n", "mode": 0o755},
    ]
    ENV = ["PATH=/usr/bin:/bin"]

    def test_absolute_token_off_every_chain(self, tmp_path):
        token = "/usr/lib/git-core/git-remote-http"
        report, kept = _slim_kept(tmp_path, self.MEMBERS, {"Env": self.ENV}, [token])
        assert report.matched_tokens == {token: token}
        assert {token, "/usr/lib/git-core"} <= kept
        assert "/usr/lib/git-core/git-remote-ftp" not in kept

    def test_relative_cmd_word_under_the_working_dir(self, tmp_path):
        config = {"Env": self.ENV, "WorkingDir": "/usr/src/app", "Cmd": ["bin/start"]}
        report, kept = _slim_kept(tmp_path, self.MEMBERS, config, [])
        assert report.matched_tokens == {"bin/start": "/usr/src/app/bin/start"}
        assert "/usr/src/app/bin/start" in kept
        assert "/usr/src/app/bin/stop" not in kept
