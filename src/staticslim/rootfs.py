"""Path resolution and the command linked list over one flattened rootfs.

Every function here reads one ``FlattenedRootfs``: its entries, in path
order, and the symlink table it derives from them.

Every command usable inside the image is modeled as a chain of nodes: the
bare command name, then each absolute path the name resolves through (one
symlink hop per node) down to the real binary. A second pass adds alias
spellings created by directory symlinks, so ``/bin/sh`` and ``/usr/bin/sh``
both exist as nodes when ``/bin`` links to ``/usr/bin``.
"""

from __future__ import annotations

import json
import logging
import posixpath
from dataclasses import dataclass, field

from .errors import UnknownNodeError
from .imageio import (
    KIND_DIRECTORY,
    KIND_HARDLINK,
    KIND_REGULAR,
    KIND_SYMLINK,
    FileRecord,
    FlattenedRootfs,
)

log = logging.getLogger(__name__)

DEFAULT_SEARCH_DIRS = (
    "/bin",
    "/sbin",
    "/usr/bin",
    "/usr/sbin",
    "/usr/local/bin",
    "/usr/local/sbin",
)

# Shell words satisfied by the shell itself; they never name a file to keep.
# Dual-nature utilities that also ship as real binaries (echo, test, true,
# false, pwd, printf, kill) are deliberately absent so their files stay
# retainable.
SHELL_BUILTINS = frozenset(
    {
        ".",
        ":",
        "alias",
        "bg",
        "break",
        "cd",
        "command",
        "continue",
        "eval",
        "exec",
        "exit",
        "export",
        "fc",
        "fg",
        "getopts",
        "hash",
        "jobs",
        "local",
        "read",
        "readonly",
        "return",
        "set",
        "shift",
        "source",
        "times",
        "trap",
        "type",
        "ulimit",
        "umask",
        "unalias",
        "unset",
        "wait",
    }
)

_LINK_KINDS = (KIND_SYMLINK, KIND_HARDLINK)
_COMMAND_KINDS = (KIND_REGULAR, KIND_SYMLINK, KIND_HARDLINK)
_MAX_LINK_HOPS = 64


def resolve_entry(rootfs: FlattenedRootfs, path: str, *, follow_last: bool = False,
                  trace: list[str] | None = None) -> str | None:
    """Walk ``path`` component by component, resolving symlinks.

    Ancestor directory symlinks are always followed; the final component is
    followed only when ``follow_last`` is set. Returns the physical path the
    spelling denotes, or None when a symlink loop exhausts the hop budget.
    Symlink entries crossed during the walk are appended to ``trace``.
    """
    budget = _MAX_LINK_HOPS
    stack = [c for c in reversed(path.split("/")) if c]
    resolved = "/"
    while stack:
        comp = stack.pop()
        if comp == ".":
            continue
        if comp == "..":
            resolved = posixpath.dirname(resolved) or "/"
            continue
        nxt = posixpath.join(resolved, comp)
        target = rootfs.symlink_table.get(nxt)
        if target is not None and (stack or follow_last):
            budget -= 1
            if budget <= 0:
                return None
            if trace is not None:
                trace.append(nxt)
            for c in reversed([c for c in target.split("/") if c]):
                stack.append(c)
            resolved = "/"
            continue
        resolved = nxt
    return resolved


def lookup_record(rootfs: FlattenedRootfs, path: str) -> FileRecord | None:
    """Record denoted by ``path`` with ancestors resolved, final left as-is."""
    physical = resolve_entry(rootfs, path)
    if physical is None:
        return None
    return rootfs.entries.get(physical)


def collect_system_commands(
    rootfs: FlattenedRootfs, search_dirs=DEFAULT_SEARCH_DIRS
) -> list[str]:
    """Names of executable entries found in the command search directories."""
    names: set[str] = set()
    for d in search_dirs:
        physical = resolve_entry(rootfs, d, follow_last=True)
        if physical is None:
            continue
        rec = rootfs.entries.get(physical)
        if rec is None or rec.kind != KIND_DIRECTORY:
            continue
        for path, r in rootfs.entries.items():
            if posixpath.dirname(path) != physical:
                continue
            if r.kind in _COMMAND_KINDS and r.is_executable():
                names.add(posixpath.basename(path))
    return sorted(names - SHELL_BUILTINS)


def command_abs_path(rootfs: FlattenedRootfs, name: str, search_dirs=DEFAULT_SEARCH_DIRS) -> str | None:
    """Absolute path a bare command name resolves to via the search dirs.

    Directories that are themselves symlinks are skipped on the first pass so
    the node is named by the physical spelling (the alias spellings are added
    by the expansion pass); they serve as a fallback when nothing else hits.
    """
    fallback = None
    for d in search_dirs:
        candidate = d + "/" + name
        dir_rec = rootfs.entries.get(d)
        if dir_rec is not None and dir_rec.kind == KIND_SYMLINK:
            if fallback is None:
                physical = resolve_entry(rootfs, candidate)
                if physical is not None and physical in rootfs.entries:
                    fallback = physical
            continue
        if candidate in rootfs.entries:
            return candidate
    return fallback


@dataclass
class CommandNode:
    """One link of a command chain, keyed by its name."""

    name: str
    next: CommandNode | None = None
    dangling: bool = False

    def __repr__(self) -> str:  # keep recursive chains printable
        nxt = self.next.name if self.next else None
        return f"CommandNode({self.name!r} -> {nxt!r})"


@dataclass
class CommandLinkedList:
    """All command chains, nodes deduplicated globally by name."""

    nodes: dict[str, CommandNode] = field(default_factory=dict)
    heads: list[str] = field(default_factory=list)
    cycles: list[list[str]] = field(default_factory=list)
    skipped_commands: list[str] = field(default_factory=list)

    def get(self, name: str) -> CommandNode | None:
        return self.nodes.get(name)

    def add(self, name: str) -> CommandNode:
        node = CommandNode(name=name)
        self.nodes[name] = node
        return node

    def dump(self) -> str:
        """Line-oriented JSON debug dump: one node per line."""
        lines = []
        for node in self.nodes.values():
            lines.append(
                json.dumps(
                    {
                        "node": node.name,
                        "next": node.next.name if node.next else None,
                        "head": node.name in set(self.heads),
                        "dangling": node.dangling,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _extend_chain(cll: CommandLinkedList, node: CommandNode, rootfs: FlattenedRootfs,
                  search_dirs) -> None:
    """Follow one-hop resolutions from ``node``, creating nodes as needed."""
    visited = {node.name}
    while True:
        name = node.name
        if not name.startswith("/"):
            nxt = command_abs_path(rootfs, name, search_dirs)
            if nxt is None:
                node.dangling = True
                return
        else:
            physical = resolve_entry(rootfs, name)
            if physical is None:
                node.dangling = True
                cll.cycles.append(sorted(visited))
                return
            rec = rootfs.entries.get(physical)
            if rec is None:
                node.dangling = True
                return
            if rec.kind != KIND_SYMLINK:
                return
            nxt = rootfs.symlink_table[physical]
        existing = cll.get(nxt)
        if existing is None:
            existing = cll.add(nxt)
        if node.next is None:
            node.next = existing
        node = node.next
        if node.name in visited:
            cll.cycles.append(sorted(visited | {node.name}))
            return
        visited.add(node.name)


def build_command_linked_list(
    commands, rootfs: FlattenedRootfs, search_dirs=DEFAULT_SEARCH_DIRS
) -> CommandLinkedList:
    """Construct the command linked list over the given command names."""
    cll = CommandLinkedList()
    for cmd in sorted(set(commands)):
        if cmd in SHELL_BUILTINS:
            continue
        if command_abs_path(rootfs, cmd, search_dirs) is None:
            log.warning("command %r is not resolvable inside the rootfs; skipped", cmd)
            cll.skipped_commands.append(cmd)
            continue
        head = cll.get(cmd)
        if head is None:
            head = cll.add(cmd)
        if cmd not in cll.heads:
            cll.heads.append(cmd)
        _extend_chain(cll, head, rootfs, search_dirs)
    return cll


def _ancestor_dirs(path: str) -> list[str]:
    """Proper ancestor directories of ``path``, excluding the root."""
    dirs = []
    parent = posixpath.dirname(path)
    while parent and parent != "/":
        dirs.append(parent)
        parent = posixpath.dirname(parent)
    return list(reversed(dirs))


def _has_command_file(rootfs: FlattenedRootfs, path: str) -> bool:
    rec = lookup_record(rootfs, path)
    return rec is not None and rec.kind != KIND_DIRECTORY


def expand_command_linked_list(
    cll: CommandLinkedList, rootfs: FlattenedRootfs, search_dirs=DEFAULT_SEARCH_DIRS
) -> CommandLinkedList:
    """Add alias spellings introduced by directory symlinks.

    Each generated alias substitutes exactly one ancestor directory; running
    to a fixed point makes expansion idempotent. When the ancestor is itself a
    symlink the original node is rewired to the alias; when the ancestor is
    the target of a symlink the alias points back at the original node.
    """
    links_to: dict[str, list[str]] = {}
    for src in sorted(rootfs.symlink_table):
        links_to.setdefault(rootfs.symlink_table[src], []).append(src)

    queue = list(cll.nodes.values())
    qi = 0
    while qi < len(queue):
        link_node = queue[qi]
        qi += 1
        name = link_node.name
        if not name.startswith("/"):
            continue
        for d in _ancestor_dirs(name):
            substitutions = []
            if d in rootfs.symlink_table:
                substitutions.append((rootfs.symlink_table[d], True))
            else:
                for src in links_to.get(d, ()):
                    substitutions.append((src, False))
            for replacement, is_sym in substitutions:
                new_path = replacement + name[len(d):]
                if new_path == name or not _has_command_file(rootfs, new_path):
                    continue
                if new_path in cll.nodes:
                    continue
                new_node = cll.add(new_path)
                _extend_chain(cll, new_node, rootfs, search_dirs)
                if is_sym:
                    link_node.next = new_node
                else:
                    new_node.next = link_node
                queue.append(new_node)
    return cll


def resolve_chain(cll: CommandLinkedList, start: str) -> list[str]:
    """All file paths reachable from ``start``; bare names are excluded."""
    node = cll.get(start)
    if node is None:
        raise UnknownNodeError(f"no node named {start!r} in the command linked list")
    out = []
    seen: set[str] = set()
    while node is not None and node.name not in seen:
        seen.add(node.name)
        if node.name.startswith("/"):
            out.append(node.name)
        node = node.next
    return out
