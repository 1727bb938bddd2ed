"""Path resolution and the command linked list over one flattened rootfs.

Every function here reads one ``FlattenedRootfs``: its entries, in path
order, and the symlink table it derives from them. ``resolve_entry`` keeps
the physical directory of each directory spelling it meets in a cache on the
rootfs, which stays valid because a rootfs is never mutated after
construction; a lookup is then one cache probe for the parent plus one
symlink-table probe for the last name.

The search directories are the image's ``PATH``, in order, as a shell in
the container walks it (``command_search_dirs``): an entry that is empty or
relative is joined onto ``WorkingDir`` (``/`` when unset), and an image
without ``PATH`` is searched in ``DEFAULT_SEARCH_DIRS``. The search listing
alone says which names are commands and where each resolves. Each search
directory, in any spelling, is resolved once and its physical directory
listed once, at the place of its first spelling; a command is an executable
child (regular, symlink or hardlink) at ``physical_dir/name`` of the first
directory that holds one of that name.

Every command usable inside the image is modeled as a chain of nodes: the
bare command name, then each absolute path the name resolves through (one
symlink hop per node) down to the real binary. ``expand_command_linked_list``
is the paper's model of aliases: it adds the spellings created by directory
symlinks, so ``/bin/sh`` and ``/usr/bin/sh`` both exist as nodes when
``/bin`` links to ``/usr/bin``. Slimming does not run it; a path it needs
starts a chain at its own spelling, resolved as a path
(``pruner.match_tokens``).
"""

from __future__ import annotations

import bisect
import json
import logging
import posixpath
from dataclasses import dataclass, field
from typing import Iterator

from .errors import UnknownNodeError
from .imageio import (
    KIND_DIRECTORY,
    KIND_HARDLINK,
    KIND_REGULAR,
    KIND_SYMLINK,
    FileRecord,
    FlattenedRootfs,
    ImageMetadata,
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


def command_search_dirs(metadata: ImageMetadata, search_dirs=None) -> tuple[str, ...]:
    """The directories a command name is searched in, in order.

    ``search_dirs`` when given; else the entries of the image's ``PATH``
    (its last ``PATH=`` in ``Env``), each joined onto ``WorkingDir`` or
    ``/``, so that an empty entry names the working directory and a
    relative one lies below it; else ``DEFAULT_SEARCH_DIRS``.
    """
    if search_dirs is not None:
        return tuple(search_dirs)
    path = None
    for var in metadata.env_vars:
        if var.startswith("PATH="):
            path = var[len("PATH="):]
    if path is None:
        return DEFAULT_SEARCH_DIRS
    return tuple(posixpath.join(metadata.working_dir or "/", entry) for entry in path.split(":"))


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

_COMMAND_KINDS = (KIND_REGULAR, KIND_SYMLINK, KIND_HARDLINK)
_MAX_LINK_HOPS = 64


def resolve_entry(rootfs: FlattenedRootfs, path: str, *, follow_last: bool = False,
                  trace: list[str] | None = None) -> str | None:
    """Resolve ``path`` inside the rootfs, following symlinks.

    Ancestor directory symlinks are always followed; the final component is
    followed only when ``follow_last`` is set. Returns the physical path the
    spelling denotes, or None when a symlink loop exhausts the hop budget.
    Symlink entries crossed are appended to ``trace`` in walk order.

    The parent directory of an absolute spelling comes from the rootfs's
    directory cache, so each directory spelling is walked once per rootfs.
    """
    physical, hops = _resolve(rootfs, path, follow_last, _MAX_LINK_HOPS)
    if trace is not None:
        trace.extend(hops)
    return physical


def _resolve(rootfs: FlattenedRootfs, path: str, follow_last: bool,
             budget: int) -> tuple[str | None, tuple[str, ...]]:
    """``_walk`` with ``budget`` hops left, split as cached parent plus last name.

    Spellings that do not split that way (relative, a trailing ``/``, ``.``
    or ``..`` last) are walked whole.
    """
    cut = path.rfind("/")
    name = path[cut + 1:]
    if not path.startswith("/") or name in ("", ".", ".."):
        return _walk(rootfs, path, follow_last, budget)
    directory, hops = resolve_directory(rootfs, path[:cut] or "/")
    if directory is None or len(hops) >= budget:
        # The walk runs out of hops inside the parent: keep the hops it made.
        return None, hops[:budget - 1]
    budget -= len(hops)
    entry = "/" + name if directory == "/" else directory + "/" + name
    target = rootfs.symlink_table.get(entry)
    if target is None or not follow_last:
        return entry, hops
    budget -= 1
    if budget <= 0:
        return None, hops
    physical, rest = _resolve(rootfs, target, True, budget)
    return physical, hops + (entry,) + rest


def resolve_directory(rootfs: FlattenedRootfs, spelling: str) -> tuple[str | None, tuple[str, ...]]:
    """Physical directory a directory spelling denotes (None on a loop) and
    the symlink hops crossed, walked once per rootfs.

    ``resolve_entry`` takes the parent of every absolute spelling from here,
    so a caller that lists a directory's children through this function sees
    the same directory, loops and hop budget as a probe of each child.
    """
    cached = rootfs._dir_cache.get(spelling)
    if cached is None:
        cached = rootfs._dir_cache[spelling] = _walk(rootfs, spelling, True, _MAX_LINK_HOPS)
    return cached


def _walk(rootfs: FlattenedRootfs, path: str, follow_last: bool,
          budget: int) -> tuple[str | None, tuple[str, ...]]:
    """The per-component walk: physical path (None on a loop) and hops crossed."""
    trace = []
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
                return None, tuple(trace)
            trace.append(nxt)
            for c in reversed([c for c in target.split("/") if c]):
                stack.append(c)
            resolved = "/"
            continue
        resolved = nxt
    return resolved, tuple(trace)


def lookup_record(rootfs: FlattenedRootfs, path: str) -> FileRecord | None:
    """Record denoted by ``path`` with ancestors resolved, final left as-is."""
    physical = resolve_entry(rootfs, path)
    if physical is None:
        return None
    return rootfs.entries.get(physical)


def list_directory(keys: list[str], directory: str) -> Iterator[tuple[str, str]]:
    """Each entry directly below the physical ``directory``, as (name, path),
    in path order: one key range of ``keys`` (a rootfs's paths, sorted), the
    subtree below each child skipped with one bisection."""
    prefix = "/" if directory == "/" else directory + "/"
    i = bisect.bisect_right(keys, prefix)
    while i < len(keys) and keys[i].startswith(prefix):
        path = keys[i]
        cut = path.find("/", len(prefix))
        if cut >= 0:
            # Not a child: skip the subtree of the child it lies under.
            i = bisect.bisect_left(keys, path[:cut] + "0", i)
            continue
        yield path[len(prefix):], path
        i += 1


def _search_listing(rootfs: FlattenedRootfs, search_dirs) -> dict[str, str]:
    """The search listing: each command name -> the path of the first
    directory, in search order, that holds it as an executable file, a
    hardlink or a symlink that does not resolve to a directory."""
    keys = list(rootfs.entries)
    listing: dict[str, str] = {}
    for directory in dict.fromkeys(resolve_directory(rootfs, d)[0] for d in search_dirs):
        if not _is_directory(rootfs, directory):
            continue
        for name, path in list_directory(keys, directory):
            rec = rootfs.entries[path]
            if rec.kind == KIND_SYMLINK and _is_directory(rootfs, resolve_entry(rootfs, path, follow_last=True)):
                continue  # a shell's search skips a link to a directory; a dangling one counts
            if rec.kind in _COMMAND_KINDS and rec.is_executable():
                listing.setdefault(name, path)
    return listing


def _is_directory(rootfs: FlattenedRootfs, path: str | None) -> bool:
    """Whether ``path`` is a directory of the rootfs, the root included."""
    rec = rootfs.entries.get(path)
    return path == "/" or (rec is not None and rec.kind == KIND_DIRECTORY)


def collect_system_commands(rootfs: FlattenedRootfs, search_dirs=DEFAULT_SEARCH_DIRS) -> list[str]:
    """The command names of the search listing, sorted, less the shell built-ins."""
    return sorted(_search_listing(rootfs, search_dirs).keys() - SHELL_BUILTINS)


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
    cycles: list[list[str]] = field(default_factory=list)  # each loop met, once, as sorted paths

    def get(self, name: str) -> CommandNode | None:
        return self.nodes.get(name)

    def add(self, name: str) -> CommandNode:
        node = CommandNode(name=name)
        self.nodes[name] = node
        return node

    def dump(self) -> str:
        """Line-oriented JSON debug dump: one node per line."""
        heads = set(self.heads)
        lines = []
        for node in self.nodes.values():
            lines.append(
                json.dumps(
                    {
                        "node": node.name,
                        "next": node.next.name if node.next else None,
                        "head": node.name in heads,
                        "dangling": node.dangling,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _record_cycle(cll: CommandLinkedList, paths) -> None:
    """Record the symlink loop of ``paths`` once, as its sorted paths."""
    cycle = sorted(set(paths))
    if cycle not in cll.cycles:
        cll.cycles.append(cycle)


def _extend_chain(cll: CommandLinkedList, node: CommandNode, rootfs: FlattenedRootfs,
                  walked: list[str]) -> None:
    """Follow one-hop resolutions from the path node ``node``, creating nodes
    as needed. ``walked`` lists the nodes walked to reach it, ``node`` last.
    A loop the walk runs into is recorded: the nodes on it, or, when a
    node's ancestor directories loop, the links its resolution kept
    crossing (those since the last one's previous crossing)."""
    while True:
        physical = resolve_entry(rootfs, node.name)
        if physical is None:
            node.dangling = True
            hops: list[str] = []
            resolve_entry(rootfs, node.name, trace=hops)
            again = max((i for i, hop in enumerate(hops[:-1]) if hop == hops[-1]), default=-1)
            _record_cycle(cll, hops[again + 1:])
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
        if node.name in walked:
            _record_cycle(cll, walked[walked.index(node.name):])
            return
        walked.append(node.name)


def build_command_linked_list(commands, rootfs: FlattenedRootfs,
                              search_dirs=DEFAULT_SEARCH_DIRS) -> CommandLinkedList:
    """Construct the command linked list over the given command names: each
    one, sorted, that is no shell built-in heads a chain that starts where
    the search listing puts it; a name the listing lacks is warned about."""
    listing = _search_listing(rootfs, search_dirs)
    cll = CommandLinkedList()
    for cmd in sorted(set(commands) - SHELL_BUILTINS):
        start = listing.get(cmd)
        if start is None:
            log.warning("command %r is not resolvable inside the rootfs; skipped", cmd)
            continue
        cll.heads.append(cmd)
        head = cll.add(cmd)
        head.next = cll.get(start) or cll.add(start)
        _extend_chain(cll, head.next, rootfs, [start])
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


def expand_command_linked_list(cll: CommandLinkedList, rootfs: FlattenedRootfs) -> CommandLinkedList:
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
                _extend_chain(cll, new_node, rootfs, [new_path])
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
