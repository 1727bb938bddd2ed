"""Rootfs pruning: match tokens against command chains and keep what they reach.

Only paths containing ``/bin/``, ``/sbin/``, or ``/lib/`` are ever pruned
(substring semantics, so ``/usr/bin/`` and ``/usr/lib/`` count). The retain
set is everything reachable in one graph (``build_retain_list``): symlink
chains, hardlink targets and parent directories of every retained entry,
plus what the loader opens to start the matched programs, walked by
``elf.LibrarySearch.edges``: their interpreters and needed libraries.
``slim_image`` runs the whole pipeline, from input archive to report, on the
one ``FlattenedRootfs`` that every stage reads.

The tokens come in a command token list (``ctl``), the one artefact this
stage shares with the analysis stage; pruning never loads the analysis.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import posixpath
import tempfile
from dataclasses import dataclass, field
from typing import Iterator

from .ctl import PROVENANCE_EXEC, CommandTokenList
from .elf import LibrarySearch
from .errors import PruneConsistencyError
from .imageio import (
    KIND_HARDLINK,
    FlattenedRootfs,
    ImageMetadata,
    build_slim_image,
    flatten_layers,
    load_image_archive,
    tar_member,
)
from .rootfs import (
    DEFAULT_SEARCH_DIRS,
    SHELL_BUILTINS,
    CommandLinkedList,
    build_command_linked_list,
    collect_system_commands,
    expand_command_linked_list,
    resolve_chain,
    resolve_entry,
)
from .tarcodec import tar_stream

log = logging.getLogger(__name__)

PRUNE_MARKERS = ("/bin/", "/sbin/", "/lib/")

REASON_TOKEN = "token-match"
REASON_ELF = "elf-dependency"
REASON_INTERP = "interpreter"
REASON_PROTECTED = "non-protected"
REASON_PARENT = "parent-directory"
REASON_SYMLINK = "symlink-target"
REASON_HARDLINK = "hardlink-target"
REASON_CONSERVATIVE = "conservative"


def in_prune_area(path: str) -> bool:
    return any(marker in path for marker in PRUNE_MARKERS)


@dataclass
class RetainList:
    """Closed set of rootfs entry paths to keep, with a reason per path."""

    paths: set[str] = field(default_factory=set)
    reasons: dict[str, str] = field(default_factory=dict)
    missing_libraries: list[str] = field(default_factory=list)
    missing_interpreters: list[str] = field(default_factory=list)

    def add(self, path: str, reason: str) -> bool:
        added = path not in self.paths
        if added:
            self.paths.add(path)
            self.reasons[path] = reason
        return added


@dataclass
class MatchResult:
    matched: dict[str, str | None]  # token -> start node (None for built-ins)
    start_nodes: list[str]
    unmatched: list[str]


def match_tokens(ctl: CommandTokenList, cll: CommandLinkedList) -> MatchResult:
    """Exact-text match of every token against the node names.

    Bare names and absolute paths are distinct match keys. Shell built-ins
    count as matched without a start node; everything else (flags, file
    arguments, plain words) lands in unmatched.
    """
    matched: dict[str, str | None] = {}
    start_nodes: list[str] = []
    unmatched: list[str] = []
    for token in ctl.token_texts():
        if token in cll.nodes:
            if token not in matched:
                start_nodes.append(token)
            matched[token] = token
        elif token in SHELL_BUILTINS:
            matched[token] = None
        else:
            unmatched.append(token)
    return MatchResult(matched=matched, start_nodes=start_nodes, unmatched=unmatched)


def _note_missing(missing: list[str], name: str, requester: str, what: str) -> None:
    if name not in missing:
        missing.append(name)
        log.warning("%s: %s %r unresolved inside the rootfs", requester, what, name)


def build_retain_list(
    start_nodes,
    cll: CommandLinkedList,
    rootfs: FlattenedRootfs,
    entry_paths=(),
) -> RetainList:
    """Every entry the seeds reach in the retain graph, each visited once.

    Seeds: each spelling on a matched chain, each absolute entrypoint path
    (the entries these denote are program roots), then every entry outside
    the prune area. Edges: the symlink hops a spelling crosses, a symlink's
    one-hop target, a hardlink's target, the nearest existing parent, and
    the loader's edges from the roots (``LibrarySearch.edges``), whose
    order orders the missing names. A path's reason is the seed or edge
    that reached it first.
    """
    retain = RetainList()
    work: list[str] = []

    def reach(path: str, reason: str) -> None:
        if retain.add(path, reason):
            work.append(path)

    def reach_spelling(spelled: str, reason: str) -> str | None:
        hops: list[str] = []
        entry = resolve_entry(rootfs, spelled, trace=hops)
        for hop in hops:
            reach(hop, REASON_SYMLINK)
        if entry is None or entry not in rootfs.entries:
            return None
        reach(entry, reason)
        return entry

    spellings = [path for start in start_nodes for path in resolve_chain(cll, start)]
    roots = dict.fromkeys(reach_spelling(spelled, REASON_TOKEN) for spelled in spellings + list(entry_paths))
    roots.pop(None, None)  # a dangling spelling roots nothing
    for path in rootfs.entries:
        if not in_prune_area(path):
            reach(path, REASON_PROTECTED)

    for requester, name, hops, terminal, is_interpreter in LibrarySearch(rootfs).edges(roots):
        for hop in hops:
            reach(hop, REASON_INTERP if is_interpreter else REASON_ELF)
        if terminal is None and is_interpreter:
            _note_missing(retain.missing_interpreters, name, requester, "program interpreter")
        elif terminal is None:
            _note_missing(retain.missing_libraries, name, requester, "needed library")

    while work:
        path = work.pop()
        rec = rootfs.entries[path]
        if path in rootfs.symlink_table:
            reach_spelling(rootfs.symlink_table[path], REASON_SYMLINK)
        elif rec.kind == KIND_HARDLINK and rec.link_target:
            reach_spelling(rec.link_target, REASON_HARDLINK)
        parent = posixpath.dirname(path)
        while parent not in ("", "/") and parent not in rootfs.entries:
            parent = posixpath.dirname(parent)
        if parent not in ("", "/"):
            reach(parent, REASON_PARENT)

    missing = [p for p in retain.paths if p not in rootfs.entries]
    if missing:
        raise PruneConsistencyError(
            f"retain list references paths absent from the rootfs: {sorted(missing)[:5]}"
        )
    return retain


def emit_slim_rootfs(rootfs: FlattenedRootfs, retain: RetainList) -> Iterator[bytes]:
    """Tar stream of exactly the retained entries, sorted by path, as an
    iterator of chunks.

    Within each hardlink group the lexicographically first retained path
    carries the file content and the others reference it, so extraction
    never sees a forward link reference.

    The retain list is checked against the rootfs here, so a
    ``PruneConsistencyError`` is raised by the call; the entries are written
    as the chunks are asked for. The stream is the one ``tarfile`` writes in
    GNU format (``tar_stream``), each entry framed by ``tar_member`` (one
    ``struct`` pack, a few number encodings and one byte sum; no
    ``TarInfo``); each file is read from its layer a chunk at a time, and
    neither a file nor the stream is held whole, only a chunk of it.
    """
    groups: dict[str, list[str]] = {}
    for path in retain.paths:
        rec = rootfs.entries.get(path)
        if rec is None:
            raise PruneConsistencyError(f"retain list references missing path {path!r}")
        if rec.kind == KIND_HARDLINK and rec.link_target and rec.link_target in retain.paths:
            groups.setdefault(rec.link_target, []).append(path)

    carrier: dict[str, str] = {}
    for target, links in groups.items():
        members = sorted([target, *links])
        for m in members:
            carrier[m] = members[0]

    return tar_stream(tar_member(rootfs, path, carrier.get(path))
                      for path in sorted(retain.paths))


@dataclass
class PruneReport:
    matched_tokens: dict[str, str | None]
    unmatched_tokens: list[str]
    retained_count: int
    removed_count: int
    original_size: int
    slim_size: int
    slimming_ratio: float
    commands_before: int
    commands_after: int
    missing_libraries: list[str] = field(default_factory=list)
    missing_interpreters: list[str] = field(default_factory=list)
    cycles: list[list[str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    def table(self) -> str:
        """Terminal summary mirroring the size/ratio reporting columns."""
        rows = [
            ("original size", _human_size(self.original_size)),
            ("size after slimming", _human_size(self.slim_size)),
            ("slimming ratio", f"{self.slimming_ratio * 100:.1f}%"),
            ("commands before", str(self.commands_before)),
            ("commands after", str(self.commands_after)),
            ("entries retained", str(self.retained_count)),
            ("entries removed", str(self.removed_count)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _human_size(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024


def compute_report(
    rootfs: FlattenedRootfs,
    cll: CommandLinkedList,
    retain: RetainList,
    match: MatchResult,
    search_dirs=DEFAULT_SEARCH_DIRS,
) -> PruneReport:
    """Sizes, ratio, and supported-command counts before and after pruning.

    ``commands_after`` counts the commands of the search listing of the
    retained entries of ``rootfs`` (``collect_system_commands``): the count
    ``inspect`` prints for the slim image, dangling command links included.
    No chain is built for it.
    """
    kept = rootfs.subset(retain.paths)
    original = rootfs.total_size
    ratio = 0.0 if original == 0 else 1.0 - kept.total_size / original
    return PruneReport(
        matched_tokens=dict(match.matched),
        unmatched_tokens=list(match.unmatched),
        retained_count=len(retain.paths),
        removed_count=len(rootfs.entries) - len(retain.paths),
        original_size=original,
        slim_size=kept.total_size,
        slimming_ratio=ratio,
        commands_before=len(cll.heads),
        commands_after=len(collect_system_commands(kept, search_dirs)),
        missing_libraries=list(retain.missing_libraries),
        missing_interpreters=list(retain.missing_interpreters),
        cycles=list(cll.cycles),
        warnings=list(rootfs.warnings),
    )


@dataclass
class SlimResult:
    """What one slim run produced besides the archive: the models behind it."""

    metadata: ImageMetadata
    cll: CommandLinkedList
    retain: RetainList
    report: PruneReport


def _entrypoint_tokens(metadata: ImageMetadata) -> list[str]:
    tokens = []
    for part in [*(metadata.entrypoint or ()), *(metadata.cmd or ())]:
        tokens.extend(part.split())
    return tokens


@contextlib.contextmanager
def _replacing(path) -> Iterator:
    """A new binary file that replaces ``path`` when the block ends: a
    temporary file beside it, renamed over it (over the file a symlink
    ``path`` points to, which stays a symlink). On any failure the
    temporary file is removed and ``path`` is left as it was. The file is
    created with the permissions ``open`` gives, not ``mkstemp``'s 0o600."""
    path = os.path.realpath(path)
    directory, name = os.path.split(path)
    fd, temporary = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with open(fd, "wb") as out:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield out
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def slim_image(
    input_path,
    ctl: CommandTokenList,
    output,
    *,
    search_dirs=DEFAULT_SEARCH_DIRS,
    conservative: bool = False,
    layout: str = "oci",
    gzip_layer: bool = False,
) -> SlimResult:
    """Slim one image archive: load, model, match, retain, emit, build, report.

    The slim image is written to the path ``output``, which is replaced
    only when the run succeeds (``_replacing``), so a failed run leaves it
    as it was and leaves no temporary file beside it.
    The image's entrypoint and cmd words are matched with ``ctl``'s tokens;
    ``ctl`` itself is left as it is. ``conservative`` keeps every entry
    instead of pruning.
    Raises a ``SlimError`` subclass when the input cannot be slimmed.
    """
    with _replacing(output) as out:
        metadata, stack = load_image_archive(input_path)
        # The rootfs reads file bytes from the layers (ELF objects, ld.so.conf,
        # emitted files), so the stack stays open until the image is built.
        with stack:
            rootfs = flatten_layers(stack)
            commands = collect_system_commands(rootfs, search_dirs)
            cll = build_command_linked_list(commands, rootfs, search_dirs)
            expand_command_linked_list(cll, rootfs)

            entry_tokens = _entrypoint_tokens(metadata)
            image_ctl = CommandTokenList(tokens=list(ctl.tokens))
            for token in entry_tokens:
                image_ctl.add(token, PROVENANCE_EXEC, "image-config")
            match = match_tokens(image_ctl, cll)
            if conservative:
                retain = RetainList()
                for path in rootfs.entries:
                    retain.add(path, REASON_CONSERVATIVE)
            else:
                entry_paths = [t for t in entry_tokens if t.startswith("/")]
                # rootfs goes by name: the bench tracer (bench/trace_child.py)
                # reads it as a keyword or as the 4th positional argument.
                retain = build_retain_list(match.start_nodes, cll, rootfs=rootfs,
                                           entry_paths=entry_paths)
            slim_tar = emit_slim_rootfs(rootfs, retain)
            build_slim_image(metadata, slim_tar, out, layout=layout, gzip_layer=gzip_layer)
        report = compute_report(rootfs, cll, retain, match=match, search_dirs=search_dirs)
        return SlimResult(metadata=metadata, cll=cll, retain=retain, report=report)
