"""Rootfs pruning: match tokens against command chains and keep the closure.

Only paths containing ``/bin/``, ``/sbin/``, or ``/lib/`` are ever pruned
(substring semantics, so ``/usr/bin/`` and ``/usr/lib/`` count). Everything
retained is closed under symlink chains, hardlink targets, parent
directories, and the needed-library set of dynamic executables.
``slim_image`` runs the whole pipeline, from input archive to report, on the
one ``FlattenedRootfs`` that every stage reads.
"""

from __future__ import annotations

import io
import json
import logging
import posixpath
import tarfile
from dataclasses import dataclass, field

from .analyzer import CommandTokenList
from .elf import resolve_elf_dependencies, rootfs_library_dirs
from .errors import PruneConsistencyError
from .imageio import (
    KIND_DEVICE,
    KIND_DIRECTORY,
    KIND_HARDLINK,
    KIND_REGULAR,
    KIND_SYMLINK,
    FlattenedRootfs,
    ImageMetadata,
    build_slim_image,
    flatten_layers,
    load_image_archive,
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
            matched[token] = token
            if token not in start_nodes:
                start_nodes.append(token)
        elif token in SHELL_BUILTINS:
            matched[token] = None
        else:
            unmatched.append(token)
    return MatchResult(matched=matched, start_nodes=start_nodes, unmatched=unmatched)


def _retain_spelling(retain: RetainList, rootfs: FlattenedRootfs, path: str,
                     reason: str) -> str | None:
    """Retain the entries that make one path spelling resolvable.

    Adds every ancestor symlink crossed plus the entry the spelling denotes;
    returns that entry path (or None when the spelling dangles).
    """
    trace: list[str] = []
    physical = resolve_entry(rootfs, path, trace=trace)
    for hop in trace:
        retain.add(hop, REASON_SYMLINK)
    if physical is None or physical not in rootfs.entries:
        return None
    retain.add(physical, reason)
    return physical


def _close_links(retain: RetainList, rootfs: FlattenedRootfs) -> None:
    """Fixed point: symlink one-hop targets and hardlink targets stay inside."""
    pending = sorted(retain.paths)
    while pending:
        path = pending.pop()
        rec = rootfs.entries.get(path)
        if rec is None:
            continue
        target = None
        reason = None
        if rec.kind == KIND_SYMLINK:
            target = rootfs.symlink_table.get(path)
            reason = REASON_SYMLINK
        elif rec.kind == KIND_HARDLINK and rec.link_target:
            target = rec.link_target
            reason = REASON_HARDLINK
        if target is None:
            continue
        trace: list[str] = []
        physical = resolve_entry(rootfs, target, trace=trace)
        for hop in trace:
            if retain.add(hop, REASON_SYMLINK):
                pending.append(hop)
        if physical is not None and physical in rootfs.entries:
            if retain.add(physical, reason):
                pending.append(physical)


def _retain_parents(retain: RetainList, rootfs: FlattenedRootfs) -> None:
    for path in sorted(retain.paths):
        parent = posixpath.dirname(path)
        while parent and parent != "/":
            if parent in rootfs.entries:
                retain.add(parent, REASON_PARENT)
            parent = posixpath.dirname(parent)


def build_retain_list(
    start_nodes,
    cll: CommandLinkedList,
    rootfs: FlattenedRootfs,
    entry_paths=(),
) -> RetainList:
    """Closed retain set: chains, ELF closures, protected files, parents."""
    retain = RetainList()

    chain_entries: list[str] = []
    seen_entries: set[str] = set()
    for start in start_nodes:
        for path in resolve_chain(cll, start):
            entry = _retain_spelling(retain, rootfs, path, REASON_TOKEN)
            if entry is not None and entry not in seen_entries:
                seen_entries.add(entry)
                chain_entries.append(entry)

    for spelled in entry_paths:
        entry = _retain_spelling(retain, rootfs, spelled, REASON_TOKEN)
        if entry is not None and entry not in seen_entries:
            seen_entries.add(entry)
            chain_entries.append(entry)

    lib_dirs = rootfs_library_dirs(rootfs)
    for entry in chain_entries:
        closure = resolve_elf_dependencies(entry, rootfs, lib_dirs=lib_dirs)
        for lib in sorted(closure.paths):
            reason = REASON_INTERP if closure.interpreter and lib == closure.interpreter else REASON_ELF
            _retain_spelling(retain, rootfs, lib, reason)
        if closure.interpreter:
            _retain_spelling(retain, rootfs, closure.interpreter, REASON_INTERP)
        for name in closure.missing:
            if name not in retain.missing_libraries:
                retain.missing_libraries.append(name)
                log.warning("%s: needed library %r unresolved inside the rootfs", entry, name)

    for path in rootfs.entries:
        if not in_prune_area(path):
            retain.add(path, REASON_PROTECTED)

    _close_links(retain, rootfs)
    _retain_parents(retain, rootfs)

    missing = [p for p in retain.paths if p not in rootfs.entries]
    if missing:
        raise PruneConsistencyError(
            f"retain list references paths absent from the rootfs: {sorted(missing)[:5]}"
        )
    return retain


def emit_slim_rootfs(rootfs: FlattenedRootfs, retain: RetainList) -> bytes:
    """Tar stream of exactly the retained entries, sorted by path.

    Within each hardlink group the lexicographically first retained path
    carries the file content and the others reference it, so extraction
    never sees a forward link reference.
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

    out = io.BytesIO()
    with tarfile.open(fileobj=out, mode="w", format=tarfile.GNU_FORMAT) as tf:
        for path in sorted(retain.paths):
            rec = rootfs.entries[path]
            ti = tarfile.TarInfo(name=path.lstrip("/"))
            ti.mode = rec.mode
            ti.uid = rec.uid
            ti.gid = rec.gid
            ti.mtime = rec.mtime
            ti.uname = rec.uname
            ti.gname = rec.gname

            kind = rec.kind
            if path in carrier:
                kind = KIND_REGULAR if carrier[path] == path else KIND_HARDLINK

            if kind == KIND_REGULAR:
                data = rootfs.data_for(path)
                ti.type = tarfile.REGTYPE
                ti.size = len(data)
                tf.addfile(ti, io.BytesIO(data))
            elif kind == KIND_DIRECTORY:
                ti.type = tarfile.DIRTYPE
                tf.addfile(ti)
            elif kind == KIND_SYMLINK:
                ti.type = tarfile.SYMTYPE
                ti.linkname = rec.link_target or ""
                tf.addfile(ti)
            elif kind == KIND_HARDLINK:
                ti.type = tarfile.LNKTYPE
                target = carrier.get(path, rec.link_target or "")
                ti.linkname = target.lstrip("/")
                tf.addfile(ti)
            elif kind == KIND_DEVICE:
                ti.type = tarfile.BLKTYPE if rec.block_device else tarfile.CHRTYPE
                ti.devmajor = rec.devmajor
                ti.devminor = rec.devminor
                tf.addfile(ti)
            else:  # fifo
                ti.type = tarfile.FIFOTYPE
                tf.addfile(ti)
    return out.getvalue()


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
    return f"{n}B"


def compute_report(
    rootfs: FlattenedRootfs,
    cll: CommandLinkedList,
    retain: RetainList,
    match: MatchResult | None = None,
    search_dirs=DEFAULT_SEARCH_DIRS,
) -> PruneReport:
    """Sizes, ratio, and supported-command counts before and after pruning.

    ``commands_after`` counts the heads of a command linked list built over
    the retained entries of ``rootfs``: the commands ``inspect`` reports on
    the slim image, dangling command links included.
    """
    slim_size = sum(
        rec.size
        for path, rec in rootfs.entries.items()
        if path in retain.paths and rec.kind == KIND_REGULAR
    )
    original = rootfs.total_size
    ratio = 0.0 if original == 0 else 1.0 - slim_size / original
    kept = FlattenedRootfs(entries={p: r for p, r in rootfs.entries.items() if p in retain.paths})
    slim_cll = build_command_linked_list(
        collect_system_commands(kept, search_dirs), kept, search_dirs
    )
    return PruneReport(
        matched_tokens=dict(match.matched) if match else {},
        unmatched_tokens=list(match.unmatched) if match else [],
        retained_count=len(retain.paths),
        removed_count=len(rootfs.entries) - len(retain.paths),
        original_size=original,
        slim_size=slim_size,
        slimming_ratio=ratio,
        commands_before=len(cll.heads),
        commands_after=len(slim_cll.heads),
        missing_libraries=list(retain.missing_libraries),
        cycles=list(cll.cycles),
        warnings=list(rootfs.warnings),
    )


@dataclass
class SlimResult:
    """What one slim run produced: the archive and the models behind it."""

    archive: bytes
    metadata: ImageMetadata
    cll: CommandLinkedList
    retain: RetainList
    report: PruneReport


def _entrypoint_tokens(metadata: ImageMetadata) -> list[str]:
    tokens = []
    for part in (metadata.entrypoint or ()) + (metadata.cmd or ()):
        tokens.extend(part.split())
    return tokens


def slim_image(
    input_path,
    ctl: CommandTokenList,
    *,
    search_dirs=DEFAULT_SEARCH_DIRS,
    conservative: bool = False,
    layout: str = "oci",
    gzip_layer: bool = False,
) -> SlimResult:
    """Slim one image archive: load, model, match, retain, emit, build, report.

    The image's entrypoint and cmd words are added to ``ctl`` before
    matching. ``conservative`` keeps every entry instead of pruning.
    Raises a ``SlimError`` subclass when the input cannot be slimmed.
    """
    metadata, stack = load_image_archive(input_path)
    rootfs = flatten_layers(stack)
    commands = collect_system_commands(rootfs, search_dirs)
    cll = build_command_linked_list(commands, rootfs, search_dirs)
    expand_command_linked_list(cll, rootfs, search_dirs)

    entry_tokens = _entrypoint_tokens(metadata)
    for token in entry_tokens:
        ctl.add(token, "exec-argument", "image-config")
    match = match_tokens(ctl, cll)
    if conservative:
        retain = RetainList()
        for path in rootfs.entries:
            retain.add(path, REASON_CONSERVATIVE)
    else:
        entry_paths = [t for t in entry_tokens if t.startswith("/")]
        # rootfs goes by name: the bench tracer (bench/trace_child.py) reads
        # it as a keyword or as the 4th positional argument.
        retain = build_retain_list(match.start_nodes, cll, rootfs=rootfs, entry_paths=entry_paths)
    slim_tar = emit_slim_rootfs(rootfs, retain)
    archive = build_slim_image(metadata, slim_tar, layout=layout, gzip_layer=gzip_layer)
    report = compute_report(rootfs, cll, retain, match=match, search_dirs=search_dirs)
    return SlimResult(archive=archive, metadata=metadata, cll=cll, retain=retain, report=report)
