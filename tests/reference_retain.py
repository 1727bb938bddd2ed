"""Reference retain list built in five passes, one ELF closure per chain entry.

It is the oracle for ``staticslim.pruner.build_retain_list``, which walks one
retain graph and resolves each needed name for the object that needs it.
This is the original five-pass build (chain spellings, one closure per chain
entry, the protected sweep, the link fixed point, the parent sweep),
unchanged apart from resolving paths with ``reference_resolver`` and
closures with ``reference_elf``. A closure resolves each needed name once,
through the first object that needs it, so where objects carry their own
rpath or runpath the graph may keep more than this; it never keeps less.
"""

from __future__ import annotations

import posixpath

import reference_elf
from reference_resolver import resolve_entry
from staticslim.elf import rootfs_library_dirs
from staticslim.imageio import KIND_HARDLINK, KIND_SYMLINK
from staticslim.pruner import (
    REASON_ELF,
    REASON_HARDLINK,
    REASON_INTERP,
    REASON_PARENT,
    REASON_PROTECTED,
    REASON_SYMLINK,
    REASON_TOKEN,
    RetainList,
    in_prune_area,
)
from staticslim.rootfs import resolve_chain


def _retain_spelling(retain: RetainList, rootfs, path: str, reason: str) -> str | None:
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


def _close_links(retain: RetainList, rootfs) -> None:
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


def _retain_parents(retain: RetainList, rootfs) -> None:
    for path in sorted(retain.paths):
        parent = posixpath.dirname(path)
        while parent and parent != "/" and parent not in retain.paths:
            if parent in rootfs.entries:
                retain.add(parent, REASON_PARENT)
            parent = posixpath.dirname(parent)


def build_retain_list(start_nodes, cll, rootfs) -> RetainList:
    """Closed retain set: chains, ELF closures, protected files, parents."""
    retain = RetainList()

    chain_entries: list[str] = []
    seen_entries: set[str] = set()
    spellings = [path for start in start_nodes for path in resolve_chain(cll, start)]
    for spelled in spellings:
        entry = _retain_spelling(retain, rootfs, spelled, REASON_TOKEN)
        if entry is not None and entry not in seen_entries:
            seen_entries.add(entry)
            chain_entries.append(entry)

    lib_dirs = rootfs_library_dirs(rootfs)
    for entry in chain_entries:
        closure = reference_elf.resolve_elf_dependencies(entry, rootfs, lib_dirs)
        for lib in sorted(closure.paths):
            retain.add(lib, REASON_INTERP if lib == closure.interpreter else REASON_ELF)
        for name in closure.missing:
            if name == closure.interpreter:
                if name not in retain.missing_interpreters:
                    retain.missing_interpreters.append(name)
            elif name not in retain.missing_libraries:
                retain.missing_libraries.append(name)

    for path in rootfs.entries:
        if not in_prune_area(path):
            retain.add(path, REASON_PROTECTED)

    _close_links(retain, rootfs)
    _retain_parents(retain, rootfs)
    return retain
