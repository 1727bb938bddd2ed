"""Reference ELF closures that probe every library directory per needed name.

They are the oracles for the loader walk ``staticslim.elf.LibrarySearch.edges``,
which looks library names up in an index built once per retain pass and
memoizes symlink chains and parses. ``object_closure`` resolves each needed
name for each object that needs it, as the walk does: a one-root walk must
give the same paths, the same missing names in the same order and the same
interpreter. ``resolve_elf_dependencies`` is the original per-closure search,
unchanged, resolving each name once through the first object that needs it;
``reference_retain`` builds on it. Both resolve paths with
``reference_resolver`` and parse every object afresh.

``parse_whole`` is the original parse of an object held whole, unchanged:
the oracle for ``read_dynamic_info``, which reads an object by range.
"""

from __future__ import annotations

import posixpath
import struct
from dataclasses import dataclass, field

from reference_resolver import resolve_entry
from staticslim.elf import (
    DT_NEEDED,
    DT_NULL,
    DT_RPATH,
    DT_RUNPATH,
    DT_STRSZ,
    DT_STRTAB,
    ELF_MAGIC,
    PT_DYNAMIC,
    PT_INTERP,
    PT_LOAD,
    DynamicInfo,
    read_dynamic_info,
    rootfs_library_dirs,
)
from staticslim.imageio import KIND_DIRECTORY, KIND_SYMLINK


@dataclass
class Closure:
    """What the loader opens to start one program."""

    paths: set[str] = field(default_factory=set)
    missing: list[str] = field(default_factory=list)
    interpreter: str | None = None


def _object_info(rootfs, terminal: str | None, origin: str) -> DynamicInfo | None:
    """Parsed facts of the physical object ``terminal``, or None."""
    if terminal is None:
        return None
    try:
        return read_dynamic_info(rootfs.data_for(terminal), origin=origin)
    except KeyError:
        return None


def lookup_record(rootfs, path: str):
    """Record denoted by ``path`` with ancestors resolved, final left as-is."""
    physical = resolve_entry(rootfs, path)
    if physical is None:
        return None
    return rootfs.entries.get(physical)


def _chain_entries(rootfs, path: str) -> tuple[list[str], str | None]:
    """Every entry the loader crosses to open ``path``, plus the terminal entry.

    The entries are each spelling on the symlink chain of ``path`` and every
    directory symlink crossed while resolving those spellings.
    """
    out: list[str] = []
    seen = set()
    current = path
    while True:
        physical = resolve_entry(rootfs, current, trace=out)
        if physical is None or physical in seen:
            return out, None
        rec = rootfs.entries.get(physical)
        if rec is None:
            return out, None
        seen.add(physical)
        out.append(physical)
        if rec.kind != KIND_SYMLINK:
            return out, physical
        current = rootfs.symlink_table[physical]


def resolve_elf_dependencies(
    binary_path: str,
    rootfs,
    lib_dirs: list[str] | None = None,
) -> Closure:
    """Transitive needed-library closure of ``binary_path`` inside the rootfs.

    Non-ELF and statically linked files yield an empty closure. Unresolvable
    needed names are recorded as missing, never fatal. The returned paths
    include every symlink hop crossed while resolving library names, directory
    symlinks on the way included, plus the program interpreter of the root
    object. Pass a precomputed ``lib_dirs`` (from rootfs_library_dirs) when
    resolving many binaries against one rootfs.
    """
    closure = Closure()
    if lib_dirs is None:
        lib_dirs = rootfs_library_dirs(rootfs)

    _, root_terminal = _chain_entries(rootfs, binary_path)
    root_info = _object_info(rootfs, root_terminal, binary_path)
    if root_info is None or not root_info.is_dynamic:
        return closure

    queue: list[tuple[str, DynamicInfo]] = [(binary_path, root_info)]
    seen_objects = {root_terminal}
    seen_names: set[str] = set()
    if root_info.interpreter:
        closure.interpreter = root_info.interpreter
        hops, terminal = _chain_entries(rootfs, root_info.interpreter)
        closure.paths.update(hops)
        if terminal is None:
            closure.missing.append(root_info.interpreter)
        elif terminal not in seen_objects:
            seen_objects.add(terminal)
            interp_info = _object_info(rootfs, terminal, terminal)
            if interp_info is not None and interp_info.is_dynamic:
                queue.append((terminal, interp_info))

    while queue:
        obj_path, obj_info = queue.pop(0)
        obj_dirs = _object_search_dirs(obj_info, obj_path, lib_dirs)
        for name in obj_info.needed:
            if name in seen_names:
                continue
            seen_names.add(name)
            spelled = _find_library(rootfs, name, obj_dirs)
            if spelled is None:
                closure.missing.append(name)
                continue
            hops, terminal = _chain_entries(rootfs, spelled)
            closure.paths.update(hops)
            if terminal is None:
                closure.missing.append(name)
                continue
            if terminal in seen_objects:
                continue
            seen_objects.add(terminal)
            dep_info = _object_info(rootfs, terminal, terminal)
            if dep_info is not None and dep_info.is_dynamic:
                queue.append((terminal, dep_info))
    return closure


def object_closure(binary_path: str, rootfs) -> Closure:
    """Loader closure of ``binary_path``, each needed name resolved for each
    object that needs it.

    A dynamic root's interpreter is opened first, then objects are walked
    breadth first, each once: the root under its own spelling, every other
    object as the physical entry it was opened as. Missing names are listed
    once each, in the order they are first met.
    """
    closure = Closure()
    lib_dirs = rootfs_library_dirs(rootfs)
    root_info = _object_info(rootfs, _chain_entries(rootfs, binary_path)[1], binary_path)
    queue = [binary_path]
    walked: set[str] = set()

    def opened(name: str, spelled: str | None) -> None:
        hops, terminal = ([], None) if spelled is None else _chain_entries(rootfs, spelled)
        closure.paths.update(hops)
        if terminal is not None:
            queue.append(terminal)
        elif name not in closure.missing:
            closure.missing.append(name)

    if root_info is not None and root_info.is_dynamic and root_info.interpreter:
        closure.interpreter = root_info.interpreter
        opened(root_info.interpreter, root_info.interpreter)
    while queue:
        obj_path = queue.pop(0)
        if obj_path in walked:
            continue
        walked.add(obj_path)
        obj_info = _object_info(rootfs, _chain_entries(rootfs, obj_path)[1], obj_path)
        if obj_info is None or not obj_info.is_dynamic:
            continue
        obj_dirs = _object_search_dirs(obj_info, obj_path, lib_dirs)
        for name in obj_info.needed:
            opened(name, _find_library(rootfs, name, obj_dirs))
    return closure


def _object_search_dirs(obj_info: DynamicInfo, obj_path: str, base: list[str]) -> list[str]:
    origin = posixpath.dirname(obj_path)
    expanded = []
    for p in obj_info.rpath + obj_info.runpath:
        expanded.append(posixpath.normpath(p.replace("${ORIGIN}", origin).replace("$ORIGIN", origin)))
    return expanded + base


def _find_library(rootfs, name: str, search_dirs) -> str | None:
    if "/" in name:
        rec = lookup_record(rootfs, name)
        return name if rec is not None else None
    for d in search_dirs:
        candidate = d + "/" + name
        rec = lookup_record(rootfs, candidate)
        if rec is not None and rec.kind != KIND_DIRECTORY:
            return candidate
    return None


def parse_whole(data: bytes) -> DynamicInfo | None:
    """The dynamic-linking facts of an ELF object held whole in memory, as
    ``read_dynamic_info`` parsed it before it read by range: None for
    non-ELF or malformed input."""
    if len(data) < 52 or data[:4] != ELF_MAGIC:
        return None
    try:
        return _parse(data)
    except (struct.error, IndexError, ValueError, KeyError):
        return None


def _parse(data: bytes) -> DynamicInfo:
    ei_class = data[4]
    ei_data = data[5]
    if ei_class not in (1, 2) or ei_data not in (1, 2):
        raise ValueError(f"bad ident class={ei_class} data={ei_data}")
    end = "<" if ei_data == 1 else ">"
    is64 = ei_class == 2

    if is64:
        e_phoff, = struct.unpack_from(end + "Q", data, 0x20)
        e_phentsize, e_phnum = struct.unpack_from(end + "HH", data, 0x36)
        phdr_fmt = end + "IIQQQQQQ"  # type, flags, offset, vaddr, paddr, filesz, memsz, align
    else:
        e_phoff, = struct.unpack_from(end + "I", data, 0x1C)
        e_phentsize, e_phnum = struct.unpack_from(end + "HH", data, 0x2A)
        phdr_fmt = end + "IIIIIIII"  # type, offset, vaddr, paddr, filesz, memsz, flags, align

    loads: list[tuple[int, int, int]] = []  # (vaddr, offset, filesz)
    dyn_span: tuple[int, int] | None = None
    interpreter = None
    for i in range(e_phnum):
        raw = struct.unpack_from(phdr_fmt, data, e_phoff + i * e_phentsize)
        if is64:
            p_type, _flags, p_offset, p_vaddr, _pa, p_filesz = raw[:6]
        else:
            p_type, p_offset, p_vaddr, _pa, p_filesz = raw[:5]
        if p_type == PT_LOAD:
            loads.append((p_vaddr, p_offset, p_filesz))
        elif p_type == PT_DYNAMIC:
            dyn_span = (p_offset, p_filesz)
        elif p_type == PT_INTERP:
            interpreter = data[p_offset : p_offset + p_filesz].split(b"\x00", 1)[0].decode()

    out = DynamicInfo(elf_class=64 if is64 else 32, interpreter=interpreter)
    if dyn_span is None:
        return out
    out.is_dynamic = True

    entry_fmt = end + ("qQ" if is64 else "iI")
    entry_size = 16 if is64 else 8
    dyn_off, dyn_size = dyn_span
    entries = []
    for off in range(dyn_off, dyn_off + dyn_size, entry_size):
        d_tag, d_val = struct.unpack_from(entry_fmt, data, off)
        if d_tag == DT_NULL:
            break
        entries.append((d_tag, d_val))

    strtab_vaddr = next((v for t, v in entries if t == DT_STRTAB), None)
    strsz = next((v for t, v in entries if t == DT_STRSZ), None)
    if strtab_vaddr is None:
        if any(t == DT_NEEDED for t, _ in entries):
            raise ValueError("dynamic section has DT_NEEDED but no DT_STRTAB")
        return out
    strtab_off = _vaddr_to_offset(loads, strtab_vaddr)
    strtab_end = strtab_off + (strsz if strsz is not None else len(data) - strtab_off)
    strtab = data[strtab_off:strtab_end]

    def read_str(offset: int) -> str:
        end = strtab.find(b"\x00", offset)
        return strtab[offset : end if end >= 0 else None].decode()

    for tag, val in entries:
        if tag == DT_NEEDED:
            out.needed.append(read_str(val))
        elif tag == DT_RPATH:
            out.rpath.extend(p for p in read_str(val).split(":") if p)
        elif tag == DT_RUNPATH:
            out.runpath.extend(p for p in read_str(val).split(":") if p)
    return out


def _vaddr_to_offset(loads, vaddr: int) -> int:
    for p_vaddr, p_offset, p_filesz in loads:
        if p_vaddr <= vaddr < p_vaddr + p_filesz:
            return p_offset + (vaddr - p_vaddr)
    raise ValueError(f"vaddr {vaddr:#x} not covered by any PT_LOAD segment")
