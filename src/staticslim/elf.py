"""Static ELF inspection: needed libraries, rpath/runpath, program interpreter.

Replaces running the loader (``ldd``) with a pure parse of the program
headers and dynamic section, so nothing from an untrusted image is ever
executed. Resolution follows the loader's documented search order inside the
flattened rootfs.
"""

from __future__ import annotations

import logging
import posixpath
import struct
from dataclasses import dataclass, field

from .imageio import KIND_DIRECTORY, KIND_SYMLINK, FlattenedRootfs
from .rootfs import lookup_record, resolve_entry

log = logging.getLogger(__name__)

ELF_MAGIC = b"\x7fELF"

PT_LOAD = 1
PT_DYNAMIC = 2
PT_INTERP = 3

DT_NULL = 0
DT_NEEDED = 1
DT_STRTAB = 5
DT_STRSZ = 10
DT_RPATH = 15
DT_RUNPATH = 29

DEFAULT_LIB_DIRS = ("/lib", "/lib64", "/usr/lib", "/usr/lib64")


@dataclass
class DynamicInfo:
    """Dynamic-linking facts read from one ELF object."""

    elf_class: int  # 32 or 64
    needed: list[str] = field(default_factory=list)
    rpath: list[str] = field(default_factory=list)
    runpath: list[str] = field(default_factory=list)
    interpreter: str | None = None
    is_dynamic: bool = False


def read_dynamic_info(data: bytes, origin: str = "") -> DynamicInfo | None:
    """Parse the dynamic-linking structures of an ELF image in memory.

    Returns None for non-ELF input; malformed ELF content is logged and also
    treated as non-ELF.
    """
    if len(data) < 52 or data[:4] != ELF_MAGIC:
        return None
    try:
        return _parse(data)
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        log.warning("malformed ELF %s: %s; treated as non-ELF", origin or "object", exc)
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
        return strtab[offset:].split(b"\x00", 1)[0].decode()

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


@dataclass
class ElfClosure:
    """Transitive dependency closure of one dynamic executable."""

    paths: set[str] = field(default_factory=set)
    missing: list[str] = field(default_factory=list)
    interpreter: str | None = None


def library_search_dirs(rootfs: FlattenedRootfs) -> list[str]:
    """Default library directories plus architecture-triplet subdirectories
    (``x86_64-linux-gnu`` style) discovered inside the rootfs."""
    dirs = list(DEFAULT_LIB_DIRS)
    for base in DEFAULT_LIB_DIRS:
        prefix = base + "/"
        for path, rec in rootfs.entries.items():
            if rec.kind != KIND_DIRECTORY or not path.startswith(prefix):
                continue
            if posixpath.dirname(path) == base and "-linux-" in posixpath.basename(path):
                dirs.append(path)
    return dirs


def _loader_conf_paths(rootfs: FlattenedRootfs) -> list[str]:
    return sorted(
        p
        for p in rootfs.entries
        if p == "/etc/ld.so.conf"
        or (p.startswith("/etc/ld.so.conf.d/") and p.endswith(".conf"))
    )


def _loader_conf_dirs(rootfs: FlattenedRootfs, conf_paths) -> list[str]:
    dirs = []
    for conf in conf_paths:
        try:
            text = rootfs.data_for(conf).decode(errors="replace")
        except KeyError:
            continue
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("/"):
                dirs.append(posixpath.normpath(line))
    return dirs


def _chain_entries(rootfs: FlattenedRootfs, path: str) -> tuple[list[str], str | None]:
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


def rootfs_library_dirs(rootfs: FlattenedRootfs) -> list[str]:
    """Loader-configured directories followed by the default set."""
    conf_dirs = _loader_conf_dirs(rootfs, _loader_conf_paths(rootfs))
    return conf_dirs + library_search_dirs(rootfs)


def resolve_elf_dependencies(
    binary_path: str,
    rootfs: FlattenedRootfs,
    lib_dirs: list[str] | None = None,
) -> ElfClosure:
    """Transitive needed-library closure of ``binary_path`` inside the rootfs.

    Non-ELF and statically linked files yield an empty closure. Unresolvable
    needed names are recorded as missing, never fatal. The returned paths
    include every symlink hop crossed while resolving library names, directory
    symlinks on the way included, plus the program interpreter of the root
    object. Pass a precomputed ``lib_dirs`` (from rootfs_library_dirs) when
    resolving many binaries against one rootfs.
    """
    closure = ElfClosure()
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


def _object_info(rootfs: FlattenedRootfs, terminal: str | None, origin: str) -> DynamicInfo | None:
    if terminal is None:
        return None
    try:
        data = rootfs.data_for(terminal)
    except KeyError:
        return None
    return read_dynamic_info(data, origin=origin)


def _object_search_dirs(obj_info: DynamicInfo, obj_path: str, base: list[str]) -> list[str]:
    origin = posixpath.dirname(obj_path)
    expanded = []
    for p in obj_info.rpath + obj_info.runpath:
        expanded.append(posixpath.normpath(p.replace("${ORIGIN}", origin).replace("$ORIGIN", origin)))
    return expanded + base


def _find_library(rootfs: FlattenedRootfs, name: str, search_dirs) -> str | None:
    if "/" in name:
        rec = lookup_record(rootfs, name)
        return name if rec is not None else None
    for d in search_dirs:
        candidate = d + "/" + name
        rec = lookup_record(rootfs, candidate)
        if rec is not None and rec.kind != KIND_DIRECTORY:
            return candidate
    return None
