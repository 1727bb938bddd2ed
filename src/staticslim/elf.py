"""Static ELF inspection: needed libraries, rpath/runpath, program interpreter.

Replaces running the loader (``ldd``) with a pure parse of the program
headers and dynamic section, so nothing from an untrusted image is ever
executed. Resolution follows the loader's documented search order inside the
flattened rootfs. ``LibrarySearch.edges`` is the one loader walk: from each
program root it yields the ``PT_INTERP`` and ``DT_NEEDED`` edges the loader
follows, each needed name resolved for the object that needs it. One
``LibrarySearch`` serves a whole retain pass: each library directory is
listed once, each spelling's symlink chain is walked once and each object is
parsed once.
"""

from __future__ import annotations

import bisect
import logging
import posixpath
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .imageio import KIND_DIRECTORY, KIND_SYMLINK, FlattenedRootfs
from .rootfs import lookup_record, resolve_directory, resolve_entry

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


# The bytes ``read_dynamic_info`` reads first. The ELF header, program
# headers, interpreter, dynamic section and dynamic string table of common
# objects lie within them, so each such object costs one read.
HEAD_WINDOW = 1 << 16


def read_dynamic_info(data, origin: str = "") -> DynamicInfo | None:
    """Parse the dynamic-linking structures of an ELF object.

    ``data`` is the object as a sized range: ``bytes``, or anything with
    ``len()`` whose slices are bytes, such as ``FlattenedRootfs.data_for``
    gives. Its first ``HEAD_WINDOW`` bytes are read once; the program
    headers, the ``PT_INTERP`` and ``PT_DYNAMIC`` ranges and the dynamic
    string table are each read on their own only when they end past that
    window, so the object is never read whole unless a range spans it.

    Returns None for non-ELF input; malformed ELF content is logged and also
    treated as non-ELF.
    """
    head = data[:HEAD_WINDOW]
    if len(head) < 52 or head[:4] != ELF_MAGIC:
        return None
    try:
        return _parse(data, head)
    except (struct.error, IndexError, ValueError, KeyError) as exc:
        log.warning("malformed ELF %s: %s; treated as non-ELF", origin or "object", exc)
        return None


def _parse(data, head: bytes) -> DynamicInfo:
    whole = len(head) == len(data)

    def span(offset: int, size: int) -> bytes:
        """``data[offset:offset + size]``, from ``head`` when it holds it."""
        if whole or offset + size <= len(head):
            return head[offset:offset + size]
        return data[offset:offset + size]

    ei_class = head[4]
    ei_data = head[5]
    if ei_class not in (1, 2) or ei_data not in (1, 2):
        raise ValueError(f"bad ident class={ei_class} data={ei_data}")
    end = "<" if ei_data == 1 else ">"
    is64 = ei_class == 2

    if is64:
        e_phoff, = struct.unpack_from(end + "Q", head, 0x20)
        e_phentsize, e_phnum = struct.unpack_from(end + "HH", head, 0x36)
        phdr = struct.Struct(end + "IIQQQQQQ")  # type, flags, offset, vaddr, paddr, filesz, memsz, align
    else:
        e_phoff, = struct.unpack_from(end + "I", head, 0x1C)
        e_phentsize, e_phnum = struct.unpack_from(end + "HH", head, 0x2A)
        phdr = struct.Struct(end + "IIIIIIII")  # type, offset, vaddr, paddr, filesz, memsz, flags, align

    # The table runs to the end of its last entry as the format reads it,
    # so an entry past the object's end fails to unpack.
    table = span(e_phoff, (e_phnum - 1) * e_phentsize + phdr.size) if e_phnum else b""
    loads: list[tuple[int, int, int]] = []  # (vaddr, offset, filesz)
    dyn_span: tuple[int, int] | None = None
    interpreter = None
    for i in range(e_phnum):
        raw = phdr.unpack_from(table, i * e_phentsize)
        if is64:
            p_type, _flags, p_offset, p_vaddr, _pa, p_filesz = raw[:6]
        else:
            p_type, p_offset, p_vaddr, _pa, p_filesz = raw[:5]
        if p_type == PT_LOAD:
            loads.append((p_vaddr, p_offset, p_filesz))
        elif p_type == PT_DYNAMIC:
            dyn_span = (p_offset, p_filesz)
        elif p_type == PT_INTERP:
            interpreter = span(p_offset, p_filesz).split(b"\x00", 1)[0].decode()

    out = DynamicInfo(elf_class=64 if is64 else 32, interpreter=interpreter)
    if dyn_span is None:
        return out
    out.is_dynamic = True

    entry = struct.Struct(end + ("qQ" if is64 else "iI"))
    dyn_off, dyn_size = dyn_span
    # As for the table: the last entry that starts in the segment is read
    # whole, and one past the object's end fails to unpack.
    last = dyn_size - 1 - (dyn_size - 1) % entry.size
    dynamic = span(dyn_off, last + entry.size) if dyn_size > 0 else b""
    entries = []
    for off in range(0, dyn_size, entry.size):
        d_tag, d_val = entry.unpack_from(dynamic, off)
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
    strtab = span(strtab_off, strsz if strsz is not None else len(data) - strtab_off)

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


def library_search_dirs(rootfs: FlattenedRootfs) -> list[str]:
    """Default library directories plus architecture-triplet subdirectories
    (``x86_64-linux-gnu`` style) discovered inside the rootfs."""
    triplets: dict[str, list[str]] = {base: [] for base in DEFAULT_LIB_DIRS}
    for path, rec in rootfs.entries.items():
        if rec.kind == KIND_DIRECTORY and "-linux-" in posixpath.basename(path):
            base = posixpath.dirname(path)
            if base in triplets:
                triplets[base].append(path)
    return list(DEFAULT_LIB_DIRS) + [p for base in DEFAULT_LIB_DIRS for p in triplets[base]]


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
            text = rootfs.data_for(conf)[:].decode(errors="replace")
        except KeyError:
            continue
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("/"):
                dirs.append(posixpath.normpath(line))
    return dirs


def _chain_entries(rootfs: FlattenedRootfs, path: str) -> tuple[tuple[str, ...], str | None]:
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
            return tuple(out), None
        rec = rootfs.entries.get(physical)
        if rec is None:
            return tuple(out), None
        seen.add(physical)
        out.append(physical)
        if rec.kind != KIND_SYMLINK:
            return tuple(out), physical
        current = rootfs.symlink_table[physical]


def rootfs_library_dirs(rootfs: FlattenedRootfs) -> list[str]:
    """Loader-configured directories followed by the default set."""
    conf_dirs = _loader_conf_dirs(rootfs, _loader_conf_paths(rootfs))
    return conf_dirs + library_search_dirs(rootfs)


class LibrarySearch:
    """The loader's view of one rootfs, shared by a whole retain pass.

    ``index`` maps a library name to the spelling ``d + "/" + name`` of the
    first directory ``d`` of ``rootfs_library_dirs`` whose physical directory
    holds a non-directory entry of that name; a dangling symlink counts, as
    it does for a probe of that spelling. Each directory is resolved once,
    through the same cache a probe of a child spelling uses, and its children
    are one key range of the rootfs's sorted entries. ``chain`` memoizes
    ``_chain_entries`` per spelling, and the parse of each object is kept
    for the walk (``edges``).

    Build one per retain pass rather than keeping it on the rootfs, so its
    memory, parses included, is freed before the slim image is written.
    """

    def __init__(self, rootfs: FlattenedRootfs):
        self.rootfs = rootfs
        self.base_dirs = rootfs_library_dirs(rootfs)
        self.index: dict[str, str] = {}
        self._chains: dict[str, tuple[tuple[str, ...], str | None]] = {}
        self._infos: dict[str, DynamicInfo | None] = {}
        keys = list(rootfs.entries)
        for d in self.base_dirs:
            directory, _ = resolve_directory(rootfs, d)
            if directory is None:
                continue
            prefix = "/" if directory == "/" else directory + "/"
            i = bisect.bisect_left(keys, prefix)
            while i < len(keys) and keys[i].startswith(prefix):
                name = keys[i][len(prefix):]
                cut = name.find("/")
                if cut >= 0:
                    # Not a child: skip the subtree of the child it lies under.
                    i = bisect.bisect_left(keys, prefix + name[:cut] + "0", i)
                    continue
                if rootfs.entries[keys[i]].kind != KIND_DIRECTORY:
                    self.index.setdefault(name, d + "/" + name)
                i += 1

    def find(self, name: str, own_dirs: list[str]) -> str | None:
        """Spelling the loader opens for a needed ``name``, or None.

        The requesting object's own expanded rpath and runpath directories
        are probed first, then the index answers. A name with a ``/`` is
        opened as spelled. ``""``, ``.`` and ``..`` do not name a child of
        the directory, so those are probed in every directory.
        """
        if "/" in name:
            return name if lookup_record(self.rootfs, name) is not None else None
        walked_whole = name in ("", ".", "..")
        for d in own_dirs + self.base_dirs if walked_whole else own_dirs:
            candidate = d + "/" + name
            rec = lookup_record(self.rootfs, candidate)
            if rec is not None and rec.kind != KIND_DIRECTORY:
                return candidate
        return None if walked_whole else self.index.get(name)

    def chain(self, spelling: str) -> tuple[tuple[str, ...], str | None]:
        """``_chain_entries`` of ``spelling``, walked once per search."""
        hit = self._chains.get(spelling)
        if hit is None:
            hit = self._chains[spelling] = _chain_entries(self.rootfs, spelling)
        return hit

    def _dynamic_info(self, path: str) -> DynamicInfo | None:
        """Parsed facts of the object ``path`` opens; None unless it is
        dynamic ELF. Each physical object is parsed once per search, so a
        malformed one is warned about once, naming its first reader."""
        terminal = self.chain(path)[1]
        if terminal is None:
            return None
        if terminal not in self._infos:
            try:
                info = read_dynamic_info(self.rootfs.data_for(terminal), origin=path)
            except KeyError:
                info = None
            self._infos[terminal] = info if info is not None and info.is_dynamic else None
        return self._infos[terminal]

    def edges(self, roots: Iterable[str]) -> Iterator[tuple[str, str, tuple[str, ...], str | None, bool]]:
        """Every edge the loader follows to start the program ``roots``.

        An edge is (requester, name, hops, terminal, is_interpreter): the
        object that names ``name``, every entry crossed to open it and the
        object opened, or None when the name does not resolve. For each
        root in turn, a dynamic root's ``PT_INTERP`` comes first, then the
        ``DT_NEEDED`` names of the root and of every object reached from
        it, breadth first. An object walked for an earlier root is not
        walked again. A needed name is resolved for the object that needs
        it: ``find`` with the object's own rpath and runpath, ``$ORIGIN``
        expanded to the directory of the object's spelling.
        """
        walked: set[str] = set()
        for root in roots:
            info = self._dynamic_info(root)
            objects = deque([root])
            if info is not None and info.interpreter:
                hops, interp = self.chain(info.interpreter)
                yield root, info.interpreter, hops, interp, True
                if interp is not None:
                    objects.append(interp)
            while objects:
                obj = objects.popleft()
                info = None if obj in walked else self._dynamic_info(obj)
                walked.add(obj)
                if info is None:
                    continue
                origin = posixpath.dirname(obj) if info.rpath or info.runpath else ""
                own_dirs = [posixpath.normpath(p.replace("${ORIGIN}", origin).replace("$ORIGIN", origin))
                            for p in info.rpath + info.runpath]
                for name in info.needed:
                    spelled = self.find(name, own_dirs)
                    hops, terminal = ((), None) if spelled is None else self.chain(spelled)
                    yield obj, name, hops, terminal, False
                    if terminal is not None and terminal not in walked:
                        objects.append(terminal)
