"""Shared fixture builders and independent oracles.

Everything here is deliberately naive: tar archives are assembled by hand,
the flatten oracle extracts layers onto a scratch directory, and the symlink
oracle re-derives resolution recursively from raw ground truth recorded by
the generators.
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import hashlib
import io
import json
import lzma
import os
import posixpath
import shutil
import struct
import tarfile
from dataclasses import dataclass

import pytest

from staticslim.imageio import LayerStack, _layer_from_blob
from staticslim.rootfs import DEFAULT_SEARCH_DIRS
from staticslim.streams import FileBytes


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# --- tar and image archive builders -----------------------------------------


def make_layer_tar(members) -> bytes:
    """Assemble a layer tar from member dicts (path, kind, data, target...)."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as tf:
        for m in members:
            kind = m.get("kind") or ("regular" if "data" in m else "directory")
            ti = tarfile.TarInfo(name=m["path"].lstrip("/"))
            ti.mtime = m.get("mtime", 1000000)
            ti.uid = m.get("uid", 0)
            ti.gid = m.get("gid", 0)
            ti.uname = m.get("uname", "")
            ti.gname = m.get("gname", "")
            if kind == "regular":
                data = m.get("data", b"")
                ti.type = tarfile.REGTYPE
                ti.size = len(data)
                ti.mode = m.get("mode", 0o644)
                tf.addfile(ti, io.BytesIO(data))
            elif kind == "directory":
                ti.type = tarfile.DIRTYPE
                ti.mode = m.get("mode", 0o755)
                tf.addfile(ti)
            elif kind == "symlink":
                ti.type = tarfile.SYMTYPE
                ti.linkname = m["target"]
                ti.mode = m.get("mode", 0o777)
                tf.addfile(ti)
            elif kind == "hardlink":
                ti.type = tarfile.LNKTYPE
                ti.linkname = m["target"].lstrip("/")
                ti.mode = m.get("mode", 0o644)
                tf.addfile(ti)
            elif kind == "fifo":
                ti.type = tarfile.FIFOTYPE
                ti.mode = m.get("mode", 0o644)
                tf.addfile(ti)
            elif kind in ("char-device", "block-device"):
                ti.type = tarfile.CHRTYPE if kind == "char-device" else tarfile.BLKTYPE
                ti.mode = m.get("mode", 0o660)
                ti.devmajor = m.get("devmajor", 1)
                ti.devminor = m.get("devminor", 3)
                tf.addfile(ti)
            elif kind == "pax-records":
                # A raw pax extended header whose record block is ``data``;
                # a reader applies it to the member that follows.
                ti.type = tarfile.XHDTYPE
                ti.size = len(m["data"])
                tf.addfile(ti, io.BytesIO(m["data"]))
            elif kind == "sparse":
                # Blocks tarfile cannot write, put where addfile puts its own.
                raw = make_sparse_member(m["path"].lstrip("/"), m["format"], m["regions"],
                                         m.get("tail", 0))
                tf.fileobj.write(raw)
                tf.offset += len(raw)
            else:
                raise ValueError(f"unknown member kind {kind!r}")
    return buf.getvalue()


# Pax record blocks that a reader with no bound on a record's span takes
# quadratic time over: a megabyte of digits, which an uncapped length pattern
# rescans from every start (and whose ``int`` is over Python's digit limit),
# and records without "=", which an unbounded keyword pattern scans past up
# to the one "=" at the very end. A reader must refuse both at once.
HOSTILE_PAX_RECORDS = {
    "pax-digits": b"1" * 2**20,
    "pax-no-equals": b"5 ab\n" * 2**18 + b"=",
}


def _pax_record(keyword: str, value: str) -> bytes:
    """One ``"%d %s=%s\n"`` pax record, its length counting its own digits."""
    body = f" {keyword}={value}\n".encode()
    length = len(body) + 1
    while length != len(body) + len(str(length)):
        length = len(body) + len(str(length))
    return str(length).encode() + body


def _blocks_of(data: bytes) -> bytes:
    return data + bytes(-len(data) % 512)


def rechecksum(tar: bytearray, at: int, signed: bool = False) -> None:
    """Rewrite a header's checksum: the sum of its bytes, read as signed or
    unsigned, with the checksum field counted as eight spaces."""
    block = tar[at:at + 512]
    block[148:156] = b"        "
    total = sum(b - 256 if signed and b >= 128 else b for b in block)
    if total >= 0:  # six octal digits
        tar[at + 148:at + 156] = b"%06o\0 " % total


def sparse_map(regions) -> list[tuple[int, int]]:
    """The (offset, size) map of a file of (hole, data) ``regions``."""
    regions_map, at = [], 0
    for hole, data in regions:
        regions_map.append((at + hole, len(data)))
        at += hole + len(data)
    return regions_map


def sparse_file_bytes(regions, tail: int = 0) -> bytes:
    """The file of (hole, data) ``regions`` and a hole of ``tail`` bytes."""
    return b"".join(bytes(hole) + data for hole, data in regions) + bytes(tail)


def make_sparse_member(name: str, fmt: str, regions, tail: int = 0) -> bytes:
    """The blocks of one GNU sparse member, written by hand after GNU tar's
    formats since tarfile writes none. ``regions`` are (hole, data) pairs in
    file order and ``tail`` the hole after the last, so the file is each
    hole's NULs then its data. ``fmt`` is "gnu" (an old GNU ``S`` header
    with four map entries, and extension blocks of 21 for the rest) or the
    pax sparse version "0.0", "0.1" or "1.0"."""
    regions_map = sparse_map(regions)
    real_size = sum(hole + len(data) for hole, data in regions) + tail
    stored = b"".join(data for _, data in regions)
    ti = tarfile.TarInfo(name)
    ti.mode, ti.mtime, ti.size = 0o644, 1000000, len(stored)
    if fmt == "gnu":
        ti.type = tarfile.GNUTYPE_SPARSE
        blocks = bytearray(ti.tobuf(tarfile.GNU_FORMAT, "utf-8", "surrogateescape"))
        entries = b"".join(b"%011o\0%011o\0" % region for region in regions_map)
        at = len(blocks) - 512  # the header, after any long-name record
        blocks[at + 386:at + 482] = entries[:96].ljust(96, b"\0")
        blocks[at + 482] = len(entries) > 96
        blocks[at + 483:at + 495] = b"%011o\0" % real_size
        rechecksum(blocks, at)
        for start in range(96, len(entries), 504):
            more = start + 504 < len(entries)
            blocks += entries[start:start + 504].ljust(504, b"\0") + bytes([more]) + bytes(7)
        return bytes(blocks) + _blocks_of(stored)
    if fmt == "0.0":
        # Repeated keywords, which tarfile's pax_headers dict cannot hold.
        records = _pax_record("GNU.sparse.size", str(real_size))
        records += _pax_record("GNU.sparse.numblocks", str(len(regions_map)))
        for offset, size in regions_map:
            records += _pax_record("GNU.sparse.offset", str(offset))
            records += _pax_record("GNU.sparse.numbytes", str(size))
        pax = tarfile.TarInfo("PaxHeaders/" + name.rsplit("/", 1)[-1])
        pax.type, pax.size = tarfile.XHDTYPE, len(records)
        return (pax.tobuf(tarfile.USTAR_FORMAT, "utf-8", "surrogateescape") + _blocks_of(records)
                + ti.tobuf(tarfile.PAX_FORMAT, "utf-8", "surrogateescape") + _blocks_of(stored))
    # 0.1 and 1.0 give the real name in a record and a stand-in in the header.
    ti.name = "GNUSparseFile.0/" + name.rsplit("/", 1)[-1]
    if fmt == "0.1":
        numbers = ",".join(str(n) for region in regions_map for n in region)
        ti.pax_headers = {"GNU.sparse.major": "0", "GNU.sparse.minor": "1",
                          "GNU.sparse.name": name, "GNU.sparse.size": str(real_size),
                          "GNU.sparse.map": numbers}
    else:
        lines = [len(regions_map), *(n for region in regions_map for n in region)]
        stored = _blocks_of("".join(f"{n}\n" for n in lines).encode()) + stored
        ti.size = len(stored)
        ti.pax_headers = {"GNU.sparse.major": "1", "GNU.sparse.minor": "0",
                          "GNU.sparse.name": name, "GNU.sparse.realsize": str(real_size)}
    return ti.tobuf(tarfile.PAX_FORMAT, "utf-8", "surrogateescape") + _blocks_of(stored)


def hostile_pax_after_sparse(kind: str) -> bytes:
    """A layer of a GNU sparse member, then a pax header of the
    ``HOSTILE_PAX_RECORDS`` of ``kind`` cut to 6 KiB, which a reader without
    a bound on a record's span still takes well under a second over, then a
    file."""
    records = HOSTILE_PAX_RECORDS[kind]
    return make_layer_tar([
        {"path": "/s", "kind": "sparse", "format": "0.1", "regions": [(2, b"s")]},
        {"path": "/PaxHeader", "kind": "pax-records", "data": records[:6 * 1024 - 1] + records[-1:]},
        {"path": "/a", "data": b"a"},
    ])


# The two files of ``two_stream_layer``: the first stream holds a.js, the
# second b.js.
TWO_STREAM_FILES = {"/app/a.js": b"exec('ls')\n", "/app/b.js": bytes(range(256)) * 12}


def two_stream_layer(packing: str, *, damaged: bool = False, between: bytes = b"") -> bytes:
    """A layer tar packed as two gzip members or bz2 or xz streams, split
    after the first file's data block, with ``between`` after the first;
    ``damaged`` flips a byte in the middle of the second stream."""
    compress = {"gzip": lambda data: gzip.compress(data, mtime=0), "bz2": bz2.compress,
                "xz": lzma.compress}[packing]
    tar = make_layer_tar([{"path": path, "data": data} for path, data in TWO_STREAM_FILES.items()])
    second = bytearray(compress(tar[1024:]))
    if damaged:
        second[len(second) // 2] ^= 0x01
    return compress(tar[:1024]) + between + bytes(second)


def memory_bytes(data: bytes) -> FileBytes:
    """``data`` as the layer code reads every file: an in-memory buffer
    read through ``FileBytes``."""
    return FileBytes(io.BytesIO(data), 0, len(data))


def make_stack(blobs) -> LayerStack:
    """A stack of in-memory layers from their stored blobs, base first. The
    blobs are ranges of one buffer that the stack owns, as it owns an image
    archive: closing the stack closes it."""
    archive = memory_bytes(b"".join(blobs))
    stack = LayerStack(layers=[], archive=archive)
    at = 0
    try:
        for blob in blobs:
            stack.layers.append(_layer_from_blob(archive.view(at, len(blob)), None))
            at += len(blob)
    except BaseException:
        stack.close()
        raise
    return stack


def default_config(layer_tars, **overrides) -> dict:
    cfg = {
        "architecture": "amd64",
        "os": "linux",
        "config": overrides.pop("config", {}),
        "rootfs": {"type": "layers", "diff_ids": [sha256(t) for t in layer_tars]},
    }
    cfg.update(overrides)
    return cfg


def _tar_add_bytes(tf: tarfile.TarFile, name: str, data: bytes) -> None:
    ti = tarfile.TarInfo(name=name)
    ti.size = len(data)
    ti.mode = 0o644
    tf.addfile(ti, io.BytesIO(data))


def make_docker_archive(layer_tars, config: dict | None = None, repo_tag="demo:latest") -> bytes:
    """Hand-rolled docker-save layout, independent of the package writer."""
    cfg = config if config is not None else default_config(layer_tars)
    cfg_bytes = json.dumps(cfg).encode()
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tf:
        layer_names = []
        for i, data in enumerate(layer_tars):
            name = f"layer{i}/layer.tar"
            layer_names.append(name)
            _tar_add_bytes(tf, name, data)
        _tar_add_bytes(tf, "config.json", cfg_bytes)
        manifest = [
            {
                "Config": "config.json",
                "RepoTags": [repo_tag] if repo_tag else [],
                "Layers": layer_names,
            }
        ]
        _tar_add_bytes(tf, "manifest.json", json.dumps(manifest).encode())
    return buf.getvalue()


def gzip_layer_blobs(layer_tars) -> list[tuple[bytes, str]]:
    """``make_oci_archive``'s ``layer_blobs`` that store each layer tar
    gzip-compressed, under the ``+gzip`` media type."""
    return [(gzip.compress(data, mtime=0), "application/vnd.oci.image.layer.v1.tar+gzip")
            for data in layer_tars]


def make_oci_archive(
    layer_tars,
    config: dict | None = None,
    ref="demo:latest",
    corrupt_layer: int | None = None,
    layer_blobs=None,
) -> bytes:
    """Hand-rolled OCI image layout inside a tar. ``layer_blobs`` holds
    each layer as stored and the media type its descriptor declares; by
    default each of ``layer_tars`` is stored as it is, under the ``…tar``
    media type. The config declares the diff_ids of ``layer_tars``."""
    cfg = config if config is not None else default_config(layer_tars)
    cfg_bytes = json.dumps(cfg).encode()
    if layer_blobs is None:
        layer_blobs = [(data, "application/vnd.oci.image.layer.v1.tar") for data in layer_tars]

    blobs: dict[str, bytes] = {}

    def add_blob(data: bytes) -> str:
        digest = sha256(data)
        blobs[digest] = data
        return digest

    layer_descs = []
    for i, (blob, media) in enumerate(layer_blobs):
        digest = add_blob(blob)
        if corrupt_layer == i:
            # Declared digest no longer matches the stored bytes.
            blobs[digest] = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        layer_descs.append({"mediaType": media, "digest": digest, "size": len(blob)})

    cfg_digest = add_blob(cfg_bytes)
    manifest = {
        "schemaVersion": 2,
        "mediaType": "application/vnd.oci.image.manifest.v1+json",
        "config": {
            "mediaType": "application/vnd.oci.image.config.v1+json",
            "digest": cfg_digest,
            "size": len(cfg_bytes),
        },
        "layers": layer_descs,
    }
    manifest_bytes = json.dumps(manifest).encode()
    manifest_digest = add_blob(manifest_bytes)

    index = {
        "schemaVersion": 2,
        "manifests": [
            {
                "mediaType": "application/vnd.oci.image.manifest.v1+json",
                "digest": manifest_digest,
                "size": len(manifest_bytes),
                "annotations": {"org.opencontainers.image.ref.name": ref},
            }
        ],
    }
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tf:
        _tar_add_bytes(tf, "oci-layout", json.dumps({"imageLayoutVersion": "1.0.0"}).encode())
        _tar_add_bytes(tf, "index.json", json.dumps(index).encode())
        for digest, data in blobs.items():
            alg, hexd = digest.split(":", 1)
            _tar_add_bytes(tf, f"blobs/{alg}/{hexd}", data)
    return buf.getvalue()


# --- canonical fixtures -------------------------------------------------------


def shell_chain_members(extra=()):
    """The sh/dash/bin-symlink rootfs used throughout: /bin -> usr/bin,
    /usr/bin/sh -> dash, dash a real executable."""
    members = [
        {"path": "/usr", "kind": "directory"},
        {"path": "/usr/bin", "kind": "directory"},
        {"path": "/usr/bin/dash", "kind": "regular", "mode": 0o755, "data": b"dash binary"},
        {"path": "/usr/bin/sh", "kind": "symlink", "target": "dash"},
        {"path": "/usr/bin/perl", "kind": "regular", "mode": 0o755, "data": b"perl binary"},
        {"path": "/bin", "kind": "symlink", "target": "usr/bin"},
        {"path": "/etc", "kind": "directory"},
        {"path": "/etc/hosts", "kind": "regular", "mode": 0o644, "data": b"127.0.0.1 localhost\n"},
        {"path": "/opt", "kind": "directory"},
        {"path": "/opt/tool", "kind": "regular", "mode": 0o755, "data": b"not in search dirs"},
    ]
    members.extend(extra)
    return members


# --- synthetic ELF builder ----------------------------------------------------

_DT_NEEDED = 1
_DT_STRTAB = 5
_DT_STRSZ = 10
_DT_RPATH = 15
_DT_RUNPATH = 29


def make_elf(
    needed=(),
    interp=None,
    rpath=None,
    runpath=None,
    elf_class=64,
    little_endian=True,
    dynamic=True,
    filler=b"",
    gap=0,
) -> bytes:
    """Minimal valid ELF with the given dynamic-linking facts; ``gap`` NULs
    between the ELF header and the program headers move those and all that
    follows them that far into the file."""
    end = "<" if little_endian else ">"
    is64 = elf_class == 64
    ehsize = 64 if is64 else 52
    phentsize = 56 if is64 else 32
    dyn_entry_size = 16 if is64 else 8
    vbase = 0x400000

    strtab = bytearray(b"\x00")

    def add_str(s: str) -> int:
        off = len(strtab)
        strtab.extend(s.encode() + b"\x00")
        return off

    needed_offs = [add_str(n) for n in needed]
    rpath_off = add_str(rpath) if rpath else None
    runpath_off = add_str(runpath) if runpath else None

    dyn_entries = [(_DT_NEEDED, off) for off in needed_offs]
    if rpath_off is not None:
        dyn_entries.append((_DT_RPATH, rpath_off))
    if runpath_off is not None:
        dyn_entries.append((_DT_RUNPATH, runpath_off))

    interp_bytes = (interp.encode() + b"\x00") if interp else b""
    phnum = 1 + (1 if dynamic else 0) + (1 if interp else 0)
    phoff = ehsize + gap
    off_interp = phoff + phnum * phentsize
    off_dyn = off_interp + len(interp_bytes)
    n_dyn = (len(dyn_entries) + 3) if dynamic else 0  # + STRTAB, STRSZ, NULL
    off_strtab = off_dyn + n_dyn * dyn_entry_size
    total = off_strtab + len(strtab) + len(filler)

    def phdr(p_type, offset, size) -> bytes:
        if is64:
            return struct.pack(end + "IIQQQQQQ", p_type, 5, offset, vbase + offset, vbase + offset, size, size, 0x1000)
        return struct.pack(end + "IIIIIIII", p_type, offset, vbase + offset, vbase + offset, size, size, 5, 0x1000)

    phdrs = [phdr(1, 0, total)]  # PT_LOAD over the whole file
    if interp:
        phdrs.append(phdr(3, off_interp, len(interp_bytes)))
    if dynamic:
        phdrs.append(phdr(2, off_dyn, n_dyn * dyn_entry_size))

    dyn = bytearray()
    if dynamic:
        fmt = end + ("qQ" if is64 else "iI")
        for tag, val in dyn_entries:
            dyn += struct.pack(fmt, tag, val)
        dyn += struct.pack(fmt, _DT_STRTAB, vbase + off_strtab)
        dyn += struct.pack(fmt, _DT_STRSZ, len(strtab))
        dyn += struct.pack(fmt, 0, 0)

    ident = b"\x7fELF" + bytes([2 if is64 else 1, 1 if little_endian else 2, 1, 0]) + b"\x00" * 8
    if is64:
        ehdr = ident + struct.pack(
            end + "HHIQQQIHHHHHH", 3, 0x3E, 1, vbase, phoff, 0, 0, 64, phentsize, phnum, 0, 0, 0
        )
    else:
        ehdr = ident + struct.pack(
            end + "HHIIIIIHHHHHH", 3, 0x03, 1, vbase, phoff, 0, 0, 52, phentsize, phnum, 0, 0, 0
        )

    out = ehdr + bytes(gap) + b"".join(phdrs) + interp_bytes + bytes(dyn) + bytes(strtab) + filler
    assert len(out) == total
    return out


# --- flatten oracle -----------------------------------------------------------


def sequential_apply_oracle(layer_tars, dest: str) -> None:
    """Apply layers to a scratch directory the way a runtime would."""
    os.umask(0o022)
    for data in layer_tars:
        with tarfile.open(fileobj=io.BytesIO(data)) as tf:
            members = tf.getmembers()
            for m in members:
                base = posixpath.basename(m.name.rstrip("/"))
                parent = os.path.join(dest, posixpath.dirname(m.name.rstrip("/")))
                if base == ".wh..wh..opq":
                    if os.path.isdir(parent):
                        for child in os.listdir(parent):
                            full = os.path.join(parent, child)
                            if os.path.isdir(full) and not os.path.islink(full):
                                shutil.rmtree(full)
                            else:
                                os.unlink(full)
                elif base.startswith(".wh."):
                    target = os.path.join(parent, base[len(".wh."):])
                    if os.path.lexists(target):
                        if os.path.isdir(target) and not os.path.islink(target):
                            shutil.rmtree(target)
                        else:
                            os.unlink(target)
            for m in members:
                base = posixpath.basename(m.name.rstrip("/"))
                if base.startswith(".wh."):
                    continue
                target = os.path.join(dest, m.name)
                if os.path.lexists(target):
                    existing_dir = os.path.isdir(target) and not os.path.islink(target)
                    if existing_dir and not m.isdir():
                        shutil.rmtree(target)
                    elif not existing_dir and not (m.isdir() and existing_dir):
                        os.unlink(target)
                tf.extract(m, dest)


def snapshot_dir(dest: str) -> dict:
    """Map of the scratch directory: path -> (kind, mode, payload)."""
    out = {}
    for root, dirs, files in os.walk(dest):
        for name in dirs + files:
            full = os.path.join(root, name)
            rel = "/" + os.path.relpath(full, dest).replace(os.sep, "/")
            st = os.lstat(full)
            mode = st.st_mode & 0o7777
            if os.path.islink(full):
                out[rel] = ("symlink", None, os.readlink(full))
            elif os.path.isdir(full):
                out[rel] = ("directory", mode, None)
            else:
                with open(full, "rb") as fh:
                    out[rel] = ("regular", mode, fh.read())
    return out


def content_bytes(rootfs) -> dict:
    """Each regular file of ``rootfs`` and its bytes, read whole."""
    return {path: rootfs.data_for(path)[:] for path, rec in rootfs.entries.items()
            if rec.kind == "regular"}


def flattened_snapshot(rootfs) -> dict:
    """The flattened model in the oracle's snapshot shape."""
    out = {}
    for path, rec in rootfs.entries.items():
        if rec.kind == "symlink":
            out[path] = ("symlink", None, rec.link_target)
        elif rec.kind == "directory":
            out[path] = ("directory", rec.mode & 0o7777, None)
        elif rec.kind == "regular":
            out[path] = ("regular", rec.mode & 0o7777, rootfs.data_for(path)[:])
        else:
            out[path] = (rec.kind, rec.mode & 0o7777, rec.link_target)
    return out


# --- naive symlink resolution oracle -------------------------------------------


def oracle_lookup(entries: dict, path: str, depth: int = 0):
    """Entry key that a spelling denotes, ancestors resolved. None on loops.

    ``entries`` is raw ground truth: path -> {"kind", "target"} dicts.
    """
    if depth > 80:
        return None
    if path == "/" or path == "":
        return "/"
    parent, _, base = path.rpartition("/")
    parent_phys = oracle_follow(entries, parent or "/", depth + 1)
    if parent_phys is None:
        return None
    if base == ".":
        return parent_phys
    if base == "..":
        return posixpath.dirname(parent_phys) or "/"
    return posixpath.join(parent_phys, base)


def oracle_follow(entries: dict, path: str, depth: int = 0):
    """Like oracle_lookup but also follows the final component to its entry."""
    if depth > 80:
        return None
    key = oracle_lookup(entries, path, depth + 1)
    hops = 0
    while key is not None and entries.get(key, {}).get("kind") == "symlink":
        hops += 1
        if hops > 80:
            return None
        target = entries[key]["target"]
        if not target.startswith("/"):
            target = posixpath.normpath(posixpath.join(posixpath.dirname(key), target))
        key = oracle_lookup(entries, target, depth + 1)
    return key


def oracle_one_hop(entries: dict, spelling: str):
    """One resolution step of a spelling, or None when it is not a symlink."""
    key = oracle_lookup(entries, spelling)
    if key is None:
        return None
    rec = entries.get(key)
    if rec is None or rec.get("kind") != "symlink":
        return None
    target = rec["target"]
    if not target.startswith("/"):
        target = posixpath.normpath(posixpath.join(posixpath.dirname(key), target))
    return target


def oracle_walk(entries: dict, start: str) -> list[str]:
    """Iterated one-hop resolution from a path spelling; stops before revisits."""
    seq = [start]
    seen = {start}
    current = start
    while True:
        key = oracle_lookup(entries, current)
        if key is None or key not in entries:
            return seq  # dangling terminal
        if entries[key]["kind"] != "symlink":
            return seq
        nxt = oracle_one_hop(entries, current)
        if nxt is None or nxt in seen:
            return seq
        seq.append(nxt)
        seen.add(nxt)
        current = nxt
    return seq


def oracle_alias_closure(entries: dict, initial_paths) -> set:
    """All spellings reachable by substituting one ancestor per step.

    An ancestor that is a symlink entry substitutes to its target; an
    ancestor that is the target of symlink entries substitutes to each
    source. Spellings must denote an existing non-directory.
    """
    links = {
        path: (
            rec["target"]
            if rec["target"].startswith("/")
            else posixpath.normpath(posixpath.join(posixpath.dirname(path), rec["target"]))
        )
        for path, rec in entries.items()
        if rec.get("kind") == "symlink"
    }
    seen = set(initial_paths)
    frontier = list(initial_paths)
    while frontier:
        p = frontier.pop()
        ancestors = []
        d = posixpath.dirname(p)
        while d and d != "/":
            ancestors.append(d)
            d = posixpath.dirname(d)
        for d in ancestors:
            subs = []
            if d in links:
                subs.append(links[d])
            else:
                subs.extend(src for src, t in links.items() if t == d)
            for r in subs:
                q = r + p[len(d):]
                if q == p or q in seen:
                    continue
                key = oracle_lookup(entries, q)
                if key is None or key not in entries or entries[key]["kind"] == "directory":
                    continue
                seen.add(q)
                frontier.append(q)
    return seen


def oracle_command_start(entries: dict, name: str, search_dirs) -> str | None:
    """Where a bare command name lands (mirrors the documented lookup contract).

    A search directory counts as the directory ``oracle_follow`` resolves it
    to. The first directory, in search order, that holds ``name`` as an
    executable file or hardlink, or as a symlink that ``oracle_follow`` does
    not resolve to a directory, gives ``directory/name``.
    """
    def is_directory(physical):
        return physical == "/" or entries.get(physical, {}).get("kind") == "directory"

    directories = []
    for d in search_dirs:
        physical = oracle_follow(entries, "/" + "/".join(c for c in d.split("/") if c))
        if physical is not None and entries.get(physical, {}).get("kind") == "directory":
            directories.append(physical)
    for directory in directories:
        path = posixpath.join(directory, name)
        rec = entries.get(path)
        if rec is not None and (rec["kind"] == "symlink" and not is_directory(oracle_follow(entries, path)) or (
                rec["kind"] in ("regular", "hardlink") and rec.get("mode", 0o755) & 0o111)):
            return path
    return None


# --- random symlink forest generator -------------------------------------------


def random_symlink_rootfs(rng) -> tuple[dict, list[str], list[str]]:
    """Ground-truth entries for a random rootfs with symlink chains <= 6 hops,
    including injected cycles, dangling targets, alias directories, a search
    directory behind a linked ancestor (``/usr/local -> /opt/local``) and
    commands shadowed by a file of the same name, executable or not, in
    another search directory.

    Returns (entries, command_names, search_dirs); entries is path -> {kind,
    mode, target, data} and is the oracle's source of truth. search_dirs are
    the default search directories in random order, one of them sometimes
    spelled another way (a trailing or doubled ``/``, relative, ``.`` or
    ``..``).
    """
    entries = {
        "/usr": {"kind": "directory", "mode": 0o755},
        "/usr/bin": {"kind": "directory", "mode": 0o755},
        "/usr/sbin": {"kind": "directory", "mode": 0o755},
        "/data": {"kind": "directory", "mode": 0o755},
    }
    alias_of: dict[str, str] = {}
    if rng.random() < 0.6:
        entries["/bin"] = {"kind": "symlink", "mode": 0o777, "target": rng.choice(["usr/bin", "/usr/bin"])}
        alias_of["/usr/bin"] = "/bin"
    else:
        entries["/bin"] = {"kind": "directory", "mode": 0o755}
    if rng.random() < 0.4:
        entries["/sbin"] = {"kind": "symlink", "mode": 0o777, "target": "/usr/sbin"}
        alias_of["/usr/sbin"] = "/sbin"
    else:
        entries["/sbin"] = {"kind": "directory", "mode": 0o755}

    if rng.random() < 0.4:
        for d in ("/opt", "/opt/local", "/opt/local/bin"):
            entries[d] = {"kind": "directory", "mode": 0o755}
        entries["/usr/local"] = {"kind": "symlink", "mode": 0o777, "target": rng.choice(["../opt/local", "/opt/local"])}
        alias_of["/opt/local/bin"] = "/usr/local/bin"

    real_dirs = [d for d in ("/bin", "/sbin", "/usr/bin", "/usr/sbin", "/opt/local/bin")
                 if entries.get(d, {}).get("kind") == "directory"]

    def add_file(path: str) -> None:
        entries[path] = {"kind": "regular", "mode": 0o755, "data": b"x" * rng.randrange(1, 16)}

    commands = []
    for i in range(rng.randrange(1, 16)):
        name = f"cmd{i}"
        commands.append(name)
        home = rng.choice(real_dirs)
        first = home + "/" + name
        hops = rng.randrange(0, 6)
        if hops == 0:
            add_file(first)
            continue
        fate = rng.random()
        cur = first
        for h in range(hops):
            is_last = h == hops - 1
            if is_last and fate < 0.10:
                entries[cur] = {"kind": "symlink", "mode": 0o777, "target": f"/missing/gone{i}"}
                break
            if is_last and fate < 0.20 and h >= 1:
                entries[cur] = {"kind": "symlink", "mode": 0o777, "target": first}
                break
            nxt_dir = rng.choice(real_dirs)
            nxt = f"{nxt_dir}/t{i}_{h}"
            spellings = [nxt]
            if nxt_dir in alias_of:
                spellings.append(alias_of[nxt_dir] + "/" + posixpath.basename(nxt))
            if nxt_dir == posixpath.dirname(cur):
                spellings.append(posixpath.basename(nxt))
            entries[cur] = {"kind": "symlink", "mode": 0o777, "target": rng.choice(spellings)}
            if is_last:
                add_file(nxt)
            cur = nxt

    for name in rng.sample(commands, k=rng.randrange(0, len(commands) + 1)):
        shadow = rng.choice(real_dirs) + "/" + name
        if shadow not in entries:
            add_file(shadow)
            entries[shadow]["mode"] = rng.choice([0o644, 0o755])

    for j in range(rng.randrange(0, 4)):
        entries[f"/data/extra{j}"] = {
            "kind": "regular",
            "mode": rng.choice([0o644, 0o755]),
            "data": b"d",
        }

    search_dirs = rng.sample(DEFAULT_SEARCH_DIRS, k=len(DEFAULT_SEARCH_DIRS))
    if rng.random() < 0.6:
        i = rng.randrange(len(search_dirs))
        d = search_dirs[i]
        search_dirs[i] = rng.choice([d + "/", "/" + d, d.replace("/", "//"), d[1:], d + "/.",
                                     d + "/../" + posixpath.basename(d)])
    return entries, commands, search_dirs


def rootfs_from_ground_truth(entries: dict):
    """Materialize raw ground truth into a FlattenedRootfs."""
    from staticslim.imageio import FileRecord, FlattenedRootfs

    records = {}
    for path in sorted(entries):
        g = entries[path]
        regular = g["kind"] == "regular"
        data = g.get("data", b"")
        records[path] = FileRecord(
            path=path,
            kind=g["kind"],
            mode=g.get("mode", 0o755),
            size=len(data) if regular else 0,
            link_target=g.get("target"),
            data=data if regular else None,
        )
    total = sum(r.size for r in records.values() if r.kind == "regular")
    return FlattenedRootfs(entries=records, total_size=total)


# --- running the CLI in process ----------------------------------------------


@dataclass
class CliResult:
    """One CLI run: what it wrote to each stream, both streams interleaved
    in write order (``output``), its exit code and the exception that ended
    it (the ``SystemExit`` of a non-zero exit, or any other exception)."""

    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Capture(io.TextIOBase):
    """A text stream that appends each write, tagged with its name, to a
    list both streams share."""

    encoding = "utf-8"

    def __init__(self, writes: list, name: str):
        self.writes, self.name = writes, name

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if not isinstance(text, str):
            raise TypeError(f"write() argument must be str, not {type(text).__name__}")
        self.writes.append((self.name, text))
        return len(text)


def run_cli(args) -> CliResult:
    """Run ``staticslim`` with ``args`` as a user would from a shell, with
    standard output and error captured."""
    from staticslim.cli import main

    writes: list[tuple[str, str]] = []
    code, exception = 0, None
    with contextlib.redirect_stdout(_Capture(writes, "stdout")), \
            contextlib.redirect_stderr(_Capture(writes, "stderr")):
        try:
            main(list(args), prog_name="staticslim")
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(
        exit_code=code,
        stdout="".join(text for name, text in writes if name == "stdout"),
        stderr="".join(text for name, text in writes if name == "stderr"),
        output="".join(text for _, text in writes),
        exception=exception,
    )


@pytest.fixture
def shell_rootfs():
    from staticslim.imageio import flatten_layers

    return flatten_layers(make_stack([make_layer_tar(shell_chain_members())]))
