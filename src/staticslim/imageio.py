"""The image model: an image archive's layers, their union and the slim image.

Reads the docker-save layout (top-level ``manifest.json``) and the OCI
image layout (``oci-layout`` / ``index.json`` / ``blobs``) and writes either
(OCI by default). Each layer is a range of the archive, read in place, and
its tar stream is made once, at load. The layers flatten into one rootfs
model with union-filesystem semantics, in which a regular file's record
holds its range of its layer's tar stream. Which tar member type each
entry kind is read from and written as is decided here alone; the tar
format itself is ``tarcodec``'s, and reading and spooling bytes ``streams``'.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import json
import logging
import posixpath
from contextlib import closing
from dataclasses import dataclass, field
from tarfile import (
    AREGTYPE,
    BLKTYPE,
    BLOCKSIZE,
    CHRTYPE,
    DIRTYPE,
    FIFOTYPE,
    GNUTYPE_SPARSE,
    LNKTYPE,
    REGTYPE,
    SYMTYPE,
)
from typing import Iterable, NamedTuple

from .errors import (
    EmptyImageError,
    ImageFormatError,
    IntegrityError,
    LayerSecurityError,
    OversizedFileError,
    UnsupportedFormatError,
)
from .streams import FileBytes, sha256_digest, spool_layer, uncompressed
from .tarcodec import NO_DATA_TYPES, TarHeader, TarHeaderError, gnu_header, read_tar_headers, tar_stream

log = logging.getLogger(__name__)

WHITEOUT_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"

MEDIA_MANIFEST = frozenset(
    {
        "application/vnd.oci.image.manifest.v1+json",
        "application/vnd.docker.distribution.manifest.v2+json",
    }
)
MEDIA_INDEX = frozenset(
    {
        "application/vnd.oci.image.index.v1+json",
        "application/vnd.docker.distribution.manifest.list.v2+json",
    }
)
# The layer media types an OCI manifest may declare; a layer is decoded by its bytes.
MEDIA_LAYER = frozenset(
    {
        "application/vnd.oci.image.layer.v1.tar",
        "application/vnd.oci.image.layer.v1.tar+gzip",
        "application/vnd.docker.image.rootfs.diff.tar",
        "application/vnd.docker.image.rootfs.diff.tar.gzip",
    }
)

# FileRecord.kind values.
KIND_REGULAR = "regular"
KIND_DIRECTORY = "directory"
KIND_SYMLINK = "symlink"
KIND_HARDLINK = "hardlink"
KIND_DEVICE = "device"
KIND_FIFO = "fifo"

# The FileRecord.kind of each tar member type a layer may hold.
_TAR_KIND = {
    REGTYPE: KIND_REGULAR,
    AREGTYPE: KIND_REGULAR,
    GNUTYPE_SPARSE: KIND_REGULAR,
    DIRTYPE: KIND_DIRECTORY,
    SYMTYPE: KIND_SYMLINK,
    LNKTYPE: KIND_HARDLINK,
    CHRTYPE: KIND_DEVICE,
    BLKTYPE: KIND_DEVICE,
    FIFOTYPE: KIND_FIFO,
}
# The tar member type each FileRecord.kind is written as: the first above
# that reads as it. A block device is written as BLKTYPE (``tar_member``).
_KIND_TAR = {kind: type_ for type_, kind in reversed(_TAR_KIND.items())}


# How the JSON type of a member of an image document is named, by the
# kind ``_typed`` checks it against.
_STRINGS = "a list of strings"
_OBJECTS = "a list of objects"
_KIND_NAMES = {dict: "an object", str: "a string", _STRINGS: _STRINGS, _OBJECTS: _OBJECTS}

# The members of a config's "config" object that staticslim reads, and
# the kind of each.
_CONFIG_FIELDS = (("Entrypoint", _STRINGS), ("Cmd", _STRINGS), ("Env", _STRINGS),
                  ("ExposedPorts", dict), ("Labels", dict), ("WorkingDir", str))


def _fits(value, kind) -> bool:
    if kind in (_STRINGS, _OBJECTS):
        item = str if kind is _STRINGS else dict
        return isinstance(value, list) and all(isinstance(v, item) for v in value)
    return isinstance(value, kind)


def _typed(obj: dict, key: str, kind, what: str):
    """``obj[key]``, or None when it is absent or null; an ``ImageFormatError``
    naming ``what`` unless it is a ``kind``: ``dict``, ``str``, ``_STRINGS``
    or ``_OBJECTS``."""
    value = obj.get(key)
    if value is not None and not _fits(value, kind):
        raise ImageFormatError(f"{what}: {key} is not {_KIND_NAMES[kind]}")
    return value


def _not_json(constant: str):
    """Refuse ``NaN`` and ``Infinity``, which ``json`` reads but JSON lacks."""
    raise ValueError(f"{constant} is not a JSON value")


def _json_member(view: FileBytes, what: str, kind):
    """The JSON document in the archive member ``view``; an
    ``ImageFormatError`` naming ``what`` unless it parses and is a
    ``kind`` (as for ``_typed``)."""
    try:
        document = json.loads(view[:], parse_constant=_not_json)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and deep nesting too
        raise ImageFormatError(f"{what} is not JSON: {exc}") from exc
    if not _fits(document, kind):
        raise ImageFormatError(f"{what} is not {_KIND_NAMES[kind]}")
    return document


@dataclass(frozen=True)
class ImageMetadata:
    """The input image's reference and config, carried to the slim image.

    ``reference`` is ``RepoTags[0]`` or the OCI ref.name annotation, or "",
    and ``config`` the image config object, both as they were read. The
    slim image's config is ``config`` with ``rootfs`` naming the one slim layer and
    ``history``, whose entries describe the input's layers, dropped
    (``_config_json``); every other field, ``User``, ``Healthcheck`` and
    ``StopSignal`` among them, is carried as it is. The type of each field
    staticslim reads is checked here, once: ``architecture`` and ``os`` are
    non-empty strings; ``Entrypoint``, ``Cmd`` and ``Env`` lists of
    strings; ``ExposedPorts`` and ``Labels`` objects; ``WorkingDir`` a
    string; anything else is an ``ImageFormatError``. The other attributes
    are read-only views of those fields, never copies.
    """

    reference: str
    config: dict

    def __post_init__(self):
        for key in ("architecture", "os"):
            if not _typed(self.config, key, str, "image config"):
                raise ImageFormatError(f"image config has an empty {key}")
        fields = _typed(self.config, "config", dict, "image config") or {}
        for key, kind in _CONFIG_FIELDS:
            _typed(fields, key, kind, "image config")
        rootfs = _typed(self.config, "rootfs", dict, "image config") or {}
        _typed(rootfs, "diff_ids", _STRINGS, "image config rootfs")

    @property
    def _fields(self) -> dict:
        return self.config.get("config") or {}

    @property
    def architecture(self) -> str:
        return self.config["architecture"]

    @property
    def os(self) -> str:
        return self.config["os"]

    @property
    def exposed_ports(self):
        """The exposed ports, as the keys of the ``ExposedPorts`` object."""
        return (self._fields.get("ExposedPorts") or {}).keys()

    @property
    def env_vars(self) -> list[str]:
        return self._fields.get("Env") or []

    @property
    def entrypoint(self) -> list[str] | None:
        return self._fields.get("Entrypoint")

    @property
    def cmd(self) -> list[str] | None:
        return self._fields.get("Cmd")

    @property
    def working_dir(self) -> str | None:
        return self._fields.get("WorkingDir") or None


@dataclass(frozen=True)
class LayerBlob:
    """One layer: its diff_id, its blob as stored (``source``, a range of
    the image archive) and its tar stream, which is ``source`` or a spool
    of what it decompresses to that ``close`` closes. Both are read as
    ``bytes`` slices; neither is held in memory."""

    diff_id: str
    source: FileBytes = field(repr=False, compare=False)
    tar: FileBytes = field(repr=False, compare=False)

    @property
    def data(self) -> bytes:
        """The stored blob, read whole."""
        return self.source[:]

    def close(self) -> None:
        if self.tar is not self.source:
            self.tar.close()


@dataclass
class LayerStack:
    """Ordered layers, base first, and the image archive file (or a spool of
    it) whose ranges they are. The stack owns that file and the layers'
    spools: ``close`` closes them, after which reading a file of a rootfs
    flattened from the stack raises ``ValueError``. It is a context manager
    that closes on exit."""

    layers: list[LayerBlob]
    archive: FileBytes | None = field(default=None, repr=False)

    @property
    def diff_ids(self) -> list[str]:
        return [layer.diff_id for layer in self.layers]

    def close(self) -> None:
        for layer in self.layers:
            layer.close()
        if self.archive is not None:
            self.archive.close()

    def __enter__(self) -> LayerStack:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _SparseFile(NamedTuple):
    """A GNU sparse file of a layer: ``regions``, its map of (offset,
    length) pairs, are stored in turn in ``tar`` from ``offset``, and the
    holes between them read as NULs up to ``size``."""

    path: str
    tar: FileBytes
    offset: int
    size: int
    regions: tuple[tuple[int, int], ...]

    def layout(self) -> bytearray:
        """The file's bytes, its stored regions laid out over NUL holes; one
        too large for memory raises ``OversizedFileError``."""
        try:
            data = bytearray(self.size)
        except (MemoryError, OverflowError):
            raise OversizedFileError(
                f"{self.path}: a sparse file of {self.size} bytes does not fit in memory") from None
        offset = self.offset
        for at, length in self.regions:
            data[at:at + length] = self.tar[offset:offset + length]
            offset += length
        return data


@dataclass(slots=True)
class FileRecord:
    """One entry of the flattened rootfs.

    Flatten builds each record once, and nothing assigns its fields after:
    a changed entry is a new record (``dataclasses.replace``). Records are
    slotted and not frozen because flatten builds one per tar member, and a
    frozen dataclass sets each field through ``object.__setattr__``.

    ``link_target`` keeps the raw tar linkname for symlinks (relative targets
    stay relative so they re-emit byte-identically); hardlink targets are
    normalized to an absolute in-rootfs path. ``data`` is a regular file's
    bytes: a sized range (anything with ``len()`` whose slices are bytes,
    such as its ``FileBytes`` view of its layer's tar stream, or ``bytes``)
    or, for a GNU sparse file, a ``_SparseFile``. Read it through
    ``FlattenedRootfs.data_for``.
    """

    path: str
    kind: str
    mode: int
    size: int = 0
    link_target: str | None = None
    uid: int = 0
    gid: int = 0
    mtime: int = 0
    uname: str = ""
    gname: str = ""
    devmajor: int = 0
    devminor: int = 0
    block_device: bool = False  # distinguishes the two device flavors
    data: FileBytes | _SparseFile | bytes | None = field(default=None, compare=False, repr=False)

    def is_executable(self) -> bool:
        # Linux ignores a symlink's own mode.
        return self.kind == KIND_SYMLINK or bool(self.mode & 0o111)


@dataclass
class FlattenedRootfs:
    """Union of all layers: the one model of the image file system.

    ``entries`` maps path -> record in path order; each regular file's
    record holds its bytes (``FileRecord.data``). ``flatten_layers`` gives
    each one a range of its layer's tar stream, so the rootfs holds no file
    bytes and its ``LayerStack`` must stay open while the ranges
    ``data_for`` gives are read. ``symlink_table`` maps each symlink entry
    to its absolute, normalized target and is derived from ``entries`` on
    construction.

    A rootfs is never mutated after construction; a different set of entries
    (such as the retained view a prune report counts, ``subset``) is a new
    object. The private cache ``_dir_cache`` relies on that and is filled on
    first use: it maps a directory spelling to its physical directory and
    the symlink hops crossed (``rootfs.resolve_entry``).
    """

    entries: dict[str, FileRecord]
    total_size: int = 0
    warnings: list[str] = field(default_factory=list)
    symlink_table: dict[str, str] = field(init=False, repr=False)
    _dir_cache: dict[str, tuple[str | None, tuple[str, ...]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.entries = dict(sorted(self.entries.items()))
        self.symlink_table = {}
        for path, rec in self.entries.items():
            if rec.kind == KIND_SYMLINK and rec.link_target is not None:
                target = rec.link_target
                if not target.startswith("/"):
                    # Relative targets resolve against the physical parent of
                    # the entry that carries the link.
                    target = posixpath.join(posixpath.dirname(path), target)
                self.symlink_table[path] = posixpath.normpath(target)

    def subset(self, paths) -> FlattenedRootfs:
        """The rootfs of only the entries at ``paths`` (a set): this one's
        records and symlink targets, already in path order and normalized,
        so neither is sorted or derived again."""
        view = copy.copy(self)
        view.entries = {path: rec for path, rec in self.entries.items() if path in paths}
        view.symlink_table = {path: target for path, target in self.symlink_table.items() if path in paths}
        view.total_size = sum(rec.size for rec in view.entries.values() if rec.kind == KIND_REGULAR)
        view._dir_cache = {}
        return view

    def data_for(self, path: str) -> FileBytes | bytes | bytearray:
        """The bytes of a regular file as a sized range, following
        hardlinks: ``len()`` gives its size and a slice reads that part
        (``data_for(path)[:]`` the whole file). A sparse file is laid out
        here (``_SparseFile.layout``). Once the stack of a flattened rootfs
        is closed, reading a range raises ``ValueError``, as does laying
        out a sparse file. A path that is not a regular file, nor a
        hardlink to one, raises ``KeyError``."""
        seen = set()
        rec = self.entries.get(path)
        while rec is not None and rec.kind == KIND_HARDLINK and path not in seen:
            seen.add(path)
            path = rec.link_target
            rec = self.entries.get(path)
        if rec is None or rec.kind != KIND_REGULAR:
            raise KeyError(path)
        return rec.data.layout() if isinstance(rec.data, _SparseFile) else rec.data

    @property
    def content(self) -> dict[str, FileBytes | bytes | bytearray]:
        """Each regular file's ``data_for`` by path, built from ``entries``
        on each call: a map for a reader that walks every file's bytes (the
        benchmark's trace of ``flatten_layers`` sums their sizes)."""
        return {path: self.data_for(path) for path, rec in self.entries.items()
                if rec.kind == KIND_REGULAR}


def tar_member(rootfs: FlattenedRootfs, path: str, carrier: str | None) -> tuple[bytes, object]:
    """The entry ``path`` of ``rootfs`` as a tar member for ``tar_stream``:
    its header blocks and its data, ``rootfs.data_for(path)`` for a regular
    file. ``carrier`` names the entry that carries the bytes of the entry's
    hardlink group, if it is in one: the entry is written as that regular
    file if it is the carrier, and as a hard link to it if not."""
    rec = rootfs.entries[path]
    kind = rec.kind if carrier is None else KIND_REGULAR if carrier == path else KIND_HARDLINK
    data = rootfs.data_for(path) if kind == KIND_REGULAR else b""
    linkname = ""
    if kind == KIND_SYMLINK:
        linkname = rec.link_target or ""
    elif kind == KIND_HARDLINK:
        linkname = (carrier or rec.link_target or "").lstrip("/")
    type_ = BLKTYPE if kind == KIND_DEVICE and rec.block_device else _KIND_TAR[kind]
    header = gnu_header(path.lstrip("/"), type_, rec.mode, rec.uid, rec.gid, len(data), rec.mtime,
                        linkname, rec.uname, rec.gname, rec.devmajor, rec.devminor)
    return header, data


def _clean_member_path(name: str) -> str | None:
    """Normalize a tar member name to an absolute rootfs path.

    Returns None for the root itself. Raises LayerSecurityError on ``..``
    traversal.
    """
    segments = [s for s in name.split("/") if s not in ("", ".")]
    if ".." in segments:
        raise LayerSecurityError(f"layer entry escapes the root: {name!r}")
    if not segments:
        return None
    return "/" + "/".join(segments)


def _delete_subtree(entries: dict, path: str) -> None:
    prefix = path + "/"
    for p in [p for p in entries if p == path or p.startswith(prefix)]:
        entries.pop(p, None)


def _ensure_parents(entries: dict[str, FileRecord], path: str) -> None:
    # ``path`` is clean and absolute (``_clean_member_path``), so its parent
    # is everything before the last "/", or "/" when that is empty.
    parent = path[:path.rfind("/")] or "/"
    missing = []
    while parent != "/" and parent not in entries:
        missing.append(parent)
        parent = parent[:parent.rfind("/")] or "/"
    for p in reversed(missing):
        entries[p] = FileRecord(path=p, kind=KIND_DIRECTORY, mode=0o755)


def _pop_range(entries: dict, keys: list[str], prefix: str) -> None:
    """Drop every path under ``prefix`` (which ends in "/") listed in ``keys``.

    ``keys`` is sorted and "0" is the character right after "/", so the keys
    that start with ``prefix`` are those from ``prefix`` up to, not
    including, ``prefix`` with its "/" replaced by "0".
    """
    lo = bisect.bisect_left(keys, prefix)
    hi = bisect.bisect_left(keys, prefix[:-1] + "0", lo)
    for p in keys[lo:hi]:
        entries.pop(p, None)


def _apply_layer(index: int, members: list[TarHeader], tar: FileBytes, entries: dict,
                 warnings: list[str]) -> None:
    """Apply the members of one layer to the flattened state in place.

    A regular file's record holds its range of ``tar``, the layer's tar
    stream, or a ``_SparseFile`` of it. No member's data is read.
    """
    paths = []  # each member's clean path; None for the root and for whiteouts
    whiteouts = []  # (parent, name) of the whiteouts and opaque markers
    for m in members:
        path = _clean_member_path(m.name)
        if path is not None:
            parent, _, base = path.rpartition("/")
            if base.startswith(WHITEOUT_PREFIX):
                whiteouts.append((parent or "/", base))
                path = None
        paths.append(path)

    # Whiteouts of this layer act on the state built from lower layers: each
    # removes a key range of that state in sorted order. The popped keys stay
    # in the sorted list; popping them again is a no-op.
    if whiteouts:
        keys = sorted(entries)
        for parent, base in whiteouts:
            if base == OPAQUE_MARKER:
                _pop_range(entries, keys, parent.rstrip("/") + "/")
            else:
                target = posixpath.join(parent, base[len(WHITEOUT_PREFIX):])
                entries.pop(target, None)
                _pop_range(entries, keys, target + "/")

    for (_, type_, mode, uid, gid, size, mtime, linkname, uname, gname, devmajor, devminor,
         offset_data, sparse), path in zip(members, paths):
        if path is None:
            continue
        kind = _TAR_KIND.get(type_)
        if kind is None:
            msg = f"layer {index}: unknown tar entry type {type_!r} for {path}, skipped"
            log.warning(msg)
            warnings.append(msg)
            continue

        existing = entries.get(path)
        if existing is not None and existing.kind == KIND_DIRECTORY and kind != KIND_DIRECTORY:
            _delete_subtree(entries, path)

        link_target = data = None
        if kind == KIND_SYMLINK:
            link_target = linkname
        elif kind == KIND_HARDLINK:
            link_target = _clean_member_path(linkname)
        elif kind == KIND_REGULAR:
            data = (tar.view(offset_data, size) if sparse is None
                    else _SparseFile(path, tar, offset_data, size, sparse))

        # Built positionally, in field order: keywords cost more, once per member.
        record = FileRecord(path, kind, mode, size if kind == KIND_REGULAR else 0, link_target,
                            uid, gid, int(mtime), uname, gname, devmajor, devminor,
                            type_ == BLKTYPE, data)
        _ensure_parents(entries, path)
        entries[path] = record


def flatten_layers(stack: LayerStack) -> FlattenedRootfs:
    """Apply all layers in order with whiteout/opaque semantics.

    Cost per layer: no decompression (``load_image_archive`` made each
    layer's tar stream), one ``read_tar_headers`` pass over the headers (one
    ``struct`` unpack, one byte sum and a few number decodes per header; no
    ``TarInfo``), which reads the header, pax and long-name blocks alone,
    and, only when the layer has whiteouts or opaque markers, one sort of
    the lower state's paths plus a bisect per marker; the paths a marker
    removes are the only ones it touches. A directory replaced by a
    non-directory still scans the whole state for its subtree.

    Memory: the entries, each regular file's record holding its range of
    its layer's tar stream (a ``FileBytes`` view, or a ``_SparseFile`` with
    its sparse map); no file's bytes are read here. A range is read when it
    is sliced, while ``stack`` is open; reading it raises ``ValueError``
    once the stack is closed.
    """
    entries: dict[str, FileRecord] = {}
    warnings: list[str] = []

    for index, layer in enumerate(stack.layers):
        try:
            _apply_layer(index, list(read_tar_headers(layer.tar)), layer.tar, entries, warnings)
        except TarHeaderError as exc:
            raise ImageFormatError(f"layer {index}: not a readable tar stream: {exc}") from exc

    total = sum(r.size for r in entries.values() if r.kind == KIND_REGULAR)
    return FlattenedRootfs(entries=entries, total_size=total, warnings=warnings)


def _member_key(name: str) -> str:
    while name.startswith("./"):
        name = name[2:]
    return name.lstrip("/")


def _archive_members(archive) -> dict[str, TarHeader]:
    """The members of the image archive by name; the last of a name wins. A
    sparse member is refused: its bytes are not one slice of the archive."""
    headers = list(read_tar_headers(archive))
    if any(m.sparse is not None for m in headers):
        raise TarHeaderError("the archive holds a GNU sparse member")
    return {_member_key(m.name): m for m in headers}


def _member_view(archive: FileBytes, members: dict[str, TarHeader], name: str) -> FileBytes:
    """A member's range of the archive, which reads nothing. A symlink or
    hardlink gives its target's, found by name as tarfile finds it when it
    extracts a member: a symlink's target is joined to the link's
    directory."""
    member = members.get(_member_key(name))
    if member is None:
        raise ImageFormatError(f"archive is missing member {name!r}")
    hops = 0  # more hops than members means a cycle
    while member.type in (SYMTYPE, LNKTYPE) and hops <= len(members):
        target = member.linkname
        if member.type == SYMTYPE:
            target = "/".join(filter(None, (posixpath.dirname(member.name), target)))
        member = members.get(_member_key(posixpath.normpath(target)))
        if member is None:
            raise ImageFormatError(f"archive member {name!r} links to a missing member")
        hops += 1
    if member.type in NO_DATA_TYPES:
        raise ImageFormatError(f"archive member {name!r} is not a readable file")
    return archive.view(member.offset_data, member.size)


def _layer_from_blob(source: FileBytes, verified_digest: str | None) -> LayerBlob:
    """One layer, decoded by its bytes whatever media type it declares;
    ``source`` is the blob as stored and ``verified_digest`` the digest
    ``_read_blob`` checked it against, or None. The diff_id is the digest
    of the decoded stream, or of the blob when it is its own tar stream."""
    tar, diff_id = uncompressed(source)
    return LayerBlob(diff_id or verified_digest or sha256_digest(source), source, tar)


def _add_layers(stack: LayerStack, blobs, cfg: dict) -> None:
    """Add the layers of (source, verified digest or None) pairs to
    ``stack``, base first, and check them against the diff_ids the config
    declares."""
    for index, (source, verified_digest) in enumerate(blobs):
        try:
            stack.layers.append(_layer_from_blob(source, verified_digest))
        except TarHeaderError as exc:
            raise ImageFormatError(f"layer {index}: not a readable tar stream: {exc}") from exc
    declared = (cfg.get("rootfs") or {}).get("diff_ids") or []
    if declared and declared != stack.diff_ids:
        raise IntegrityError(
            f"rootfs diff_ids mismatch: config declares {declared}, layers are {stack.diff_ids}"
        )


def _load_docker_layout(archive: FileBytes, members: dict, stack: LayerStack) -> ImageMetadata:
    manifest = _json_member(_member_view(archive, members, "manifest.json"), "manifest.json", _OBJECTS)
    if not manifest:
        raise ImageFormatError("manifest.json is not a non-empty list")
    if len(manifest) > 1:
        raise UnsupportedFormatError("multi-image archives are not supported")
    entry = manifest[0]

    config_name = _typed(entry, "Config", str, "manifest.json entry")
    if not config_name:
        raise ImageFormatError("manifest.json entry has no Config member")
    cfg = _json_member(_member_view(archive, members, config_name), config_name, dict)

    repo_tags = _typed(entry, "RepoTags", _STRINGS, "manifest.json entry") or []
    metadata = ImageMetadata(repo_tags[0] if repo_tags else "", cfg)

    layers = _typed(entry, "Layers", _STRINGS, "manifest.json entry") or []
    _add_layers(stack, [(_member_view(archive, members, name), None) for name in layers], cfg)
    return metadata


def _digest_of(descriptor: dict, what: str) -> str:
    digest = _typed(descriptor, "digest", str, what)
    if not digest:
        raise ImageFormatError(f"{what} has no digest")
    return digest


def _load_oci_layout(archive: FileBytes, members: dict, stack: LayerStack) -> ImageMetadata:
    index = _json_member(_member_view(archive, members, "index.json"), "index.json", dict)
    if index.get("schemaVersion") != 2:
        raise UnsupportedFormatError(
            f"unsupported index schemaVersion {index.get('schemaVersion')!r}"
        )
    manifests = _typed(index, "manifests", _OBJECTS, "index.json") or []
    if not manifests:
        raise ImageFormatError("index.json lists no manifests")
    desc = manifests[0]
    media = _typed(desc, "mediaType", str, "index.json manifest") or ""
    if media in MEDIA_INDEX:
        raise UnsupportedFormatError("multi-platform manifest lists are not supported")
    if media not in MEDIA_MANIFEST:
        raise UnsupportedFormatError(f"unknown manifest media type {media!r}")

    annotations = _typed(desc, "annotations", dict, "index.json manifest") or {}
    ref = _typed(annotations, "org.opencontainers.image.ref.name", str, "index.json manifest") or ""

    digest = _digest_of(desc, "index.json manifest")
    manifest = _json_member(_read_blob(archive, members, digest), "image manifest", dict)
    if manifest.get("schemaVersion") != 2:
        raise UnsupportedFormatError(
            f"unsupported manifest schemaVersion {manifest.get('schemaVersion')!r}"
        )

    cfg_desc = _typed(manifest, "config", dict, "image manifest") or {}
    digest = _digest_of(cfg_desc, "image manifest config")
    cfg = _json_member(_read_blob(archive, members, digest), "image config", dict)
    metadata = ImageMetadata(ref, cfg)

    blobs = []
    for layer_desc in _typed(manifest, "layers", _OBJECTS, "image manifest") or []:
        lmedia = _typed(layer_desc, "mediaType", str, "image manifest layer") or ""
        if lmedia not in MEDIA_LAYER:
            raise UnsupportedFormatError(f"unknown layer media type {lmedia!r}")
        # _read_blob has checked the bytes against the declared digest.
        digest = _digest_of(layer_desc, "image manifest layer")
        blobs.append((_read_blob(archive, members, digest), digest))
    _add_layers(stack, blobs, cfg)
    return metadata


def _read_blob(archive: FileBytes, members: dict, digest: str) -> FileBytes:
    """The range of the blob named by ``digest``, whose bytes are hashed a
    chunk at a time and checked against it."""
    alg, _, hexd = digest.partition(":")
    source = _member_view(archive, members, f"blobs/{alg}/{hexd}")
    actual = sha256_digest(source)
    if actual != digest:
        raise IntegrityError(f"blob digest mismatch: stored {digest}, recomputed {actual}")
    return source


def load_image_archive(archive_path) -> tuple[ImageMetadata, LayerStack]:
    """Parse a docker-save or OCI layout tar into metadata plus ordered layers.

    The archive is listed by ``read_tar_headers``, which reads only its
    header blocks. A gzip, bzip2 or xz archive is first decompressed, a
    chunk at a time, into a spool that is read the same way. A damaged
    header anywhere in the archive, like a damaged compressed stream, is an
    ``ImageFormatError``.

    Each layer is a range of the archive (or of its spool), and its tar
    stream is made here by its bytes: a gzip, bzip2 or xz layer is
    decompressed once, a chunk at a time, from its range into a spool that
    ``flatten_layers`` reads, and its diff_id is hashed on the way. Blob
    digests are hashed a chunk at a time too, so memory holds the manifest,
    the config and one chunk, never a layer blob. The returned
    ``LayerStack`` keeps the archive file (or its spool) and the layers'
    spools open until it is closed; the archive must not change meanwhile.
    """
    file = open(archive_path, "rb")
    stack = LayerStack(layers=[], archive=FileBytes(file))
    try:
        archive = uncompressed(stack.archive)[0]
        if archive is not stack.archive:
            stack.archive.close()
            stack.archive = archive
        members = _archive_members(archive)
        if "oci-layout" in members:
            return _load_oci_layout(archive, members, stack), stack
        if "manifest.json" in members:
            return _load_docker_layout(archive, members, stack), stack
        raise ImageFormatError(
            "archive has neither 'oci-layout' nor 'manifest.json'; not an image archive"
        )
    except TarHeaderError as exc:
        stack.close()
        raise ImageFormatError(f"not a readable tar archive: {exc}") from exc
    except BaseException:
        stack.close()
        raise


def _write_image(out, members: list[tuple[str, object]]) -> None:
    """Write to the binary file ``out`` the image archive of (name, data)
    files and (name, None) directories, in order: files 0o444 and
    directories 0o755, owned by 0:0 at mtime 0. ``data`` is a sized range,
    copied a chunk at a time (``tar_stream``)."""
    for chunk in tar_stream(
        (gnu_header(name, DIRTYPE, 0o755), b"") if data is None
        else (gnu_header(name, REGTYPE, 0o444, size=len(data)), data)
        for name, data in members
    ):
        out.write(chunk)


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _config_json(metadata: ImageMetadata, diff_id: str) -> bytes:
    """The slim image's config: the input's, but for ``rootfs`` and
    ``history`` (``ImageMetadata``)."""
    config = {key: value for key, value in metadata.config.items() if key != "history"}
    return _json_bytes({**config, "rootfs": {"type": "layers", "diff_ids": [diff_id]}})


def build_slim_image(
    metadata: ImageMetadata,
    slim_rootfs_tar: Iterable[bytes],
    out,
    *,
    layout: str = "oci",
    gzip_layer: bool = False,
) -> None:
    """Write to the binary file ``out`` a single-layer image archive around
    the slim rootfs tar, given as the chunks of the stream
    (``emit_slim_rootfs`` returns them).

    ``layout`` selects the output family ("oci" or "docker"); docker-save
    output always stores the layer uncompressed.

    Cost: the chunks are written once to a spool in ``TMPDIR`` (through a
    level-9 gzip compressor with ``gzip_layer``, on a worker thread while
    the next chunk is made) and hashed on the way: the spool's bytes for
    the layer digest, the stream apart for the diff_id under gzip. The
    layer's size and digest name and place it in the
    archive, so it is then copied from the spool into ``out`` a chunk at a
    time, among a few small members that ``gnu_header`` frames. Memory
    holds a fixed number of chunks, never the layer or the archive. A
    stream whose first block is zeros, which is how a stream without
    members starts, is refused before anything is written.
    """
    chunks = iter(slim_rootfs_tar)
    first = next((chunk for chunk in chunks if chunk), b"")
    if first[:BLOCKSIZE].count(0) == len(first[:BLOCKSIZE]):
        raise EmptyImageError("slim rootfs tar contains no entries; refusing to build an image")
    if layout not in ("oci", "docker"):
        raise ValueError(f"unknown output layout {layout!r}")
    gzip_layer = gzip_layer and layout == "oci"
    chunks = itertools.chain((first,), chunks)
    del first  # the chain alone holds it, until it is spooled
    layer, layer_digest, diff_id = spool_layer(chunks, gzip_layer)
    with closing(layer):
        _write_layout(out, metadata, layout, layer, layer_digest, diff_id, gzip_layer)


def _write_layout(out, metadata: ImageMetadata, layout: str, layer: FileBytes,
                  layer_digest: str, diff_id: str, gzip_layer: bool) -> None:
    """Write the archive of ``build_slim_image`` around its spooled layer."""
    config_bytes = _config_json(metadata, diff_id)

    if layout == "docker":
        cfg_hex = sha256_digest(config_bytes).split(":", 1)[1]
        layer_hex = diff_id.split(":", 1)[1]
        manifest = [
            {
                "Config": f"{cfg_hex}.json",
                "RepoTags": [metadata.reference] if metadata.reference else [],
                "Layers": [f"{layer_hex}/layer.tar"],
            }
        ]
        _write_image(out, [
            (f"{cfg_hex}.json", config_bytes),
            (layer_hex, None),
            (f"{layer_hex}/layer.tar", layer),
            ("manifest.json", _json_bytes(manifest)),
        ])
        return

    config_digest = sha256_digest(config_bytes)
    layer_media = "application/vnd.oci.image.layer.v1.tar" + ("+gzip" if gzip_layer else "")
    manifest = {
        "schemaVersion": 2,
        "mediaType": "application/vnd.oci.image.manifest.v1+json",
        "config": {
            "mediaType": "application/vnd.oci.image.config.v1+json",
            "digest": config_digest,
            "size": len(config_bytes),
        },
        "layers": [
            {"mediaType": layer_media, "digest": layer_digest, "size": len(layer)}
        ],
    }
    manifest_bytes = _json_bytes(manifest)
    manifest_digest = sha256_digest(manifest_bytes)

    index_entry: dict = {
        "mediaType": "application/vnd.oci.image.manifest.v1+json",
        "digest": manifest_digest,
        "size": len(manifest_bytes),
    }
    if metadata.reference:
        index_entry["annotations"] = {"org.opencontainers.image.ref.name": metadata.reference}
    index_bytes = _json_bytes({"schemaVersion": 2, "manifests": [index_entry]})
    layout_bytes = _json_bytes({"imageLayoutVersion": "1.0.0"})

    blobs = {config_digest: config_bytes, manifest_digest: manifest_bytes, layer_digest: layer}
    _write_image(out, [
        ("oci-layout", layout_bytes),
        ("index.json", index_bytes),
        ("blobs", None),
        ("blobs/sha256", None),
        *((f"blobs/sha256/{digest.split(':', 1)[1]}", blobs[digest]) for digest in sorted(blobs)),
    ])
