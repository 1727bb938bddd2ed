"""Reading and writing container image archives.

Supports the docker-save layout (top-level ``manifest.json``) and the OCI
image layout (``oci-layout`` / ``index.json`` / ``blobs``) on input, and
emits either on output (OCI by default). Layers are flattened into a single
in-memory rootfs with union-filesystem semantics.
"""

from __future__ import annotations

import bisect
import gzip
import hashlib
import io
import json
import logging
import posixpath
import tarfile
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import (
    EmptyImageError,
    ImageFormatError,
    IntegrityError,
    LayerSecurityError,
    UnsupportedFormatError,
)

if TYPE_CHECKING:
    from .elf import DynamicInfo

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
MEDIA_LAYER_TAR = frozenset(
    {
        "application/vnd.oci.image.layer.v1.tar",
        "application/vnd.docker.image.rootfs.diff.tar",
    }
)
MEDIA_LAYER_GZIP = frozenset(
    {
        "application/vnd.oci.image.layer.v1.tar+gzip",
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

# What a damaged layer stream raises: tarfile's own errors and, underneath
# them, those of gzip and zlib (a truncated stream ends in EOFError).
_LAYER_STREAM_ERRORS = (tarfile.TarError, gzip.BadGzipFile, EOFError, zlib.error)

_TAR_KIND = {
    tarfile.REGTYPE: KIND_REGULAR,
    tarfile.AREGTYPE: KIND_REGULAR,
    tarfile.DIRTYPE: KIND_DIRECTORY,
    tarfile.SYMTYPE: KIND_SYMLINK,
    tarfile.LNKTYPE: KIND_HARDLINK,
    tarfile.CHRTYPE: KIND_DEVICE,
    tarfile.BLKTYPE: KIND_DEVICE,
    tarfile.FIFOTYPE: KIND_FIFO,
}


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ImageMetadata:
    """Configuration carried from the fat image to the slim image."""

    image_name: str
    tag: str
    architecture: str
    os: str
    exposed_ports: frozenset[str] = frozenset()
    env_vars: tuple[str, ...] = ()
    entrypoint: tuple[str, ...] | None = None
    cmd: tuple[str, ...] | None = None
    working_dir: str | None = None
    labels: tuple[tuple[str, str], ...] = ()  # sorted (key, value) pairs

    def __post_init__(self):
        if not self.architecture:
            raise ImageFormatError("image config has an empty architecture")
        if not self.os:
            raise ImageFormatError("image config has an empty os")

    @property
    def reference(self) -> str:
        if not self.image_name:
            return ""
        return f"{self.image_name}:{self.tag}" if self.tag else self.image_name


@dataclass(frozen=True)
class LayerBlob:
    """One layer as stored in the archive plus its identity digests."""

    media_type: str
    digest: str  # digest of the blob bytes as stored
    diff_id: str  # digest of the uncompressed tar stream
    data: bytes

    def tar_bytes(self) -> bytes:
        if self.media_type in MEDIA_LAYER_GZIP:
            return gzip.decompress(self.data)
        return self.data


@dataclass
class LayerStack:
    """Ordered layers, base first."""

    layers: list[LayerBlob]

    @property
    def diff_ids(self) -> list[str]:
        return [layer.diff_id for layer in self.layers]


@dataclass(frozen=True)
class FileRecord:
    """One entry of the flattened rootfs.

    ``link_target`` keeps the raw tar linkname for symlinks (relative targets
    stay relative so they re-emit byte-identically); hardlink targets are
    normalized to an absolute in-rootfs path.
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

    def is_executable(self) -> bool:
        return bool(self.mode & 0o111)


@dataclass
class FlattenedRootfs:
    """Union of all layers: the one model of the image file system.

    ``entries`` maps path -> record in path order; ``content`` holds the
    regular-file bytes. ``symlink_table`` maps each symlink entry to its
    absolute, normalized target and is derived from ``entries`` on
    construction.

    A rootfs is never mutated after construction; a different set of entries
    (such as the retained view a prune report counts) is a new object. Two
    private caches rely on that and are filled on first use:
    ``_dir_cache`` maps a directory spelling to its physical directory and
    the symlink hops crossed (``rootfs.resolve_entry``), and ``_elf_info``
    maps a physical path to its parsed dynamic-linking facts
    (``elf.resolve_elf_dependencies``).
    """

    entries: dict[str, FileRecord]
    content: dict[str, bytes] = field(default_factory=dict)
    total_size: int = 0
    warnings: list[str] = field(default_factory=list)
    symlink_table: dict[str, str] = field(init=False, repr=False)
    _dir_cache: dict[str, tuple[str | None, tuple[str, ...]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _elf_info: dict[str, DynamicInfo | None] = field(
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

    def data_for(self, path: str) -> bytes:
        """Bytes of a regular file, following hardlinks."""
        seen = set()
        while True:
            if path in self.content:
                return self.content[path]
            rec = self.entries.get(path)
            if rec is None or rec.kind != KIND_HARDLINK or rec.link_target is None:
                raise KeyError(path)
            if path in seen:
                raise KeyError(path)
            seen.add(path)
            path = rec.link_target


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


def _delete_subtree(entries: dict, content: dict, path: str) -> None:
    prefix = path + "/"
    for p in [p for p in entries if p == path or p.startswith(prefix)]:
        entries.pop(p, None)
        content.pop(p, None)


def _ensure_parents(entries: dict[str, FileRecord], path: str) -> None:
    parent = posixpath.dirname(path)
    missing = []
    while parent != "/" and parent not in entries:
        missing.append(parent)
        parent = posixpath.dirname(parent)
    for p in reversed(missing):
        entries[p] = FileRecord(path=p, kind=KIND_DIRECTORY, mode=0o755)


def _pop_range(entries: dict, content: dict, keys: list[str], prefix: str) -> None:
    """Drop every path under ``prefix`` (which ends in "/") listed in ``keys``.

    ``keys`` is sorted and "0" is the character right after "/", so the keys
    that start with ``prefix`` are those from ``prefix`` up to, not
    including, ``prefix`` with its "/" replaced by "0".
    """
    lo = bisect.bisect_left(keys, prefix)
    hi = bisect.bisect_left(keys, prefix[:-1] + "0", lo)
    for p in keys[lo:hi]:
        entries.pop(p, None)
        content.pop(p, None)


def _apply_layer(index: int, tf: tarfile.TarFile, tar: bytes | None, entries: dict,
                 content: dict, warnings: list[str]) -> None:
    """Apply the members of one layer to the flattened state in place.

    ``tar`` is the byte stream ``tf`` reads, and a regular member's bytes are
    one slice of it. It is None when member offsets do not index the bytes
    at hand; members are then read through ``tf``.
    """
    members = tf.getmembers()
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
                _pop_range(entries, content, keys, parent.rstrip("/") + "/")
            else:
                target = posixpath.join(parent, base[len(WHITEOUT_PREFIX):])
                entries.pop(target, None)
                content.pop(target, None)
                _pop_range(entries, content, keys, target + "/")

    for m, path in zip(members, paths):
        if path is None:
            continue
        kind = _TAR_KIND.get(m.type)
        if kind is None:
            msg = f"layer {index}: unknown tar entry type {m.type!r} for {path}, skipped"
            log.warning(msg)
            warnings.append(msg)
            continue

        existing = entries.get(path)
        if existing is not None and existing.kind == KIND_DIRECTORY and kind != KIND_DIRECTORY:
            _delete_subtree(entries, content, path)
        elif existing is not None and kind != existing.kind:
            content.pop(path, None)

        link_target = None
        if kind == KIND_SYMLINK:
            link_target = m.linkname
        elif kind == KIND_HARDLINK:
            link_target = _clean_member_path(m.linkname)

        record = FileRecord(
            path=path,
            kind=kind,
            mode=m.mode,
            size=m.size if kind == KIND_REGULAR else 0,
            link_target=link_target,
            uid=m.uid,
            gid=m.gid,
            mtime=int(m.mtime),
            uname=m.uname or "",
            gname=m.gname or "",
            devmajor=m.devmajor,
            devminor=m.devminor,
            block_device=m.type == tarfile.BLKTYPE,
        )
        _ensure_parents(entries, path)
        entries[path] = record
        if kind == KIND_REGULAR:
            if tar is not None and m.sparse is None:
                content[path] = tar[m.offset_data:m.offset_data + m.size]
            else:
                # A sparse member stores a map and its data blocks, not its bytes.
                fobj = tf.extractfile(m)
                content[path] = fobj.read() if fobj is not None else b""


def flatten_layers(stack: LayerStack) -> FlattenedRootfs:
    """Apply all layers in order with whiteout/opaque semantics.

    Cost per layer: one decompression (gzip layers), one ``getmembers`` pass
    over the tar headers, one slice per regular member and, only when the
    layer has whiteouts or opaque markers, one sort of the lower state's
    paths plus a bisect per marker; the paths a marker removes are the only
    ones it touches. A directory replaced by a non-directory still scans the
    whole state for its subtree.
    """
    entries: dict[str, FileRecord] = {}
    content: dict[str, bytes] = {}
    warnings: list[str] = []

    for index, layer in enumerate(stack.layers):
        tar = layer.tar_bytes()
        buf = io.BytesIO(tar)
        try:
            with tarfile.open(fileobj=buf) as tf:
                # Offsets index ``tar`` unless tarfile decompressed it itself
                # (a layer whose media type says tar but that holds gzip).
                _apply_layer(index, tf, tar if tf.fileobj is buf else None,
                             entries, content, warnings)
        except _LAYER_STREAM_ERRORS as exc:
            raise ImageFormatError(f"layer {index}: not a readable tar stream: {exc}") from exc

    total = sum(r.size for r in entries.values() if r.kind == KIND_REGULAR)
    return FlattenedRootfs(entries=entries, content=content, total_size=total, warnings=warnings)


def _member_map(tf: tarfile.TarFile) -> dict[str, tarfile.TarInfo]:
    out = {}
    for m in tf.getmembers():
        name = m.name
        while name.startswith("./"):
            name = name[2:]
        out[name.lstrip("/")] = m
    return out


def _read_member(tf: tarfile.TarFile, members: dict, name: str) -> bytes:
    member = members.get(name.lstrip("/"))
    if member is None:
        raise ImageFormatError(f"archive is missing member {name!r}")
    fobj = tf.extractfile(member)
    if fobj is None:
        raise ImageFormatError(f"archive member {name!r} is not a readable file")
    return fobj.read()


def _split_reference(ref: str) -> tuple[str, str]:
    if ":" in ref:
        name, _, tag = ref.rpartition(":")
        return name, tag
    return ref, ""


def _metadata_from_config(cfg: dict, name: str, tag: str) -> ImageMetadata:
    conf = cfg.get("config") or {}
    entrypoint = conf.get("Entrypoint")
    cmd = conf.get("Cmd")
    return ImageMetadata(
        image_name=name,
        tag=tag,
        architecture=cfg.get("architecture") or "",
        os=cfg.get("os") or "",
        exposed_ports=frozenset((conf.get("ExposedPorts") or {}).keys()),
        env_vars=tuple(conf.get("Env") or ()),
        entrypoint=tuple(entrypoint) if entrypoint is not None else None,
        cmd=tuple(cmd) if cmd is not None else None,
        working_dir=conf.get("WorkingDir") or None,
        labels=tuple(sorted((conf.get("Labels") or {}).items())),
    )


def _is_gzip(data: bytes) -> bool:
    return data[:2] == b"\x1f\x8b"


def _layer_from_blob(data: bytes, media_type: str, verified_digest: str | None) -> LayerBlob:
    """One layer; ``verified_digest`` is the digest ``_read_blob`` already
    checked ``data`` against, or None to hash ``data`` here."""
    digest = verified_digest or sha256_digest(data)
    tar_data = gzip.decompress(data) if media_type in MEDIA_LAYER_GZIP else data
    return LayerBlob(
        media_type=media_type,
        digest=digest,
        diff_id=sha256_digest(tar_data),
        data=data,
    )


def _layer_stack(blobs, cfg: dict) -> LayerStack:
    """Layers from (data, media type, verified digest or None) triples, base
    first, checked against the diff_ids the config declares."""
    layers = []
    for index, (data, media_type, verified_digest) in enumerate(blobs):
        try:
            layers.append(_layer_from_blob(data, media_type, verified_digest))
        except _LAYER_STREAM_ERRORS as exc:
            raise ImageFormatError(f"layer {index}: cannot decompress: {exc}") from exc
    stack = LayerStack(layers=layers)
    declared = (cfg.get("rootfs") or {}).get("diff_ids") or []
    if declared and declared != stack.diff_ids:
        raise IntegrityError(
            f"rootfs diff_ids mismatch: config declares {declared}, layers are {stack.diff_ids}"
        )
    return stack


def _load_docker_layout(tf: tarfile.TarFile, members: dict) -> tuple[ImageMetadata, LayerStack]:
    manifest = json.loads(_read_member(tf, members, "manifest.json"))
    if not isinstance(manifest, list) or not manifest:
        raise ImageFormatError("manifest.json is not a non-empty list")
    if len(manifest) > 1:
        raise UnsupportedFormatError("multi-image archives are not supported")
    entry = manifest[0]

    config_name = entry.get("Config")
    if not config_name:
        raise ImageFormatError("manifest.json entry has no Config member")
    cfg = json.loads(_read_member(tf, members, config_name))

    repo_tags = entry.get("RepoTags") or []
    name, tag = _split_reference(repo_tags[0]) if repo_tags else ("", "")

    blobs = []
    for layer_name in entry.get("Layers") or []:
        data = _read_member(tf, members, layer_name)
        if _is_gzip(data):
            media = "application/vnd.oci.image.layer.v1.tar+gzip"
        else:
            media = "application/vnd.oci.image.layer.v1.tar"
        blobs.append((data, media, None))
    return _metadata_from_config(cfg, name, tag), _layer_stack(blobs, cfg)


def _load_oci_layout(tf: tarfile.TarFile, members: dict) -> tuple[ImageMetadata, LayerStack]:
    index = json.loads(_read_member(tf, members, "index.json"))
    if index.get("schemaVersion") != 2:
        raise UnsupportedFormatError(
            f"unsupported index schemaVersion {index.get('schemaVersion')!r}"
        )
    manifests = index.get("manifests") or []
    if not manifests:
        raise ImageFormatError("index.json lists no manifests")
    desc = manifests[0]
    media = desc.get("mediaType", "")
    if media in MEDIA_INDEX:
        raise UnsupportedFormatError("multi-platform manifest lists are not supported")
    if media not in MEDIA_MANIFEST:
        raise UnsupportedFormatError(f"unknown manifest media type {media!r}")

    ref = (desc.get("annotations") or {}).get("org.opencontainers.image.ref.name", "")
    name, tag = _split_reference(ref) if ref else ("", "")

    manifest_bytes = _read_blob(tf, members, desc["digest"])
    manifest = json.loads(manifest_bytes)
    if manifest.get("schemaVersion") != 2:
        raise UnsupportedFormatError(
            f"unsupported manifest schemaVersion {manifest.get('schemaVersion')!r}"
        )

    cfg_desc = manifest.get("config") or {}
    cfg = json.loads(_read_blob(tf, members, cfg_desc["digest"]))

    blobs = []
    for layer_desc in manifest.get("layers") or []:
        lmedia = layer_desc.get("mediaType", "")
        if lmedia not in MEDIA_LAYER_TAR and lmedia not in MEDIA_LAYER_GZIP:
            raise UnsupportedFormatError(f"unknown layer media type {lmedia!r}")
        # _read_blob has checked the bytes against the declared digest.
        data = _read_blob(tf, members, layer_desc["digest"])
        blobs.append((data, lmedia, layer_desc["digest"]))
    return _metadata_from_config(cfg, name, tag), _layer_stack(blobs, cfg)


def _read_blob(tf: tarfile.TarFile, members: dict, digest: str) -> bytes:
    alg, _, hexd = digest.partition(":")
    data = _read_member(tf, members, f"blobs/{alg}/{hexd}")
    actual = sha256_digest(data)
    if actual != digest:
        raise IntegrityError(f"blob digest mismatch: stored {digest}, recomputed {actual}")
    return data


def load_image_archive(archive_path) -> tuple[ImageMetadata, LayerStack]:
    """Parse a docker-save or OCI layout tar into metadata plus ordered layers."""
    try:
        tf = tarfile.open(archive_path)
    except tarfile.TarError as exc:
        raise ImageFormatError(f"not a readable tar archive: {exc}") from exc
    with tf:
        members = _member_map(tf)
        if "oci-layout" in members:
            return _load_oci_layout(tf, members)
        if "manifest.json" in members:
            return _load_docker_layout(tf, members)
        raise ImageFormatError(
            "archive has neither 'oci-layout' nor 'manifest.json'; not an image archive"
        )


def _struct_member(name: str, data: bytes | None = None, isdir: bool = False) -> tarfile.TarInfo:
    ti = tarfile.TarInfo(name=name)
    ti.mtime = 0
    ti.uid = ti.gid = 0
    ti.uname = ti.gname = ""
    if isdir:
        ti.type = tarfile.DIRTYPE
        ti.mode = 0o755
    else:
        ti.mode = 0o444
        ti.size = len(data or b"")
    return ti


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _config_json(metadata: ImageMetadata, diff_ids: list[str]) -> bytes:
    conf: dict = {}
    if metadata.exposed_ports:
        conf["ExposedPorts"] = {p: {} for p in sorted(metadata.exposed_ports)}
    if metadata.env_vars:
        conf["Env"] = list(metadata.env_vars)
    if metadata.entrypoint is not None:
        conf["Entrypoint"] = list(metadata.entrypoint)
    if metadata.cmd is not None:
        conf["Cmd"] = list(metadata.cmd)
    if metadata.working_dir:
        conf["WorkingDir"] = metadata.working_dir
    if metadata.labels:
        conf["Labels"] = dict(metadata.labels)
    return _json_bytes(
        {
            "architecture": metadata.architecture,
            "os": metadata.os,
            "config": conf,
            "rootfs": {"type": "layers", "diff_ids": diff_ids},
        }
    )


def build_slim_image(
    metadata: ImageMetadata,
    slim_rootfs_tar: bytes,
    *,
    layout: str = "oci",
    gzip_layer: bool = False,
) -> bytes:
    """Assemble a single-layer image archive around the slim rootfs tar.

    ``layout`` selects the output family ("oci" or "docker"); docker-save
    output always stores the layer uncompressed.
    """
    with tarfile.open(fileobj=io.BytesIO(slim_rootfs_tar)) as tf:
        empty = tf.next() is None
    if empty:
        raise EmptyImageError("slim rootfs tar contains no entries; refusing to build an image")
    if layout not in ("oci", "docker"):
        raise ValueError(f"unknown output layout {layout!r}")

    diff_id = sha256_digest(slim_rootfs_tar)
    config_bytes = _config_json(metadata, [diff_id])

    out = io.BytesIO()
    if layout == "docker":
        with tarfile.open(fileobj=out, mode="w", format=tarfile.GNU_FORMAT) as tf:
            cfg_hex = sha256_digest(config_bytes).split(":", 1)[1]
            layer_hex = diff_id.split(":", 1)[1]
            manifest = [
                {
                    "Config": f"{cfg_hex}.json",
                    "RepoTags": [metadata.reference] if metadata.reference else [],
                    "Layers": [f"{layer_hex}/layer.tar"],
                }
            ]
            tf.addfile(_struct_member(f"{cfg_hex}.json", config_bytes), io.BytesIO(config_bytes))
            tf.addfile(_struct_member(f"{layer_hex}", isdir=True))
            tf.addfile(
                _struct_member(f"{layer_hex}/layer.tar", slim_rootfs_tar),
                io.BytesIO(slim_rootfs_tar),
            )
            manifest_bytes = _json_bytes(manifest)
            tf.addfile(_struct_member("manifest.json", manifest_bytes), io.BytesIO(manifest_bytes))
        return out.getvalue()

    if gzip_layer:
        layer_data = gzip.compress(slim_rootfs_tar, mtime=0)
        layer_media = "application/vnd.oci.image.layer.v1.tar+gzip"
    else:
        layer_data = slim_rootfs_tar
        layer_media = "application/vnd.oci.image.layer.v1.tar"
    layer_digest = sha256_digest(layer_data)
    config_digest = sha256_digest(config_bytes)

    manifest = {
        "schemaVersion": 2,
        "mediaType": "application/vnd.oci.image.manifest.v1+json",
        "config": {
            "mediaType": "application/vnd.oci.image.config.v1+json",
            "digest": config_digest,
            "size": len(config_bytes),
        },
        "layers": [
            {"mediaType": layer_media, "digest": layer_digest, "size": len(layer_data)}
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

    blobs = {config_digest: config_bytes, manifest_digest: manifest_bytes, layer_digest: layer_data}
    with tarfile.open(fileobj=out, mode="w", format=tarfile.GNU_FORMAT) as tf:
        tf.addfile(_struct_member("oci-layout", layout_bytes), io.BytesIO(layout_bytes))
        tf.addfile(_struct_member("index.json", index_bytes), io.BytesIO(index_bytes))
        tf.addfile(_struct_member("blobs", isdir=True))
        tf.addfile(_struct_member("blobs/sha256", isdir=True))
        for digest in sorted(blobs):
            data = blobs[digest]
            hexd = digest.split(":", 1)[1]
            tf.addfile(_struct_member(f"blobs/sha256/{hexd}", data), io.BytesIO(data))
    return out.getvalue()
