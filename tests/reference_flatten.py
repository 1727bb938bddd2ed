"""Reference layer flattening that scans the whole state for each whiteout.

It is the oracle for ``staticslim.imageio.flatten_layers``, which removes a
whited-out subtree as one key range of the sorted lower state and reads
member bytes as slices of the layer: both must give the same entries,
file bytes, warnings, symlink table and total size. ``_apply_layer``,
``_delete_subtree`` and ``flatten_layers`` are the original scan-based code,
but for where a regular file's bytes are kept: on its record, read whole
here, as the flattener keeps its range there; the member-path, parent and
record helpers they call are shared. Each layer's stored bytes are opened by
``tarfile`` itself, which decompresses them, lists the members and reads
their bytes, GNU sparse files included.
"""

from __future__ import annotations

import io
import posixpath
import tarfile
import zlib

from staticslim.errors import ImageFormatError
from staticslim.imageio import (
    _TAR_KIND,
    KIND_DIRECTORY,
    KIND_HARDLINK,
    KIND_REGULAR,
    KIND_SYMLINK,
    OPAQUE_MARKER,
    WHITEOUT_PREFIX,
    FileRecord,
    FlattenedRootfs,
    LayerStack,
    _clean_member_path,
    _ensure_parents,
    log,
)

# What tarfile raises on a damaged layer: its own error and, through a gzip
# layer, a cut member's EOFError and a damaged one's zlib.error.
_TARFILE_ERRORS = (tarfile.TarError, EOFError, zlib.error)


def _delete_subtree(entries: dict, path: str) -> None:
    prefix = path + "/"
    for p in [p for p in entries if p == path or p.startswith(prefix)]:
        entries.pop(p, None)


def _apply_layer(index: int, tf: tarfile.TarFile, entries: dict, warnings: list[str]) -> None:
    """Apply the members of one layer to the flattened state in place."""
    members = tf.getmembers()

    # Whiteouts of this layer act on the state built from lower layers.
    for m in members:
        path = _clean_member_path(m.name)
        if path is None:
            continue
        base = posixpath.basename(path)
        parent = posixpath.dirname(path)
        if base == OPAQUE_MARKER:
            prefix = parent.rstrip("/") + "/"
            for p in [p for p in entries if p.startswith(prefix)]:
                entries.pop(p, None)
        elif base.startswith(WHITEOUT_PREFIX):
            target = posixpath.join(parent, base[len(WHITEOUT_PREFIX):])
            _delete_subtree(entries, target)

    for m in members:
        path = _clean_member_path(m.name)
        if path is None:
            continue
        base = posixpath.basename(path)
        if base.startswith(WHITEOUT_PREFIX):
            continue
        kind = _TAR_KIND.get(m.type)
        if kind is None:
            msg = f"layer {index}: unknown tar entry type {m.type!r} for {path}, skipped"
            log.warning(msg)
            warnings.append(msg)
            continue

        existing = entries.get(path)
        if existing is not None and existing.kind == KIND_DIRECTORY and kind != KIND_DIRECTORY:
            _delete_subtree(entries, path)

        link_target = data = None
        if kind == KIND_SYMLINK:
            link_target = m.linkname
        elif kind == KIND_HARDLINK:
            link_target = _clean_member_path(m.linkname)
        elif kind == KIND_REGULAR:
            fobj = tf.extractfile(m)
            data = fobj.read() if fobj is not None else b""

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
            data=data,
        )
        _ensure_parents(entries, path)
        entries[path] = record


def flatten_layers(stack: LayerStack) -> FlattenedRootfs:
    """Apply all layers in order with whiteout/opaque semantics."""
    entries: dict[str, FileRecord] = {}
    warnings: list[str] = []

    for index, layer in enumerate(stack.layers):
        try:
            with tarfile.open(fileobj=io.BytesIO(layer.data), mode="r:*") as tf:
                _apply_layer(index, tf, entries, warnings)
        except _TARFILE_ERRORS as exc:
            raise ImageFormatError(f"layer {index}: not a readable tar stream: {exc}") from exc

    total = sum(r.size for r in entries.values() if r.kind == KIND_REGULAR)
    return FlattenedRootfs(entries=entries, total_size=total, warnings=warnings)
