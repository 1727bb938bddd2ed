"""Reference slim-rootfs writer built on ``tarfile.TarFile.addfile``.

It is the oracle for ``staticslim.pruner.emit_slim_rootfs``, which writes
each header with ``TarInfo.tobuf`` and the member data into one buffer: both
must give byte-identical tar streams. ``emit_slim_rootfs`` is the original
``addfile`` code, unchanged.
"""

from __future__ import annotations

import io
import tarfile

from staticslim.errors import PruneConsistencyError
from staticslim.imageio import (
    KIND_DEVICE,
    KIND_DIRECTORY,
    KIND_HARDLINK,
    KIND_REGULAR,
    KIND_SYMLINK,
    FlattenedRootfs,
)
from staticslim.pruner import RetainList


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
