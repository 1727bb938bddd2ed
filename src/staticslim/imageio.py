"""Reading and writing container image archives.

Supports the docker-save layout (top-level ``manifest.json``) and the OCI
image layout (``oci-layout`` / ``index.json`` / ``blobs``) on input, and
emits either on output (OCI by default). Layers are flattened into a single
rootfs model with union-filesystem semantics, whose regular files are
references into the layers' tar streams, read when their bytes are asked for.

The image archive and its layers are listed, and the headers of every
written tar stream are written, by one ``struct``-based tar header codec
(``read_tar_headers`` and ``gnu_header``) that gives what ``tarfile`` gives,
GNU sparse maps included; ``tarfile`` lends it constants only.

The image archive is read in place: each layer is a range of it. Compressed
layers and archives are decompressed once, a chunk at a time, into spools:
unlinked temporary files in ``TMPDIR`` that the codec reads like bytes, so no
layer, stored or decompressed, is held whole in memory. Each layer's tar
stream is made once, at load. A regular file's bytes are a range of its
layer, read in chunks. The slim layer is written, a chunk at a time, to a
spool (its size and digest must be known before its header is written) and
copied from there into the image archive, which is written to a file; no
file, layer or archive is held whole.
"""

from __future__ import annotations

import bisect
import gzip
import hashlib
import importlib
import io
import itertools
import json
import logging
import os
import posixpath
import re
import struct
import tarfile
import zlib
from collections.abc import Mapping
from contextlib import closing
from dataclasses import dataclass, field
from tarfile import (
    AREGTYPE,
    BLKTYPE,
    BLOCKSIZE,
    CHRTYPE,
    DIRTYPE,
    FIFOTYPE,
    GNUTYPE_LONGLINK,
    GNUTYPE_LONGNAME,
    GNUTYPE_SPARSE,
    LNKTYPE,
    RECORDSIZE,
    REGTYPE,
    SYMTYPE,
    XGLTYPE,
)
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    EmptyImageError,
    ImageFormatError,
    IntegrityError,
    LayerSecurityError,
    OversizedFileError,
    SpoolError,
    UnsupportedFormatError,
)

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


# --- the tar header codec ---------------------------------------------------


class TarHeaderError(ImageFormatError):
    """A tar stream has a damaged or truncated header or sparse map, or its
    member data runs past the end of the stream."""


# What a damaged layer stream or image archive raises: the header codec's
# error and, underneath it, those of the decompressors (a truncated gzip
# stream ends in EOFError).
_LAYER_STREAM_ERRORS = (TarHeaderError, gzip.BadGzipFile, EOFError, zlib.error)

# One 512-byte header block: name, mode, uid, gid, size, mtime, chksum,
# typeflag, linkname, magic and version, uname, gname, devmajor, devminor,
# prefix and 12 unused bytes. Packing pads or cuts each string field to its
# width with NULs, as tarfile's ``stn`` does.
_HEADER = struct.Struct("100s8s8s8s12s12s8sc100s8s32s32s8s8s155s12x")
_ZERO_BLOCK = bytes(BLOCKSIZE)
# The bytes a compressed stream is read, decompressed and written in per
# step, and the size of the chunks ``tar_stream`` yields.
_CHUNK = 1 << 18
_ASCII = bytes(range(128))
# Member names are encoded as tarfile encodes them by default.
_ENCODING = tarfile.ENCODING
_ERRORS = "surrogateescape"
# Types whose data blocks follow the header (tarfile's ``isreg()`` types plus
# any type it does not know); the others own no data blocks.
_NO_DATA_TYPES = frozenset(tarfile.SUPPORTED_TYPES) - frozenset(tarfile.REGULAR_TYPES)
_PAX_TYPES = frozenset((tarfile.XHDTYPE, XGLTYPE, tarfile.SOLARIS_XHDTYPE))
# The pax keywords tarfile applies to a member, and the field each sets.
_PAX_STRINGS = {"path": "name", "linkpath": "linkname", "uname": "uname", "gname": "gname"}
_PAX_NUMBERS = {"size": int, "mtime": float, "uid": int, "gid": int}
# The length that starts a pax record. Its 20-digit cap keeps each match,
# and the ``int`` of it, to a few bytes whatever the payload holds.
_PAX_LENGTH = re.compile(rb"([0-9]{1,20}) ")
# The pax keywords of a GNU sparse 0.0 map, one record of each per region.
_SPARSE_00 = ("GNU.sparse.offset", "GNU.sparse.numbytes")


class TarHeader(NamedTuple):
    """One member of a tar stream: the fields ``tarfile`` gives its
    ``TarInfo``, the offset where the member's data starts and the map of a
    GNU sparse file, whose regions are stored in turn from there."""

    name: str
    type: bytes
    mode: int
    uid: int
    gid: int
    size: int
    mtime: int | float  # a pax mtime record is fractional
    linkname: str
    uname: str
    gname: str
    devmajor: int
    devminor: int
    offset_data: int
    sparse: tuple[tuple[int, int], ...] | None = None


def _blocks(size: int) -> int:
    """``size`` rounded up to whole blocks."""
    return -(-size // BLOCKSIZE) * BLOCKSIZE


def _byte_sum(block: bytes) -> int:
    """The sum of the bytes of a 512-byte block. The low half of Adler-32 is
    one plus the byte sum modulo 65521, and 256 bytes sum to at most 65280,
    so the checksums of the two halves give the exact sum at C speed."""
    return (zlib.adler32(block[:256]) & 0xFFFF) + (zlib.adler32(block[256:]) & 0xFFFF) - 2


def _nts(field: bytes) -> str:
    return field.partition(b"\0")[0].decode(_ENCODING, _ERRORS)


def _nti(field: bytes, offset: int) -> int:
    """A number field as tarfile's ``nti`` reads it: GNU base-256 after a
    0o200 (positive) or 0o377 (negative) byte, else octal up to the first
    NUL, blanks around it ignored. ``offset`` is the header's, for the error
    message."""
    lead = field[0]
    if lead == 0o200 or lead == 0o377:
        n = int.from_bytes(field[1:], "big")
        return n - 256 ** (len(field) - 1) if lead == 0o377 else n
    digits = field.partition(b"\0")[0]
    if not digits:
        return 0
    try:
        # ``int`` of bytes takes the ASCII subset of what ``int`` of str
        # takes; the rest (a blank field, Unicode blanks) goes the long way.
        return int(digits, 8)
    except ValueError:
        pass
    try:
        return int(digits.decode("ascii").strip() or "0", 8)
    except ValueError:
        raise TarHeaderError(f"invalid number field in the header at offset {offset}") from None


def _decimal(text: str | bytes, offset: int) -> int:
    """A number of a pax sparse map: 1 to 20 ASCII digits."""
    if not (0 < len(text) <= 20 and text.isascii() and text.isdigit()):
        raise TarHeaderError(f"invalid sparse map in the header at offset {offset}")
    return int(text)


def _pax_records(payload: bytes, into: dict, offset: int) -> None:
    """Add the ``"%d %s=%s\\n"`` records of a pax header to ``into``, read
    and decoded as ``tarfile`` reads them since the fix for CVE-2024-6232.

    The records run up to the end of the payload or its first NUL. Each must
    start with a length of at most 20 digits and a blank, be at least 5
    bytes, end within the payload with a newline, and hold a keyword and an
    "=". Anything else raises ``TarHeaderError``. Each step looks only at
    the record's own bytes, so the work is linear in the payload. The
    header's own first ``hdrcharset`` record alone picks how names decode.
    The records of a sparse 0.0 map are kept as lists; any other keyword
    keeps its last value. ``offset`` is the header's, for error messages."""
    records = []
    name_encoding = None
    pos, end = 0, len(payload)
    while pos < end and payload[pos]:
        match = _PAX_LENGTH.match(payload, pos)
        length = int(match.group(1)) if match is not None else 0
        last = pos + length - 1  # the record's closing newline
        if length < 5 or last >= end or payload[last] != 0x0A:
            raise TarHeaderError(f"invalid pax record in the header at offset {offset}")
        keyword, equals, value = payload[match.end():last].partition(b"=")
        if not keyword or not equals:
            raise TarHeaderError(f"invalid pax record in the header at offset {offset}")
        if keyword == b"hdrcharset" and name_encoding is None:
            name_encoding = _ENCODING if value == b"BINARY" else "utf-8"
        records.append((keyword, value))
        pos += length
    for keyword, value in records:
        keyword = keyword.decode("utf-8", _ERRORS)
        if keyword in tarfile.PAX_NAME_FIELDS:
            encoding, fallback = name_encoding or "utf-8", _ENCODING
        else:
            encoding = fallback = "utf-8"
        try:
            value = value.decode(encoding)
        except UnicodeDecodeError:
            value = value.decode(fallback, _ERRORS)
        if keyword in _SPARSE_00:
            into.setdefault(keyword, []).append(value)
        else:
            into[keyword] = value


def _old_gnu_map(tar: bytes, block: bytes, at: int, offset: int) -> tuple[tuple, int, int]:
    """The map of the old GNU ``S`` header ``block`` at ``offset``: four
    (offset, size) pairs in the header, then 21 in each extension block
    that follows from ``at`` while the last one's "isextended" byte is set.
    Returns the map, the file's real size and where the data start."""
    parts, extended = [block[386:482]], block[482]
    while extended:
        part = tar[at:at + BLOCKSIZE]
        if len(part) < BLOCKSIZE:
            raise TarHeaderError(f"the sparse map in the header at offset {offset} is cut short")
        parts.append(part[:504])
        extended, at = part[504], at + BLOCKSIZE
    fields = b"".join(parts)
    numbers = [_nti(fields[p:p + 12], offset) for p in range(0, len(fields), 12)]
    return tuple(zip(numbers[::2], numbers[1::2])), _nti(block[483:495], offset), at


def _pax_sparse_map(tar: bytes, record: dict, at: int, end: int, size: int,
                    offset: int) -> tuple[tuple, int, int]:
    """The map of a member whose pax ``record`` holds ``GNU.sparse.``
    keywords, in the format tarfile picks: 0.1, 0.0 (``_SPARSE_00``) or 1.0,
    whose data blocks from ``at`` to ``end`` start with decimal lines: a
    count, then an offset and a size per region. A line of over 20 digits
    is refused, so each block is read once. Returns the map, where the data
    start and the real size, or else the stored ``size``."""
    if "GNU.sparse.map" in record:
        numbers = [_decimal(n, offset) for n in record["GNU.sparse.map"].split(",")]
    elif "GNU.sparse.size" in record:
        offsets, sizes = (record.get(keyword, []) for keyword in _SPARSE_00)
        if len(offsets) != len(sizes):
            raise TarHeaderError(f"invalid sparse map in the header at offset {offset}")
        numbers = [_decimal(n, offset) for region in zip(offsets, sizes) for n in region]
    elif record.get("GNU.sparse.major") == "1" and record.get("GNU.sparse.minor") == "0":
        numbers, rest = [], b""
        while not numbers or len(numbers) <= 2 * numbers[0]:
            if len(rest) > 20 or at + BLOCKSIZE > end:
                raise TarHeaderError(f"invalid sparse map in the header at offset {offset}")
            *lines, rest = (rest + tar[at:at + BLOCKSIZE]).split(b"\n")
            numbers += [_decimal(line, offset) for line in lines]
            at += BLOCKSIZE
        numbers = numbers[1:1 + 2 * numbers[0]]
    else:
        raise TarHeaderError(f"unsupported GNU sparse records in the header at offset {offset}")
    if len(numbers) % 2:
        raise TarHeaderError(f"invalid sparse map in the header at offset {offset}")
    real_size = record.get("GNU.sparse.realsize", record.get("GNU.sparse.size"))
    size = size if real_size is None else _decimal(real_size, offset)
    return tuple(zip(numbers[::2], numbers[1::2])), at, size


def _fold_records(tar: bytes, header: TarHeader, global_pax: dict, pending: list,
                  has_data: bool, next_offset: int, offset: int) -> tuple[TarHeader, int]:
    """Apply extension records to the member they precede, as tarfile does:
    the global pax records, then each ``L``, ``K`` or ``x`` record from the
    one nearest the member outwards. An ``x`` record that sets the size also
    moves the next header; the new header and that offset are returned. The
    outermost record with ``GNU.sparse.`` keywords gives a sparse map."""
    fields = header._asdict()
    is_dir = header.type == DIRTYPE
    sparse = None
    for kind, record in ((XGLTYPE, global_pax), *reversed(pending)):
        if kind == GNUTYPE_LONGNAME or kind == GNUTYPE_LONGLINK:
            fields["name" if kind == GNUTYPE_LONGNAME else "linkname"] = _nts(record)
            if is_dir:
                fields["name"] = fields["name"].removesuffix("/")
            continue
        for keyword, value in record.items():
            if keyword in _PAX_STRINGS:
                fields[_PAX_STRINGS[keyword]] = value.rstrip("/") if keyword == "path" else value
            elif keyword in _PAX_NUMBERS:
                try:
                    fields[keyword] = _PAX_NUMBERS[keyword](value)
                except ValueError:
                    fields[keyword] = 0
            elif keyword.startswith("GNU.sparse."):
                sparse = record
                if keyword == "GNU.sparse.name":
                    fields["name"] = value
        if kind == XGLTYPE:
            if is_dir:
                fields["name"] = fields["name"].rstrip("/")
        elif "size" in record and has_data:
            next_offset = header.offset_data + _blocks(fields["size"])
    if sparse is not None:
        fields["sparse"], fields["offset_data"], fields["size"] = _pax_sparse_map(
            tar, sparse, header.offset_data, min(next_offset, len(tar)), fields["size"], offset)
    return TarHeader(**fields), next_offset


def read_tar_headers(tar: bytes) -> Iterator[TarHeader]:
    """Yield the members of an uncompressed tar stream as ``tarfile`` lists
    them, without building a ``TarInfo`` per header.

    Each header block is unpacked with one ``struct`` and its checksum is
    checked, accepting the unsigned or the signed sum. Numbers are octal or
    GNU base-256. GNU long-name (``L``) and long-link (``K``) records and pax
    extended (``x``) and global (``g``) records are folded into the member
    they precede; a ustar ``prefix`` is joined to the name, and an old-style
    regular member whose name ends in "/" is a directory. A GNU sparse
    member (an old GNU ``S`` header, or pax format 0.0, 0.1 or 1.0) has its
    map in ``sparse`` and its real size in ``size``.

    The stream ends at its end, at a zero block or at a trailing partial
    block of NULs. A bad checksum or number, a partial header, a record that
    no member follows, member data past the end, or a sparse map that is
    damaged or does not fit its member raise ``TarHeaderError`` wherever
    they are; tarfile raises only at the first header and otherwise stops
    there without a word. An empty stream raises too; one that starts with a
    zero block has no members.
    """
    end = len(tar)
    unpack = _HEADER.unpack_from
    global_pax: dict[str, str] = {}
    offset = 0
    pending: list[tuple[bytes, object]] = []  # the L, K and x records read so far
    awaiting = False  # a record, global ones too, was read and no member yet
    while True:
        block = tar[offset:offset + BLOCKSIZE]
        if len(block) < BLOCKSIZE or block == _ZERO_BLOCK:
            if offset == 0 and block != _ZERO_BLOCK:
                raise TarHeaderError("empty stream" if not block else "truncated header at offset 0")
            if awaiting:
                raise TarHeaderError(f"no member header follows the record before offset {offset}")
            if block.count(0) != len(block):
                raise TarHeaderError(f"truncated header at offset {offset}")
            return
        (name, mode, uid, gid, size, mtime, chksum, type_, linkname, _magic, uname, gname,
         devmajor, devminor, prefix) = unpack(block)
        stored = _nti(chksum, offset)
        unsigned = _byte_sum(block) - sum(chksum) + 256
        if stored != unsigned and stored != unsigned - 256 * len(
                (block[:148] + block[156:]).translate(None, _ASCII)):
            raise TarHeaderError(f"bad checksum in the header at offset {offset}")
        mode = _nti(mode, offset)
        uid = _nti(uid, offset)
        gid = _nti(gid, offset)
        size = _nti(size, offset)
        mtime = _nti(mtime, offset)
        devmajor = _nti(devmajor, offset)
        devminor = _nti(devminor, offset)
        offset_data = offset + BLOCKSIZE

        if type_ in (GNUTYPE_LONGNAME, GNUTYPE_LONGLINK) or type_ in _PAX_TYPES:
            if size < 0:
                raise TarHeaderError(f"negative size in the header at offset {offset}")
            offset = offset_data + _blocks(size)
            payload = tar[offset_data:offset]
            awaiting = True
            if type_ == XGLTYPE:
                _pax_records(payload, global_pax, offset_data - BLOCKSIZE)
            elif type_ in _PAX_TYPES:
                records: dict = {}
                _pax_records(payload, records, offset_data - BLOCKSIZE)
                pending.append((type_, {**global_pax, **records}))
            else:
                pending.append((type_, payload))
            continue

        name = _nts(name)
        if type_ == AREGTYPE and name.endswith("/"):
            type_ = DIRTYPE
        sparse = None
        if type_ == GNUTYPE_SPARSE:
            # An old GNU header keeps its map where ustar keeps the prefix.
            sparse, real_size, offset_data = _old_gnu_map(tar, block, offset_data, offset)
        elif prefix[0]:
            name = _nts(prefix) + "/" + name
        if type_ == DIRTYPE:
            name = name.rstrip("/")
        linkname = _nts(linkname) if linkname[0] else ""
        uname = _nts(uname) if uname[0] else ""
        gname = _nts(gname) if gname[0] else ""
        has_data = type_ not in _NO_DATA_TYPES
        next_offset = offset_data + _blocks(size) if has_data else offset_data

        header = TarHeader(name, type_, mode, uid, gid, size if sparse is None else real_size,
                           mtime, linkname, uname, gname, devmajor, devminor, offset_data, sparse)
        if pending or global_pax:
            header, next_offset = _fold_records(tar, header, global_pax, pending, has_data,
                                                next_offset, offset)
            pending.clear()
        awaiting = False
        if next_offset < offset_data:
            raise TarHeaderError(f"negative size in the header at offset {offset}")
        if next_offset > end:
            raise TarHeaderError(f"the data of {header.name!r} runs past the end of the stream")
        # A sparse map must fit: each region in the file and the bytes of all
        # in the data blocks, which tarfile would read past.
        regions = header.sparse
        if regions is not None and (
                header.size < 0 or sum(n for _, n in regions) > next_offset - header.offset_data
                or any(at < 0 or n < 0 or at + n > header.size for at, n in regions)):
            raise TarHeaderError(f"the sparse map in the header at offset {offset} does not fit")
        yield header
        offset = next_offset


def _itn(n: int, digits: int) -> bytes:
    """A number field as tarfile's ``itn`` writes it in GNU format: octal
    with a NUL, or base-256 after a 0o200 or 0o377 byte when octal is too
    narrow."""
    if 0 <= n < 8 ** (digits - 1):
        return b"%0*o\0" % (digits - 1, n)
    if -256 ** (digits - 1) <= n < 256 ** (digits - 1):
        lead = b"\x80" if n >= 0 else b"\xff"
        return lead + (n % 256 ** (digits - 1)).to_bytes(digits - 1, "big")
    raise ValueError("overflow in number field")


def _header_block(name: bytes, type_: bytes, mode: int, uid: int, gid: int, size: int,
                  mtime: int, linkname: bytes, uname: bytes, gname: bytes,
                  devmajor: bytes, devminor: bytes) -> bytes:
    block = _HEADER.pack(name, _itn(mode & 0o7777, 8), _itn(uid, 8), _itn(gid, 8),
                         _itn(size, 12), _itn(mtime, 12), b"        ", type_, linkname,
                         tarfile.GNU_MAGIC, uname, gname, devmajor, devminor, b"")
    # The checksum sums the block with its own field read as eight spaces.
    return block[:148] + b"%06o\0 " % _byte_sum(block) + block[156:]


def _gnu_long_record(value: bytes, type_: bytes) -> bytes:
    """A GNU ``L`` or ``K`` record: a header, then ``value`` and a NUL
    padded to whole blocks."""
    value += b"\0"
    return (_header_block(b"././@LongLink", type_, 0, 0, 0, len(value), 0, b"", b"", b"",
                          b"", b"")
            + value + bytes(-len(value) % BLOCKSIZE))


def gnu_header(name: str, type_: bytes, mode: int, uid: int = 0, gid: int = 0, size: int = 0,
               mtime: int = 0, linkname: str = "", uname: str = "", gname: str = "",
               devmajor: int = 0, devminor: int = 0) -> bytes:
    """The header blocks of one member, byte for byte what
    ``TarInfo.tobuf(GNU_FORMAT, tarfile.ENCODING, "surrogateescape")`` gives
    for the same fields: a directory name ends in "/", a name or link name
    over 100 bytes is carried by a GNU long-link and then long-name record
    before the header (whose own field keeps the first 100 bytes), numbers
    too wide for octal are base-256, and the device fields are filled only
    for character and block devices."""
    if type_ == DIRTYPE and not name.endswith("/"):
        name += "/"
    bname = name.encode(_ENCODING, _ERRORS)
    blink = linkname.encode(_ENCODING, _ERRORS)
    if type_ == CHRTYPE or type_ == BLKTYPE:
        major, minor = _itn(devmajor, 8), _itn(devminor, 8)
    else:
        major = minor = b""
    header = _header_block(bname, type_, mode, uid, gid, size, mtime, blink,
                           uname.encode(_ENCODING, _ERRORS), gname.encode(_ENCODING, _ERRORS),
                           major, minor)
    if len(bname) > tarfile.LENGTH_NAME:
        header = _gnu_long_record(bname, GNUTYPE_LONGNAME) + header
    if len(blink) > tarfile.LENGTH_LINK:
        header = _gnu_long_record(blink, GNUTYPE_LONGLINK) + header
    return header


def tar_stream(members: Iterable[tuple[bytes, object]]) -> Iterator[bytes]:
    """The tar stream ``tarfile`` writes for (header blocks, data) members,
    in chunks: each header, then the data padded with NULs to a whole block,
    and at the end two zero blocks and NULs up to a whole record.

    ``data`` is a sized range: anything with ``len()`` whose slices are
    bytes, such as ``bytes`` or a ``_FileBytes`` view of a layer. Members
    are read as the chunks are asked for, each member's data ``_CHUNK``
    bytes at a time, so no member is held whole. Parts are joined into
    chunks of at least ``_CHUNK`` bytes, but the last.
    """
    chunk: list[bytes] = []
    size = offset = 0  # the bytes in ``chunk``, and those yielded before it
    for header, data in members:
        chunk.append(header)
        size += len(header)
        length = len(data)
        for at in range(0, length, _CHUNK):
            chunk.append(data[at:at + _CHUNK])
            size += min(length - at, _CHUNK)
            if size >= _CHUNK:
                yield b"".join(chunk)
                offset += size
                chunk, size = [], 0
        if length % BLOCKSIZE:
            chunk.append(bytes(BLOCKSIZE - length % BLOCKSIZE))
            size += BLOCKSIZE - length % BLOCKSIZE
        if size >= _CHUNK:
            yield b"".join(chunk)
            offset += size
            chunk, size = [], 0
        del data  # not held while the next member's data is read
    chunk.append(bytes(2 * BLOCKSIZE + -(offset + size + 2 * BLOCKSIZE) % RECORDSIZE))
    yield b"".join(chunk)


# --- streaming decompression into spools ------------------------------------
#
# A spool is an unlinked temporary file that holds one decompressed stream.
# It is written once, in chunks, and then read as ``bytes`` slices through
# ``_FileBytes``, so no decompressed layer or archive is ever held whole.

# Compressed streams that tarfile's "r:*" mode opens: the magic bytes of
# each and the module that decompresses it. bz2 and lzma are imported only
# when their magic is seen.
_COMPRESSIONS = ((b"\x1f\x8b", "gzip"), (b"BZh", "bz2"), (b"\xfd7zXZ\x00", "lzma"))
_GZIP_TRUNCATED = "Compressed file ended before the end-of-stream marker was reached"
_STREAM_TRUNCATED = "Compressed data ended before the end-of-stream marker was reached"


class _FileBytes:
    """An open file, or ``size`` bytes of it from ``start``, read as
    ``bytes`` slices, so that ``read_tar_headers`` lists an image archive, a
    layer stored in one or a spooled layer by reading its header blocks
    alone; each member's bytes are read when they are asked for. A ``view``
    shares the file, which only the whole file's owner closes."""

    def __init__(self, file, start: int = 0, size: int | None = None):
        self.file = file
        self.start = start
        self._size = os.fstat(file.fileno()).st_size if size is None else size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, span: slice) -> bytes:
        start = span.start or 0
        stop = self._size if span.stop is None else min(span.stop, self._size)
        if stop <= start:
            return b""
        self.file.seek(self.start + start)
        return self.file.read(stop - start)

    def view(self, start: int, size: int) -> _FileBytes:
        return _FileBytes(self.file, self.start + start, size)

    def reader(self) -> _RangeReader:
        return _RangeReader(self.file, self.start, self.start + self._size)

    def close(self) -> None:
        self.file.close()


class _RangeReader:
    """A file read from ``start`` up to ``end`` alone, through the ``read``
    and ``seek`` the decompressors use; each read seeks first, so readers of
    one file do not disturb each other."""

    def __init__(self, file, start: int, end: int):
        self.file, self.start, self.end = file, start, end
        self.position = start

    def read(self, size: int) -> bytes:
        self.file.seek(self.position)
        data = self.file.read(max(0, min(size, self.end - self.position)))
        self.position += len(data)
        return data

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> None:
        self.position = (self.position if whence == io.SEEK_CUR else self.start) + offset


class _Spool:
    """A new spool being written: each write is hashed as it goes, and the
    writes since a ``mark`` can be taken back."""

    def __init__(self):
        import tempfile

        try:
            self.file = tempfile.TemporaryFile()
        except OSError as exc:
            raise SpoolError(f"cannot create a temporary file: {exc}") from exc
        self.sha256 = hashlib.sha256()

    def write(self, data: bytes) -> None:
        self.sha256.update(data)
        try:
            self.file.write(data)
        except OSError as exc:
            raise SpoolError(f"cannot write a temporary file: {exc}") from exc

    def mark(self):
        return self.file.tell(), self.sha256.copy()

    def reset(self, mark) -> None:
        position, self.sha256 = mark
        self.file.seek(position)
        self.file.truncate()

    def finish(self) -> _FileBytes:
        try:
            self.file.flush()
        except OSError as exc:
            raise SpoolError(f"cannot write a temporary file: {exc}") from exc
        return _FileBytes(self.file)

    def discard(self) -> None:
        try:
            self.file.close()
        except OSError:  # flushing what a full disk refused
            pass


def _skip_past_nul(src) -> None:
    """Move the file ``src`` past its next NUL, or to its end."""
    while data := src.read(_CHUNK):
        at = data.find(b"\0")
        if at >= 0:
            src.seek(at + 1 - len(data), io.SEEK_CUR)
            return


def _skip_nuls(src) -> None:
    """Move the file ``src`` past the NULs in front of it."""
    while data := src.read(_CHUNK):
        rest = data.lstrip(b"\0")
        if rest:
            src.seek(-len(rest), io.SEEK_CUR)
            return


def _gzip_header(src) -> bool:
    """Skip one gzip member header in the file ``src`` as ``gzip.decompress``
    does (its header CRC is skipped, not checked); False at the end."""
    magic = src.read(2)
    if not magic:
        return False
    if magic != b"\x1f\x8b":
        raise gzip.BadGzipFile(f"Not a gzipped file ({magic!r})")
    fixed = src.read(8)  # method, flags, mtime, extra flags, OS
    if len(fixed) < 8:
        raise EOFError(_GZIP_TRUNCATED)
    if fixed[0] != 8:
        raise gzip.BadGzipFile("Unknown compression method")
    flags = fixed[1]
    if flags & gzip.FEXTRA:
        length = src.read(2)
        extra = int.from_bytes(length, "little")
        if len(length) < 2 or len(src.read(extra)) < extra:
            raise EOFError(_GZIP_TRUNCATED)
    for flag in (gzip.FNAME, gzip.FCOMMENT):
        if flags & flag:
            _skip_past_nul(src)
    if flags & gzip.FHCRC and len(src.read(2)) < 2:
        raise EOFError(_GZIP_TRUNCATED)
    return True


def _gunzip(src, out: _Spool) -> None:
    """Write what ``gzip.decompress`` returns, or raise what it raises: the
    members one after another, NULs between them skipped, each member's
    CRC-32 and length checked. Each step inflates at most ``_CHUNK`` bytes."""
    while _gzip_header(src):
        inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        crc = size = 0
        while not inflater.eof:
            data = src.read(_CHUNK)
            if not data:
                raise EOFError(_GZIP_TRUNCATED)
            while True:
                piece = inflater.decompress(data, _CHUNK)
                crc = zlib.crc32(piece, crc)
                size += len(piece)
                out.write(piece)
                data = inflater.unconsumed_tail
                # A full piece may leave output behind with no input left.
                if inflater.eof or (not data and len(piece) < _CHUNK):
                    break
        src.seek(-len(inflater.unused_data), io.SEEK_CUR)
        trailer = src.read(8)
        if len(trailer) < 8:
            raise EOFError(_GZIP_TRUNCATED)
        if int.from_bytes(trailer[:4], "little") != crc:
            raise gzip.BadGzipFile("CRC check failed")
        if int.from_bytes(trailer[4:], "little") != size & 0xFFFFFFFF:
            raise gzip.BadGzipFile("Incorrect length of data produced")
        _skip_nuls(src)


def _unchain(src, compression: str, out: _Spool) -> None:
    """Write what ``bz2.decompress`` or ``lzma.decompress`` returns, or raise
    what it raises: streams one after another up to the end of the input,
    where input after a whole stream that its decoder refuses is dropped,
    with the output it gave. Each step decodes at most ``_CHUNK`` bytes."""
    module = importlib.import_module(compression)
    if compression == "bz2":
        decoder_type, refused, truncated = module.BZ2Decompressor, OSError, ValueError
    else:
        decoder_type, refused, truncated = module.LZMADecompressor, module.LZMAError, module.LZMAError
    first = True
    while True:
        decoder = decoder_type()
        mark = out.mark()
        ended = False  # the input is used up
        while not decoder.eof:
            data = b""
            if decoder.needs_input and not ended:
                data = src.read(_CHUNK)
                ended = not data
            try:
                piece = decoder.decompress(data, _CHUNK)
            except refused:
                if first:
                    raise
                out.reset(mark)
                return
            out.write(piece)
            # bz2 asks for input once it has taken all it was given, even
            # with output still held back, so the end of the input is the
            # end of the stream only when no more output comes.
            if ended and not piece and decoder.needs_input and not decoder.eof:
                raise truncated(_STREAM_TRUNCATED)
        first = False
        src.seek(-len(decoder.unused_data), io.SEEK_CUR)
        if not src.read(1):
            return
        src.seek(-1, io.SEEK_CUR)


def _decompress(source, compression: str) -> tuple[_FileBytes, str]:
    """Decompress ``source`` (``bytes`` or ``_FileBytes``) into a new spool,
    reading it ``_CHUNK`` bytes at a time and seeking back over what a
    decoder did not use; ``compression`` names the module whose
    ``decompress`` this accepts and refuses exactly what it does. Returns
    the spool and the sha256 digest of the bytes it holds."""
    src = source.reader() if isinstance(source, _FileBytes) else io.BytesIO(source)
    out = _Spool()
    try:
        if compression == "gzip":
            _gunzip(src, out)
        else:
            _unchain(src, compression, out)
        return out.finish(), "sha256:" + out.sha256.hexdigest()
    except BaseException:
        out.discard()
        raise


def _uncompressed(source):
    """The tar stream in ``source`` (``bytes`` or ``_FileBytes``): ``source``,
    or a new spool of what it decompresses to when it starts with the gzip,
    bzip2 or xz magic, as tarfile opens it; like tarfile, a plain tar stream
    whose first name happens to start with a magic is read as it is."""
    compression = next((name for magic, name in _COMPRESSIONS
                        if source[0:len(magic)] == magic), None)
    if compression is None:
        return source
    # lzma's own error is not an OSError; gzip's and bz2's are.
    errors = (OSError, EOFError, ValueError, zlib.error)
    if compression == "lzma":
        errors += (importlib.import_module("lzma").LZMAError,)
    try:
        return _decompress(source, compression)[0]
    except errors as exc:
        try:
            next(read_tar_headers(source), None)
        except TarHeaderError:
            raise TarHeaderError(f"cannot decompress: {exc}") from exc
    return source

# --- image model and layer flattening ---------------------------------------


def sha256_digest(data: bytes | _FileBytes) -> str:
    """The digest of ``data``, read ``_CHUNK`` bytes at a time."""
    sha256 = hashlib.sha256()
    for at in range(0, len(data), _CHUNK):
        sha256.update(data[at:at + _CHUNK])
    return "sha256:" + sha256.hexdigest()


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
    """One layer: its identity digests, its blob as stored (``source``, a
    range of the image archive) and its tar stream, which is ``source`` or
    a spool of what it decompresses to that ``close`` closes. Both are read
    as ``bytes`` slices; neither is held in memory."""

    media_type: str
    digest: str  # digest of the blob bytes as stored
    diff_id: str  # digest of the uncompressed tar stream
    source: bytes | _FileBytes = field(repr=False, compare=False)
    tar: bytes | _FileBytes = field(repr=False, compare=False)

    @property
    def data(self) -> bytes:
        """The stored blob, read whole."""
        return self.source[:]

    def close(self) -> None:
        if self.tar is not self.source and isinstance(self.tar, _FileBytes):
            self.tar.close()


@dataclass
class LayerStack:
    """Ordered layers, base first, and the image archive file (or a spool of
    it) whose ranges they are. The stack owns that file and the layers'
    spools: ``close`` closes them, after which no file of a rootfs
    flattened from the stack can be read. It is a context manager that
    closes on exit."""

    layers: list[LayerBlob]
    archive: _FileBytes | None = field(default=None, repr=False)
    closed: bool = field(default=False, init=False)

    @property
    def diff_ids(self) -> list[str]:
        return [layer.diff_id for layer in self.layers]

    def close(self) -> None:
        self.closed = True
        for layer in self.layers:
            layer.close()
        if self.archive is not None:
            self.archive.close()

    def __enter__(self) -> LayerStack:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _LayerContent(Mapping[str, "_FileBytes | bytes | bytearray"]):
    """The regular files of a rootfs flattened from ``stack``, each a sized
    range of its layer's tar stream. ``refs`` maps each path to its (tar
    stream, data offset, size, sparse map) reference. Looking a path up
    reads nothing: it gives a ``_FileBytes.view`` of the stream (a slice
    when the stream is ``bytes``), read when it is sliced. A sparse file's
    stored regions are laid out once, in turn over NUL holes, into a
    ``bytearray``; one too large for memory raises ``OversizedFileError``.
    Looking a path up once the stack is closed raises ``ValueError``."""

    def __init__(self, refs: dict[str, tuple], stack: LayerStack):
        self._refs = refs
        self._stack = stack

    def __getitem__(self, path: str) -> _FileBytes | bytes | bytearray:
        tar, offset, size, sparse = self._refs[path]
        if self._stack.closed:
            raise ValueError(f"cannot read {path}: its layer stack is closed")
        if sparse is None:
            return tar.view(offset, size) if isinstance(tar, _FileBytes) else tar[offset:offset + size]
        try:
            data = bytearray(size)
        except (MemoryError, OverflowError):
            raise OversizedFileError(
                f"{path}: a sparse file of {size} bytes does not fit in memory") from None
        for at, length in sparse:
            data[at:at + length] = tar[offset:offset + length]
            offset += length
        return data

    def __contains__(self, path) -> bool:
        return path in self._refs

    def __iter__(self) -> Iterator[str]:
        return iter(self._refs)

    def __len__(self) -> int:
        return len(self._refs)


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

    ``entries`` maps path -> record in path order; ``content`` maps each
    regular file's path to its bytes as a sized range: anything with
    ``len()`` whose slices are bytes. ``flatten_layers`` fills it with a
    mapping whose ranges are views of the layers' tar streams, so the
    rootfs holds no file bytes and its ``LayerStack`` must stay open while
    the ranges ``data_for`` gives are read; a ``dict`` of bytes will do as
    well. ``symlink_table`` maps each symlink entry to its absolute,
    normalized target and is derived from ``entries`` on construction.

    A rootfs is never mutated after construction; a different set of entries
    (such as the retained view a prune report counts) is a new object. The
    private cache ``_dir_cache`` relies on that and is filled on first use:
    it maps a directory spelling to its physical directory and the symlink
    hops crossed (``rootfs.resolve_entry``).
    """

    entries: dict[str, FileRecord]
    content: Mapping[str, _FileBytes | bytes | bytearray] = field(default_factory=dict)
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

    def data_for(self, path: str) -> _FileBytes | bytes | bytearray:
        """The bytes of a regular file as a sized range, following
        hardlinks: ``len()`` gives its size and a slice reads that part
        (``data_for(path)[:]`` the whole file). Once the stack of a
        flattened rootfs is closed, this raises ``ValueError``, and so does
        reading a range it gave before."""
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
    # ``path`` is clean and absolute (``_clean_member_path``), so its parent
    # is everything before the last "/", or "/" when that is empty.
    parent = path[:path.rfind("/")] or "/"
    missing = []
    while parent != "/" and parent not in entries:
        missing.append(parent)
        parent = parent[:parent.rfind("/")] or "/"
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


def _apply_layer(index: int, members: list[TarHeader], tar: bytes | _FileBytes, entries: dict,
                 content: dict, warnings: list[str]) -> None:
    """Apply the members of one layer to the flattened state in place.

    ``content`` maps a regular file to a reference into ``tar``, the
    layer's tar stream: (``tar``, data offset, size, sparse map or None).
    No member's data is read.
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
                _pop_range(entries, content, keys, parent.rstrip("/") + "/")
            else:
                target = posixpath.join(parent, base[len(WHITEOUT_PREFIX):])
                entries.pop(target, None)
                content.pop(target, None)
                _pop_range(entries, content, keys, target + "/")

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
            _delete_subtree(entries, content, path)
        elif existing is not None and kind != existing.kind:
            content.pop(path, None)

        link_target = None
        if kind == KIND_SYMLINK:
            link_target = linkname
        elif kind == KIND_HARDLINK:
            link_target = _clean_member_path(linkname)

        record = FileRecord(
            path=path,
            kind=kind,
            mode=mode,
            size=size if kind == KIND_REGULAR else 0,
            link_target=link_target,
            uid=uid,
            gid=gid,
            mtime=int(mtime),
            uname=uname,
            gname=gname,
            devmajor=devmajor,
            devminor=devminor,
            block_device=type_ == BLKTYPE,
        )
        _ensure_parents(entries, path)
        entries[path] = record
        if kind == KIND_REGULAR:
            content[path] = (tar, offset_data, size, sparse)


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

    Memory: the entries and one reference per regular file into its
    layer's tar stream (offset, size and sparse map); no file's bytes are
    read here. ``content`` gives each file as a range of its layer, read
    when it is sliced, while ``stack`` is open; it raises once the stack is
    closed.
    """
    entries: dict[str, FileRecord] = {}
    refs: dict[str, tuple] = {}
    warnings: list[str] = []

    for index, layer in enumerate(stack.layers):
        try:
            _apply_layer(index, list(read_tar_headers(layer.tar)), layer.tar, entries, refs,
                         warnings)
        except TarHeaderError as exc:
            raise ImageFormatError(f"layer {index}: not a readable tar stream: {exc}") from exc

    total = sum(r.size for r in entries.values() if r.kind == KIND_REGULAR)
    return FlattenedRootfs(entries=entries, content=_LayerContent(refs, stack), total_size=total,
                           warnings=warnings)


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


def _member_view(archive: _FileBytes, members: dict[str, TarHeader], name: str) -> _FileBytes:
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
    if member.type in _NO_DATA_TYPES:
        raise ImageFormatError(f"archive member {name!r} is not a readable file")
    return archive.view(member.offset_data, member.size)


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


def _layer_from_blob(source: bytes | _FileBytes, media_type: str,
                     verified_digest: str | None) -> LayerBlob:
    """One layer and its tar stream; ``source`` is the blob as stored (bytes,
    or its range of the archive) and ``verified_digest`` the digest
    ``_read_blob`` already checked it against, or None to hash it here. A
    gzip layer is decompressed once, from its range into a spool, and its
    diff_id is hashed on the way; then ``_uncompressed`` reads the magic."""
    digest = verified_digest or sha256_digest(source)
    stored, diff_id = source, digest
    if media_type in MEDIA_LAYER_GZIP:
        stored, diff_id = _decompress(source, "gzip")
    tar = None
    try:
        tar = _uncompressed(stored)
    finally:
        if tar is not stored and stored is not source:
            stored.close()
    return LayerBlob(media_type, digest, diff_id, source, tar)


def _add_layers(stack: LayerStack, blobs, cfg: dict) -> None:
    """Add the layers of (source, media type, verified digest or None)
    triples to ``stack``, base first, and check them against the diff_ids
    the config declares."""
    for index, (source, media_type, verified_digest) in enumerate(blobs):
        try:
            stack.layers.append(_layer_from_blob(source, media_type, verified_digest))
        except TarHeaderError as exc:
            raise ImageFormatError(f"layer {index}: not a readable tar stream: {exc}") from exc
        except _LAYER_STREAM_ERRORS as exc:
            raise ImageFormatError(f"layer {index}: cannot decompress: {exc}") from exc
    declared = (cfg.get("rootfs") or {}).get("diff_ids") or []
    if declared and declared != stack.diff_ids:
        raise IntegrityError(
            f"rootfs diff_ids mismatch: config declares {declared}, layers are {stack.diff_ids}"
        )


def _load_docker_layout(archive: _FileBytes, members: dict, stack: LayerStack) -> ImageMetadata:
    manifest = json.loads(_member_view(archive, members, "manifest.json")[:])
    if not isinstance(manifest, list) or not manifest:
        raise ImageFormatError("manifest.json is not a non-empty list")
    if len(manifest) > 1:
        raise UnsupportedFormatError("multi-image archives are not supported")
    entry = manifest[0]

    config_name = entry.get("Config")
    if not config_name:
        raise ImageFormatError("manifest.json entry has no Config member")
    cfg = json.loads(_member_view(archive, members, config_name)[:])

    repo_tags = entry.get("RepoTags") or []
    name, tag = _split_reference(repo_tags[0]) if repo_tags else ("", "")

    blobs = []
    for layer_name in entry.get("Layers") or []:
        source = _member_view(archive, members, layer_name)
        media = "application/vnd.oci.image.layer.v1.tar"
        blobs.append((source, media + "+gzip" if source[0:2] == b"\x1f\x8b" else media, None))
    _add_layers(stack, blobs, cfg)
    return _metadata_from_config(cfg, name, tag)


def _load_oci_layout(archive: _FileBytes, members: dict, stack: LayerStack) -> ImageMetadata:
    index = json.loads(_member_view(archive, members, "index.json")[:])
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

    manifest = json.loads(_read_blob(archive, members, desc["digest"])[:])
    if manifest.get("schemaVersion") != 2:
        raise UnsupportedFormatError(
            f"unsupported manifest schemaVersion {manifest.get('schemaVersion')!r}"
        )

    cfg_desc = manifest.get("config") or {}
    cfg = json.loads(_read_blob(archive, members, cfg_desc["digest"])[:])

    blobs = []
    for layer_desc in manifest.get("layers") or []:
        lmedia = layer_desc.get("mediaType", "")
        if lmedia not in MEDIA_LAYER_TAR and lmedia not in MEDIA_LAYER_GZIP:
            raise UnsupportedFormatError(f"unknown layer media type {lmedia!r}")
        # _read_blob has checked the bytes against the declared digest.
        source = _read_blob(archive, members, layer_desc["digest"])
        blobs.append((source, lmedia, layer_desc["digest"]))
    _add_layers(stack, blobs, cfg)
    return _metadata_from_config(cfg, name, tag)


def _read_blob(archive: _FileBytes, members: dict, digest: str) -> _FileBytes:
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
    stream is made here: a gzip layer is decompressed once, a chunk at a
    time, from its range into a spool that ``flatten_layers`` reads, and its
    diff_id is hashed on the way. Blob digests are hashed a chunk at a time
    too, so memory holds the manifest, the config and one chunk, never a
    layer blob. The returned ``LayerStack`` keeps the archive file (or its
    spool) and the layers' spools open until it is closed; the archive must
    not change meanwhile.
    """
    file = open(archive_path, "rb")
    stack = LayerStack(layers=[], archive=_FileBytes(file))
    try:
        archive = _uncompressed(stack.archive)
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
    except _LAYER_STREAM_ERRORS as exc:
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


def _spool_layer(chunks: Iterable[bytes], gzip_layer: bool) -> tuple[_FileBytes, str, str]:
    """The layer of the tar stream given in ``chunks``, spooled a chunk at a
    time, with its digest and the stream's (its diff_id). With
    ``gzip_layer`` the spool holds what ``gzip.compress(tar, mtime=0)``
    gives, and the stream is hashed apart on the way; otherwise it holds
    the stream, and the two digests are one. The caller closes the
    spool."""
    spool = _Spool()
    try:
        if gzip_layer:
            compressor = zlib.compressobj(9, zlib.DEFLATED, 31)
            tar_sha256 = hashlib.sha256()
            for chunk in chunks:
                tar_sha256.update(chunk)
                spool.write(compressor.compress(chunk))
                del chunk  # not held while the next chunk is made
            spool.write(compressor.flush())
        else:
            for chunk in chunks:
                spool.write(chunk)
                del chunk
            tar_sha256 = spool.sha256
        layer = spool.finish()
    except BaseException:
        spool.discard()
        raise
    return layer, "sha256:" + spool.sha256.hexdigest(), "sha256:" + tar_sha256.hexdigest()


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
    level-9 gzip compressor with ``gzip_layer``) and hashed on the way: the
    spool's bytes for the layer digest, the stream apart for the diff_id
    under gzip. The layer's size and digest name and place it in the
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
    layer, layer_digest, diff_id = _spool_layer(itertools.chain((first,), chunks), gzip_layer)
    del first
    with closing(layer):
        _write_layout(out, metadata, layout, layer, layer_digest, diff_id, gzip_layer)


def _write_layout(out, metadata: ImageMetadata, layout: str, layer: _FileBytes,
                  layer_digest: str, diff_id: str, gzip_layer: bool) -> None:
    """Write the archive of ``build_slim_image`` around its spooled layer."""
    config_bytes = _config_json(metadata, [diff_id])

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
