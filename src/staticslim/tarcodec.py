"""The tar format: one ``struct``-based codec lists the members of a tar
stream (``read_tar_headers``) and writes them (``gnu_header``,
``tar_stream``) byte for byte as ``tarfile`` does, GNU sparse maps and pax
records included. It reads header blocks alone, never a member's data;
``tarfile`` lends it constants only.
"""

from __future__ import annotations

import re
import struct
import tarfile
import zlib
from tarfile import (
    AREGTYPE,
    BLKTYPE,
    BLOCKSIZE,
    CHRTYPE,
    DIRTYPE,
    GNUTYPE_LONGLINK,
    GNUTYPE_LONGNAME,
    GNUTYPE_SPARSE,
    RECORDSIZE,
    XGLTYPE,
)
from typing import Iterable, Iterator, NamedTuple

from .errors import ImageFormatError


class TarHeaderError(ImageFormatError):
    """A tar stream has a damaged or truncated header or sparse map, or its
    member data runs past the end of the stream."""



# One 512-byte header block: name, mode, uid, gid, size, mtime, chksum,
# typeflag, linkname, magic and version, uname, gname, devmajor, devminor,
# prefix and 12 unused bytes. Packing pads or cuts each string field to its
# width with NULs, as tarfile's ``stn`` does.
_HEADER = struct.Struct("100s8s8s8s12s12s8sc100s8s32s32s8s8s155s12x")
_ZERO_BLOCK = bytes(BLOCKSIZE)
# The bytes of a member's data ``tar_stream`` reads per step, and the least
# it yields per chunk; ``streams`` reads, decodes and writes in the same steps.
CHUNK = 1 << 18
_ASCII = bytes(range(128))
# Member names are encoded as tarfile encodes them by default.
_ENCODING = tarfile.ENCODING
_ERRORS = "surrogateescape"
# Types whose data blocks follow the header (tarfile's ``isreg()`` types plus
# any type it does not know); the others own no data blocks.
NO_DATA_TYPES = frozenset(tarfile.SUPPORTED_TYPES) - frozenset(tarfile.REGULAR_TYPES)
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
        (name, mode_field, uid_field, gid_field, size_field, mtime_field, chksum, type_, linkname,
         _magic, uname, gname, devmajor_field, devminor_field, prefix) = unpack(block)
        # Plain octal fields, nearly all of them, decode here; any other
        # field (base-256, blanks, garbage) sends the header the long way,
        # which tests the checksum before any other number.
        try:
            stored = int(chksum.partition(b"\0")[0] or b"0", 8)
            mode = int(mode_field.partition(b"\0")[0] or b"0", 8)
            uid = int(uid_field.partition(b"\0")[0] or b"0", 8)
            gid = int(gid_field.partition(b"\0")[0] or b"0", 8)
            size = int(size_field.partition(b"\0")[0] or b"0", 8)
            mtime = int(mtime_field.partition(b"\0")[0] or b"0", 8)
            devmajor = int(devmajor_field.partition(b"\0")[0] or b"0", 8)
            devminor = int(devminor_field.partition(b"\0")[0] or b"0", 8)
            plain = True
        except ValueError:
            stored = _nti(chksum, offset)
            plain = False
        unsigned = _byte_sum(block) - sum(chksum) + 256
        if stored != unsigned and stored != unsigned - 256 * len(
                (block[:148] + block[156:]).translate(None, _ASCII)):
            raise TarHeaderError(f"bad checksum in the header at offset {offset}")
        if not plain:
            mode = _nti(mode_field, offset)
            uid = _nti(uid_field, offset)
            gid = _nti(gid_field, offset)
            size = _nti(size_field, offset)
            mtime = _nti(mtime_field, offset)
            devmajor = _nti(devmajor_field, offset)
            devminor = _nti(devminor_field, offset)
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
        has_data = type_ not in NO_DATA_TYPES
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
    bytes, such as ``bytes`` or a ``streams.FileBytes`` view of a layer.
    Members are read as the chunks are asked for, each member's data
    ``CHUNK`` bytes at a time, so no member is held whole. Parts are joined
    into chunks of at least ``CHUNK`` bytes, but the last.
    """
    chunk: list[bytes] = []
    size = offset = 0  # the bytes in ``chunk``, and those yielded before it
    for header, data in members:
        chunk.append(header)
        size += len(header)
        length = len(data)
        for at in range(0, length, CHUNK):
            chunk.append(data[at:at + CHUNK])
            size += min(length - at, CHUNK)
            if size >= CHUNK:
                yield b"".join(chunk)
                offset += size
                chunk, size = [], 0
        if length % BLOCKSIZE:
            chunk.append(bytes(BLOCKSIZE - length % BLOCKSIZE))
            size += BLOCKSIZE - length % BLOCKSIZE
        if size >= CHUNK:
            yield b"".join(chunk)
            offset += size
            chunk, size = [], 0
        del data  # not held while the next member's data is read
    chunk.append(bytes(2 * BLOCKSIZE + -(offset + size + 2 * BLOCKSIZE) % RECORDSIZE))
    yield b"".join(chunk)
