"""Byte streams: a file, or a range of it, read as ``bytes`` slices
(``FileBytes``), and spools, unlinked temporary files in ``TMPDIR`` written
a chunk at a time and hashed on the way: a gzip, bzip2 or xz stream decoded
into one (``decompress``), or the slim layer as its tar stream is made
(``spool_layer``). No stream is ever held whole in memory.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
import threading
import zlib
from typing import Iterable, Iterator

from .errors import SpoolError
from .tarcodec import CHUNK, TarHeaderError, read_tar_headers

# Compressed streams that tarfile's "r:*" mode opens: the magic bytes of
# each and its name; for bz2 and lzma the name of the module that decodes
# it, imported only when its magic is seen.
_COMPRESSIONS = ((b"\x1f\x8b", "gzip"), (b"BZh", "bz2"), (b"\xfd7zXZ\x00", "lzma"))
_STREAM_TRUNCATED = "Compressed data ended before the end-of-stream marker was reached"


class FileBytes:
    """An open file, or ``size`` bytes of it from ``start``, read as
    ``bytes`` slices, so that ``read_tar_headers`` lists an image archive, a
    layer stored in one or a spooled layer by reading its header blocks
    alone; each member's bytes are read when they are asked for. A ``view``
    shares the file, which only the whole file's owner closes; once it is
    closed, reading any view of it raises ``ValueError``. Each regular file
    of a flattened rootfs holds one view, so the class has slots."""

    __slots__ = ("file", "start", "_size")

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

    def view(self, start: int, size: int) -> FileBytes:
        return FileBytes(self.file, self.start + start, size)

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
    """A new spool being written: each write is hashed as it goes."""

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

    def finish(self) -> FileBytes:
        try:
            self.file.flush()
        except OSError as exc:
            raise SpoolError(f"cannot write a temporary file: {exc}") from exc
        return FileBytes(self.file)

    def discard(self) -> None:
        try:
            self.file.close()
        except OSError:  # flushing what a full disk refused
            pass


def _skip_nuls(src) -> None:
    """Move the file ``src`` past the NULs in front of it."""
    while data := src.read(CHUNK):
        rest = data.lstrip(b"\0")
        if rest:
            src.seek(-len(rest), io.SEEK_CUR)
            return


class _GzipDecoder:
    """One gzip member decoded by zlib, which checks its header, CRC-32 and
    length, behind the ``needs_input`` of bz2's and lzma's decoders: input
    zlib has not used yet is given back to it before any new input."""

    def __init__(self):
        self._zlib = zlib.decompressobj(16 + zlib.MAX_WBITS)

    def decompress(self, data: bytes, max_length: int) -> bytes:
        return self._zlib.decompress(self._zlib.unconsumed_tail + data, max_length)

    @property
    def needs_input(self) -> bool:
        # Like bz2, zlib may hold output back with no input left.
        return not self._zlib.unconsumed_tail

    @property
    def eof(self) -> bool:
        return self._zlib.eof

    @property
    def unused_data(self) -> bytes:
        return self._zlib.unused_data


def _unchain(src, compression: str, out: _Spool) -> None:
    """Write the gzip members or bz2 or xz streams of the file ``src`` one
    after another, each decoded whole. NULs after a stream are skipped.
    Input that then starts with the first stream's magic must be a whole
    stream too; any other input is refused after a gzip member, as
    ``gzip.decompress`` refuses it, and ignored after a bz2 or xz stream,
    as ``bz2.decompress`` and ``lzma.decompress`` ignore it. A stream cut
    short raises ``EOFError(_STREAM_TRUNCATED)``, a damaged one its
    decoder's error. Each step decodes at most ``CHUNK`` bytes of input
    and of output."""
    if compression == "gzip":
        decoder_type = _GzipDecoder
    else:
        module = importlib.import_module(compression)
        decoder_type = module.BZ2Decompressor if compression == "bz2" else module.LZMADecompressor
    magic = next(magic for magic, name in _COMPRESSIONS if name == compression)
    while True:
        decoder = decoder_type()
        piece = b""
        while not decoder.eof:
            data = src.read(CHUNK) if decoder.needs_input else b""
            # bz2 and zlib ask for input while they still hold output back, so
            # only a decoder that gives nothing more at the end of the input
            # is cut.
            if not data and decoder.needs_input and not piece:
                raise EOFError(_STREAM_TRUNCATED)
            piece = decoder.decompress(data, CHUNK)
            out.write(piece)
        src.seek(-len(decoder.unused_data), io.SEEK_CUR)
        _skip_nuls(src)
        head = src.read(len(magic))
        src.seek(-len(head), io.SEEK_CUR)
        if not head or (head != magic and compression != "gzip"):
            return


def decompress(source: FileBytes, compression: str) -> tuple[FileBytes, str]:
    """Decompress ``source`` into a new spool, reading it ``CHUNK`` bytes
    at a time and seeking back over what a decoder did not use.
    ``compression`` names the format, gzip, bz2 or lzma (xz), and
    ``_unchain`` states the one rule for all three: every stream is decoded
    whole or the input is refused. Returns the spool and the sha256 digest
    of the bytes it holds."""
    src = source.reader()
    out = _Spool()
    try:
        _unchain(src, compression, out)
        return out.finish(), "sha256:" + out.sha256.hexdigest()
    except BaseException:
        out.discard()
        raise


def uncompressed(source: FileBytes) -> tuple[FileBytes, str | None]:
    """The tar stream in ``source`` and its digest, or None for ``source``
    itself: a new spool of what ``source`` decompresses to, hashed on the
    way, when it starts with the gzip, bzip2 or xz magic, as tarfile opens
    it, by the one rule ``_unchain`` states. Like tarfile, a plain tar
    stream whose first name starts with a magic, and that no decoder
    accepts, is read as it is; any other input a decoder refuses raises
    ``TarHeaderError("cannot decompress: …")``, whatever its format."""
    compression = next((name for magic, name in _COMPRESSIONS
                        if source[0:len(magic)] == magic), None)
    if compression is None:
        return source, None
    # A cut stream raises EOFError; a damaged gzip member zlib.error, a
    # damaged bz2 stream OSError and an xz one lzma's own error, which is
    # not an OSError.
    errors = (OSError, EOFError, zlib.error)
    if compression == "lzma":
        errors += (importlib.import_module("lzma").LZMAError,)
    try:
        return decompress(source, compression)
    except errors as exc:
        try:
            next(read_tar_headers(source), None)
        except TarHeaderError:
            raise TarHeaderError(f"cannot decompress: {exc}") from exc
    return source, None


def sha256_digest(data: bytes | FileBytes) -> str:
    """The digest of ``data``, read ``CHUNK`` bytes at a time."""
    sha256 = hashlib.sha256()
    for at in range(0, len(data), CHUNK):
        sha256.update(data[at:at + CHUNK])
    return "sha256:" + sha256.hexdigest()


def _deflate_to(spool: _Spool, chunks: Iterator[bytes]):
    """Write to ``spool`` what ``zlib.compressobj(9, zlib.DEFLATED, 31)``
    makes of the tar stream given in ``chunks``, and return the stream's
    sha256.

    One worker thread hashes and deflates each chunk (both release the GIL)
    while this thread makes the next. They hand chunks over through one
    slot, and the next chunk is made only once the worker has taken the one
    before, so memory holds at most two chunks. Until the worker is joined,
    it alone touches the compressor, the hasher and the spool. It is joined
    before this returns or raises, whoever failed: an error in the worker
    stops the chunks at the next handoff and is raised here."""
    compressor = zlib.compressobj(9, zlib.DEFLATED, 31)
    tar_sha256 = hashlib.sha256()
    slot: list[bytes | None] = [None]  # None: no more chunks
    filled = threading.Semaphore(0)  # the slot holds what the worker takes next
    emptied = threading.Semaphore(1)  # the worker has taken what the slot held
    failed: list[BaseException] = []

    def deflate() -> None:
        try:
            while True:
                filled.acquire()
                chunk, slot[0] = slot[0], None
                emptied.release()
                if chunk is None:
                    return
                tar_sha256.update(chunk)
                spool.write(compressor.compress(chunk))
                del chunk  # not held while the next one waits in the slot
        except BaseException as exc:  # raised again by the thread that joins
            failed.append(exc)
            emptied.release()

    worker = threading.Thread(target=deflate, name="staticslim-deflate")
    worker.start()
    try:
        while True:
            emptied.acquire()
            chunk = None if failed else next(chunks, None)
            if chunk is None:
                break
            slot[0] = chunk
            filled.release()
            del chunk  # not held while the next chunk is made
    finally:
        # The slot is empty unless this thread raised, and a chunk it held
        # then is dropped: either way the worker takes None next and ends.
        slot[0] = None
        filled.release()
        worker.join()
    if failed:
        raise failed[0]
    spool.write(compressor.flush())
    return tar_sha256


def spool_layer(chunks: Iterable[bytes], gzip_layer: bool) -> tuple[FileBytes, str, str]:
    """The layer of the tar stream given in ``chunks``, spooled a chunk at a
    time, with its digest and the stream's (its diff_id). With
    ``gzip_layer`` the spool holds what
    ``zlib.compressobj(9, zlib.DEFLATED, 31)`` makes of the stream, deflated
    on a worker thread while the chunks are made (``_deflate_to``), and the
    stream is hashed apart on the way; otherwise it holds the stream, written
    on this thread, and the two digests are one. The caller closes the
    spool."""
    spool = _Spool()
    try:
        if gzip_layer:
            tar_sha256 = _deflate_to(spool, iter(chunks))
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
