"""CRC-framed binary files, the one layout under tensor files and
checkpoints, and the atomic writer under every output file.

A framed file (little-endian) is an 8-byte magic, a u32 version, a body and a
u32 CRC32 of every byte before it. A tensor record inside a body is a u32
rank, u64 dims[rank] and the float32 payload. The reader reads the file field
by field, each payload straight into the array it returns, and computes the
CRC over the bytes as it reads them; it checks every field's extent against
the file's size before it reads or allocates, and the CRC last, so a cut
file reports as truncated rather than as a checksum mismatch. Every writer,
framed or text, writes a temporary file beside the target and renames it
into place, so a failed write never leaves a partial file under the final
name.
"""

from __future__ import annotations

import contextlib
import math
import os
import zlib

import numpy as np


class FramedFileError(Exception):
    """A framed file failed to load; the four subclasses name the kind."""


class BadMagicError(FramedFileError):
    pass


class VersionError(FramedFileError):
    pass


class TruncatedError(FramedFileError):
    pass


class ChecksumError(FramedFileError):
    pass


def u32(value: int) -> bytes:
    return int(value).to_bytes(4, "little")


def i64(value: int) -> bytes:
    return int(value).to_bytes(8, "little", signed=True)


def tensor_record(tensor) -> list:
    """The parts of one tensor record; the payload part views the tensor's
    bytes when it is already contiguous little-endian float32."""
    arr = np.asarray(tensor)
    payload = np.ascontiguousarray(arr, dtype="<f4").reshape(-1).view(np.uint8)
    return [u32(arr.ndim), np.asarray(arr.shape, dtype="<u8").tobytes(), payload]


@contextlib.contextmanager
def replacing(path):
    """A binary file for path's new content: a temporary file beside path,
    renamed onto it when the block ends cleanly and removed otherwise.
    Nothing is fsynced: a failed or killed writer leaves the previous file,
    but a power loss may lose the new one."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    """Write text (UTF-8, newlines as given) to path through replacing."""
    with replacing(path) as f:
        f.write(text.encode())


def write_framed(path, magic: bytes, version: int, body: list) -> None:
    """Frame body (byte strings or byte views, in order) and write it to path
    through replacing."""
    with replacing(path) as f:
        crc = 0
        for part in [magic, u32(version), *body]:
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(u32(crc))


class FramedReader:
    """Reads the body of one framed file field by field, in a with block
    that closes the file.

    Opening checks the magic and the version; take, u32, i64 and tensor
    consume the body in order, each raising TruncatedError before it reads
    if its field would run past the body's end; finish checks that the body
    was used up and that the CRC matches. `what` names the format in error
    messages.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.path, self.what = path, what
        self.file = open(path, "rb")
        try:
            self.end = os.fstat(self.file.fileno()).st_size - 4
            if self.file.read(len(magic)) != magic:
                raise BadMagicError(f"{path}: not a {what} (bad magic)")
            self.pos, self.crc = len(magic), zlib.crc32(magic)
            found = self.u32()
            if found != version:
                raise VersionError(f"{path}: unsupported {what} version {found}")
        except BaseException:
            self.file.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def _claim(self, n: int) -> None:
        if self.pos + n > self.end:
            raise TruncatedError(f"{self.path}: truncated {self.what}")
        self.pos += n

    def _read_into(self, buffer) -> None:
        """Fill the byte buffer from the file (its extent already claimed)
        and add it to the CRC."""
        if self.file.readinto(buffer) != len(buffer):  # the file shrank while read
            raise TruncatedError(f"{self.path}: truncated {self.what}")
        self.crc = zlib.crc32(buffer, self.crc)

    def take(self, n: int) -> bytearray:
        self._claim(n)
        data = bytearray(n)
        self._read_into(data)
        return data

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def i64(self) -> int:
        return int.from_bytes(self.take(8), "little", signed=True)

    def tensor(self) -> np.ndarray:
        dims = tuple(int(d) for d in np.frombuffer(self.take(8 * self.u32()), "<u8"))
        self._claim(4 * math.prod(dims))
        try:
            tensor = np.empty(dims, "<f4")
        except ValueError:  # no elements, but an extent numpy cannot hold
            raise FramedFileError(f"{self.path}: impossible dims {dims}") from None
        self._read_into(tensor.reshape(-1).view(np.uint8))
        return tensor

    def finish(self) -> None:
        if self.pos != self.end:
            raise FramedFileError(
                f"{self.path}: {self.end - self.pos} bytes after the {self.what} body")
        if self.crc != int.from_bytes(self.file.read(4), "little"):
            raise ChecksumError(f"{self.path}: checksum mismatch")
