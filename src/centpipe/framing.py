"""CRC-framed binary files, the one layout under tensor files and
checkpoints, and the atomic writer under every output file.

A framed file (little-endian) is an 8-byte magic, a u32 version, a body and a
u32 CRC32 of every byte before it. A tensor record inside a body is a u32
rank, u64 dims[rank] and the float32 payload. The reader reads the file whole
into one buffer with one read and closes it; each field it hands out is a
view of that buffer, so a file is held in memory once. It checks every
field's extent against the body's end before it hands the field out, and the
CRC over the buffer last, so a cut file reports as truncated rather than as
a checksum mismatch. Every writer, framed or text, writes a temporary file
beside the target and renames it into place, so a failed write never leaves
a partial file under the final name.
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
    """Reads a framed file whole into one byte buffer at construction and
    hands out the body's fields from a cursor over it.

    Construction checks the magic and the version; take, u32, i64 and
    tensor consume the body in order, each raising TruncatedError if its
    field would run past the body's end; finish checks that the body was
    used up and that the CRC matches. take and tensor return views of the
    buffer, never copies. `what` names the format in error messages.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.path, self.what = path, what
        with open(path, "rb") as f:
            self.buffer = np.empty(os.fstat(f.fileno()).st_size, np.uint8)
            if f.readinto(self.buffer) != len(self.buffer):  # the file shrank while read
                raise TruncatedError(f"{path}: truncated {what}")
        self.pos, self.end = len(magic), len(self.buffer) - 4
        if self.buffer[:len(magic)].tobytes() != magic:
            raise BadMagicError(f"{path}: not a {what} (bad magic)")
        found = self.u32()
        if found != version:
            raise VersionError(f"{path}: unsupported {what} version {found}")

    def take(self, n: int) -> np.ndarray:
        """The next n bytes of the body, as a uint8 view of the buffer."""
        if self.pos + n > self.end:
            raise TruncatedError(f"{self.path}: truncated {self.what}")
        self.pos += n
        return self.buffer[self.pos - n:self.pos]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def i64(self) -> int:
        return int.from_bytes(self.take(8), "little", signed=True)

    def tensor(self) -> np.ndarray:
        """The next tensor record's payload as a float32 view of the buffer,
        which may sit at any byte offset: numpy reads unaligned views."""
        dims = tuple(int(d) for d in self.take(8 * self.u32()).view("<u8"))
        payload = self.take(4 * math.prod(dims)).view("<f4")
        try:
            return payload.reshape(dims)
        except (ValueError, OverflowError):  # no elements, but an extent numpy cannot hold
            raise FramedFileError(f"{self.path}: impossible dims {dims}") from None

    def finish(self) -> None:
        if self.pos != self.end:
            raise FramedFileError(
                f"{self.path}: {self.end - self.pos} bytes after the {self.what} body")
        if zlib.crc32(self.buffer[:self.end]) != int.from_bytes(self.buffer[self.end:], "little"):
            raise ChecksumError(f"{self.path}: checksum mismatch")
