"""CRC-framed binary files: the one layout under tensor files and checkpoints.

A framed file (little-endian) is an 8-byte magic, a u32 version, a body and a
u32 CRC32 of every byte before it. A tensor record inside a body is a u32
rank, u64 dims[rank] and the float32 payload. The reader walks the structure
first and checks the CRC last, so a cut file reports as truncated rather than
as a checksum mismatch. The writer writes a temporary file beside the target
and renames it into place, so a failed write never leaves a partial file
under the final name.
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


def write_framed(path, magic: bytes, version: int, body: list) -> None:
    """Frame body (byte strings or byte views, in order) and write it to path
    through a temporary file renamed into place. Nothing is fsynced: a failed
    or killed writer leaves the previous file, but a power loss may lose the
    new one."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            crc = 0
            for part in [magic, u32(version), *body]:
                f.write(part)
                crc = zlib.crc32(part, crc)
            f.write(u32(crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class FramedReader:
    """Walks the body of one framed file, field by field.

    Opening checks the magic and the version; take, u32, i64 and tensor
    consume the body in order and raise TruncatedError past its end; finish
    checks that the body was used up and that the CRC matches. `what` names
    the format in error messages.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:len(magic)] != magic:
            raise BadMagicError(f"{path}: not a {what} (bad magic)")
        self.path, self.what = path, what
        self.raw, self.pos, self.end = memoryview(raw), len(magic), len(raw) - 4
        found = self.u32()
        if found != version:
            raise VersionError(f"{path}: unsupported {what} version {found}")

    def take(self, n: int) -> memoryview:
        if self.pos + n > self.end:
            raise TruncatedError(f"{self.path}: truncated {self.what}")
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def i64(self) -> int:
        return int.from_bytes(self.take(8), "little", signed=True)

    def tensor(self) -> np.ndarray:
        dims = tuple(int(d) for d in np.frombuffer(self.take(8 * self.u32()), "<u8"))
        payload = np.frombuffer(self.take(4 * math.prod(dims)), "<f4")
        try:
            return payload.reshape(dims).copy()
        except ValueError:  # no elements, but an extent numpy cannot hold
            raise FramedFileError(f"{self.path}: impossible dims {dims}") from None

    def finish(self) -> None:
        if self.pos != self.end:
            raise FramedFileError(
                f"{self.path}: {self.end - self.pos} bytes after the {self.what} body")
        if zlib.crc32(self.raw[:self.end]) != int.from_bytes(self.raw[self.end:], "little"):
            raise ChecksumError(f"{self.path}: checksum mismatch")
