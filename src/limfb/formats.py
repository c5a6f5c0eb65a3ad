"""Shared framing helpers for the binary dataset and model containers."""

import os


class FileFormatError(ValueError):
    """Base error for malformed binary containers."""


class BadMagicError(FileFormatError):
    """The file does not start with the expected magic bytes."""


class TruncatedError(FileFormatError):
    """The file ended before the declared payload was complete."""


class DimensionError(FileFormatError):
    """Header dimensions are inconsistent with the payload or with each other."""


def read_exact(fh, nbytes, what):
    """Read exactly `nbytes` from `fh`; raise TruncatedError naming `what`,
    before reading, when fewer bytes are left in the file."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:
        raise TruncatedError(
            f"truncated file: expected {nbytes} bytes for {what}, got {left}"
        )
    return fh.read(nbytes)


def expect_magic(fh, magic):
    buf = fh.read(len(magic))
    if buf != magic:
        raise BadMagicError(f"bad magic bytes: expected {magic!r}, got {buf!r}")
