"""Crash-safe atomic writes and CRC-checksummed file framing.

Every persistent artifact this library writes — ``RPIX`` index files,
``.npz`` table archives, shard row maps — goes to disk through this module:

* :func:`atomic_write` — write-to-temp + ``fsync`` + ``os.replace`` in the
  destination directory, so a crash at any instant leaves either the old
  complete file or the new complete file, never a torn one;
* :func:`hard_link` — a second, durable name for an already committed
  file (a new generation sharing a file it did not change);
* the ``RPF1`` *frame* — a sectioned container whose header records, for
  every section, a label, the payload length, and a CRC32, plus a CRC32
  over the header/directory itself.  Every byte of a framed file is covered
  by a checksum, so any single-byte flip or truncation is detected at read
  time and surfaces as :class:`~repro.errors.CorruptIndexError` — never as
  a wrong query answer or a bare ``struct.error``.

Readers stay compatible with unframed legacy files (the pre-frame formats);
:func:`is_framed` sniffs the magic so loaders can fall back.

Observability (through :mod:`repro.observability`):

``storage.bytes_written``      bytes handed to :func:`atomic_write`
``storage.atomic_renames``     successful temp-file → destination renames
``storage.checksum_failures``  CRC mismatches seen by :func:`parse_frame`
``storage.legacy_loads``       unframed (pre-checksum) files accepted
"""

from __future__ import annotations

import io
import os
import struct
import tempfile
import zlib
from pathlib import Path

from repro.errors import CorruptIndexError
from repro.observability import record

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "atomic_write",
    "build_frame",
    "crc32",
    "file_crc32",
    "hard_link",
    "is_framed",
    "parse_frame",
    "read_framed",
    "write_framed",
]

FRAME_MAGIC = b"RPF1"
FRAME_VERSION = 1

_FIXED_HEADER = struct.Struct("<4sB3sI")  # magic, version, reserved, count
_DIR_LABEL = struct.Struct("<H")
_DIR_ENTRY = struct.Struct("<QI")  # payload length, payload crc32
_DIR_CRC = struct.Struct("<I")


def crc32(payload: bytes) -> int:
    """CRC32 of ``payload`` as an unsigned 32-bit integer."""
    return zlib.crc32(payload) & 0xFFFFFFFF


def file_crc32(path: str | os.PathLike) -> tuple[int, int]:
    """``(crc32, size_in_bytes)`` of the file's full contents."""
    data = Path(path).read_bytes()
    return crc32(data), len(data)


# -- atomic writes -------------------------------------------------------------

def atomic_write(path: str | os.PathLike, data: bytes) -> int:
    """Write ``data`` to ``path`` atomically; returns the byte count.

    The bytes go to a temporary file in the destination directory, are
    flushed and ``fsync``'d, and the temp file is renamed over ``path``
    with ``os.replace`` (atomic on POSIX and Windows).  The directory is
    fsync'd afterwards (best effort) so the rename itself is durable.
    A crash at any point leaves ``path`` either untouched or fully
    replaced — never truncated or interleaved.
    """
    target = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(target.parent)
    record("storage.bytes_written", len(data))
    record("storage.atomic_renames")
    return len(data)


def hard_link(source: str | os.PathLike, target: str | os.PathLike) -> None:
    """Give ``source``'s inode the second name ``target``, durably.

    Sharing an inode is safe only because nothing here modifies a file in
    place: :func:`atomic_write` renames a new inode over the name, leaving
    every other link to the old one untouched.
    """
    os.link(source, target)
    _fsync_directory(Path(target).parent)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk; a no-op where unsupported."""
    try:
        handle = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(handle)
    except OSError:
        pass
    finally:
        os.close(handle)


# -- the RPF1 frame ------------------------------------------------------------

def build_frame(sections: list[tuple[str, bytes]]) -> bytes:
    """Serialize labelled payload sections into one checksummed frame.

    Layout: fixed header (magic, version, section count), then a directory
    of ``(label, payload length, payload CRC32)`` entries, a CRC32 over
    everything so far, then the payloads back to back.  Section labels and
    per-section CRCs live in the header directory, so a reader can verify
    any one section without touching the others.
    """
    head = io.BytesIO()
    head.write(_FIXED_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, b"\x00" * 3,
                                  len(sections)))
    for label, payload in sections:
        encoded = label.encode("utf-8")
        head.write(_DIR_LABEL.pack(len(encoded)))
        head.write(encoded)
        head.write(_DIR_ENTRY.pack(len(payload), crc32(payload)))
    prefix = head.getvalue()
    body = b"".join(payload for _, payload in sections)
    return prefix + _DIR_CRC.pack(crc32(prefix)) + body


def is_framed(data: bytes) -> bool:
    """Whether ``data`` starts with the ``RPF1`` frame magic."""
    return data[:4] == FRAME_MAGIC


def parse_frame(data: bytes, source: str = "<bytes>") -> list[tuple[str, bytes]]:
    """Validate a frame and return its ``(label, payload)`` sections.

    Every structural field is bounds-checked before use and every byte of
    the input is covered by either the directory CRC or a payload CRC, so
    any truncation or single-byte corruption raises
    :class:`CorruptIndexError` naming ``source`` (and the section, for
    payload damage).
    """
    def corrupt(detail: str) -> CorruptIndexError:
        return CorruptIndexError(f"{source}: {detail}")

    if len(data) < _FIXED_HEADER.size:
        raise corrupt("file too short to hold a frame header")
    magic, version, reserved, count = _FIXED_HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise corrupt(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise corrupt(f"unsupported frame version {version}")
    if reserved != b"\x00" * 3:
        raise corrupt("reserved frame header bytes are not zero")
    offset = _FIXED_HEADER.size
    entries: list[tuple[str, int, int]] = []
    for _ in range(count):
        if offset + _DIR_LABEL.size > len(data):
            raise corrupt("truncated section directory")
        (label_len,) = _DIR_LABEL.unpack_from(data, offset)
        offset += _DIR_LABEL.size
        if offset + label_len + _DIR_ENTRY.size > len(data):
            raise corrupt("truncated section directory")
        try:
            # bytes(...) also accepts memoryview input (the mmap'd loaders
            # hand whole-file views in, keeping payload slices zero-copy).
            label = bytes(data[offset:offset + label_len]).decode("utf-8")
        except UnicodeDecodeError:
            raise corrupt("section label is not valid UTF-8")
        offset += label_len
        length, payload_crc = _DIR_ENTRY.unpack_from(data, offset)
        offset += _DIR_ENTRY.size
        entries.append((label, length, payload_crc))
    if offset + _DIR_CRC.size > len(data):
        raise corrupt("truncated directory checksum")
    (declared_dir_crc,) = _DIR_CRC.unpack_from(data, offset)
    if declared_dir_crc != crc32(data[:offset]):
        record("storage.checksum_failures")
        raise corrupt("frame directory checksum mismatch")
    offset += _DIR_CRC.size
    total = sum(length for _, length, _ in entries)
    if total != len(data) - offset:
        raise corrupt(
            f"frame declares {total} payload bytes but "
            f"{len(data) - offset} are present"
        )
    sections: list[tuple[str, bytes]] = []
    for label, length, payload_crc in entries:
        payload = data[offset:offset + length]
        offset += length
        if crc32(payload) != payload_crc:
            record("storage.checksum_failures")
            raise corrupt(f"checksum mismatch in section {label!r}")
        sections.append((label, payload))
    return sections


def write_framed(path: str | os.PathLike,
                 sections: list[tuple[str, bytes]]) -> int:
    """Atomically write labelled sections as one framed file; returns size."""
    return atomic_write(path, build_frame(sections))


def read_framed(path: str | os.PathLike) -> list[tuple[str, bytes]]:
    """Read and validate a framed file written by :func:`write_framed`."""
    return parse_frame(Path(path).read_bytes(), source=os.fspath(path))
