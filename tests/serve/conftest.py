"""Byte-level helpers for tests that read or doctor ``wal.bin`` frames.

They re-derive the frame layout from its description (a ``u32`` CRC
over the length word and the body, a ``u32`` body length, then the
body) rather than calling the journal's own writer, so a test that
re-frames a doctored body checks the reader against the format.
"""

import struct
import zlib

from repro.serve.wal import _HEAD

HEAD_FIELDS = ("lsn", "op_id", "count", "n", "width", "sid_len", "kind",
               "flags", "key_dt", "pay_dt")


def frame_spans(raw: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of each frame, up to the first zero length word."""
    spans, at = [], 0
    while at + 8 <= len(raw):
        blen = struct.unpack_from("<I", raw, at + 4)[0]
        if not blen:
            break
        spans.append((at, at + 8 + blen))
        at += 8 + blen
    return spans


def framed(body: bytes) -> bytes:
    """A frame around ``body`` with a correct length word and CRC."""
    size = struct.pack("<I", len(body))
    return struct.pack("<I", zlib.crc32(size + body)) + size + body


def header(frame: bytes) -> dict:
    """The header fields of ``frame``'s body, by name."""
    return dict(zip(HEAD_FIELDS, _HEAD.unpack_from(frame, 8)))


def reheaded(frame: bytes, **fields) -> bytes:
    """``frame`` with header ``fields`` replaced, re-framed with a valid CRC."""
    head = {**header(frame), **fields}
    return framed(_HEAD.pack(*head.values()) + frame[8 + _HEAD.size:])
