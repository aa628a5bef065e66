"""The reference WAH/BBC coder: one Python step per stored word or byte.

Nothing on the query path imports this module.  It is what the coder in
:mod:`repro.bitvector.kernels` is checked against, word for word
(``tests/bitvector/test_kernels.py``), and what ``bench micro_ops`` times
it against (its ``python`` column).  Each function takes and returns the
same arrays as its namesake in :mod:`repro.bitvector.kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.bitvector.kernels import (
    _ALL_ONES_GROUP,
    BBC_FILL_BIT,
    BBC_FILL_FLAG,
    BBC_MAX_FILL_RUN,
    BBC_MAX_LITERAL_RUN,
    FILL_BIT_FLAG,
    FILL_FLAG,
    GROUP_BITS,
    MAX_FILL_GROUPS,
)
from repro.errors import CorruptIndexError

__all__ = [
    "append_fill",
    "append_literal",
    "bbc_decode",
    "bbc_encode",
    "wah_count",
    "wah_decode",
    "wah_encode",
]


def append_literal(words: list[int], group: int) -> None:
    """Append one group to ``words``, folding 0 / all-ones into fills."""
    if group == 0:
        append_fill(words, 1, 0)
    elif group == _ALL_ONES_GROUP:
        append_fill(words, 1, 1)
    else:
        words.append(group)


def append_fill(words: list[int], ngroups: int, bit: int) -> None:
    """Append a fill of ``ngroups`` groups, merging it into a compatible
    last word and splitting it ``[MAX] * (k-1) + [remainder]``."""
    if ngroups <= 0:
        return
    flag = FILL_FLAG | (FILL_BIT_FLAG if bit else 0)
    if words:
        last = words[-1]
        if (last & ~MAX_FILL_GROUPS) == flag:
            combined = (last & MAX_FILL_GROUPS) + ngroups
            if combined <= MAX_FILL_GROUPS:
                words[-1] = flag | combined
                return
            words[-1] = flag | MAX_FILL_GROUPS
            ngroups = combined - MAX_FILL_GROUPS
    while ngroups > MAX_FILL_GROUPS:
        words.append(flag | MAX_FILL_GROUPS)
        ngroups -= MAX_FILL_GROUPS
    words.append(flag | ngroups)


def wah_encode(groups: np.ndarray) -> np.ndarray:
    """Canonical WAH words for an array of 31-bit group values."""
    words: list[int] = []
    for group in groups.tolist():
        append_literal(words, group)
    return np.asarray(words, dtype=np.uint32)


def wah_decode(words: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group value array (uint32) for a WAH word stream."""
    out: list[int] = []
    for word in words.tolist():
        if word & FILL_FLAG:
            value = _ALL_ONES_GROUP if word & FILL_BIT_FLAG else 0
            out.extend([value] * (word & MAX_FILL_GROUPS))
        else:
            out.append(word)
    return np.asarray(out, dtype=np.uint32)


def wah_count(words: np.ndarray) -> int:
    """Population count computed on the compressed words."""
    total = 0
    for word in words.tolist():
        if word & FILL_FLAG:
            if word & FILL_BIT_FLAG:
                total += GROUP_BITS * (word & MAX_FILL_GROUPS)
        else:
            total += word.bit_count()
    return total


def bbc_encode(raw: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Encode verbatim bytes; returns (data, fill_tokens, literal_tokens)."""
    data = raw.tobytes()
    out = bytearray()
    n = len(data)
    i = 0
    fill_tokens = 0
    literal_tokens = 0
    while i < n:
        byte = data[i]
        if byte in (0x00, 0xFF):
            j = i
            while j < n and data[j] == byte:
                j += 1
            run = j - i
            flag = BBC_FILL_FLAG | (BBC_FILL_BIT if byte == 0xFF else 0)
            while run > 0:
                take = min(run, BBC_MAX_FILL_RUN)
                out.append(flag | take)
                fill_tokens += 1
                run -= take
            i = j
        else:
            j = i
            while j < n and data[j] not in (0x00, 0xFF):
                j += 1
            run = j - i
            start = i
            while run > 0:
                take = min(run, BBC_MAX_LITERAL_RUN)
                out.append(take)
                out.extend(data[start : start + take])
                literal_tokens += 1
                start += take
                run -= take
            i = j
    return np.frombuffer(bytes(out), dtype=np.uint8), fill_tokens, literal_tokens


def bbc_decode(data: np.ndarray, expected_bytes: int) -> tuple[np.ndarray, int]:
    """Decode a BBC byte stream; returns (raw bytes, tokens read)."""
    stream = data.tobytes()
    raw = bytearray()
    i = 0
    tokens = 0
    while i < len(stream):
        control = stream[i]
        i += 1
        tokens += 1
        if control & BBC_FILL_FLAG:
            run = control & BBC_MAX_FILL_RUN
            if run == 0:
                raise CorruptIndexError("BBC fill token with zero length")
            raw.extend((b"\xff" if control & BBC_FILL_BIT else b"\x00") * run)
        else:
            if control == 0 or i + control > len(stream):
                raise CorruptIndexError("BBC literal token truncated")
            raw.extend(stream[i : i + control])
            i += control
    if len(raw) != expected_bytes:
        raise CorruptIndexError(
            f"BBC stream decoded to {len(raw)} bytes, expected {expected_bytes}"
        )
    return np.frombuffer(bytes(raw), dtype=np.uint8), tokens
