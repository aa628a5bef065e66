"""The word-level coder behind the compressed bitvector codecs.

The paper's central performance claim is that compressed bitmap query
execution "only accesses words".  This module is where the word accesses
happen: every WAH/BBC encode, decode and population count over a word
stream is a function here over numpy word arrays (``uint32`` WAH words,
``uint8`` BBC bytes), called directly by the codec classes in
:mod:`repro.bitvector.wah` / :mod:`repro.bitvector.bbc`.  Streams decode
with one ``np.repeat`` over a per-word ``(value, length)`` view (an
all-literal stream *is* its group array), and group arrays encode with run
detection plus scatter writes.  Logical operations run on decoded group
arrays as plain ufuncs and live with the codec (:mod:`repro.bitvector.wah`).

Every encoder emits the canonical WAH encoding (adjacent fills merged,
all-zero/all-one literals folded into fills, over-long fills split
``[MAX] * (k-1) + [remainder]``), so its output is **word-identical** to
the one-step-per-word reference coder in :mod:`repro.bitvector.reference`
— the same ``uint32`` words, not merely the same bits.  The property tests
in ``tests/bitvector/test_kernels.py`` compare the two directly; see
``docs/kernels.md``.
"""
from __future__ import annotations

import numpy as np

from repro.errors import CorruptIndexError

__all__ = [
    "FILL_BIT_FLAG",
    "FILL_FLAG",
    "GROUP_BITS",
    "LITERAL_MASK",
    "MAX_FILL_GROUPS",
    "WORD_BITS",
    "bbc_decode",
    "bbc_encode",
    "wah_count",
    "wah_decode",
    "wah_encode",
]

# -- WAH word layout (see repro.bitvector.wah for the format description) ----

#: Bits per WAH word.
WORD_BITS = 32
#: Literal payload bits per word (the paper's ``w - 1``).
GROUP_BITS = WORD_BITS - 1
#: Mask selecting a literal payload.
LITERAL_MASK = (1 << GROUP_BITS) - 1
#: MSB flag marking a fill word.
FILL_FLAG = 1 << (WORD_BITS - 1)
#: Second-MSB flag holding a fill word's bit value.
FILL_BIT_FLAG = 1 << (WORD_BITS - 2)
#: Maximum number of groups one fill word can represent (``2**(w-2) - 1``).
MAX_FILL_GROUPS = FILL_BIT_FLAG - 1

_ALL_ONES_GROUP = LITERAL_MASK

# -- BBC token layout (see repro.bitvector.bbc) ------------------------------

BBC_FILL_FLAG = 0x80
BBC_FILL_BIT = 0x40
BBC_MAX_FILL_RUN = 0x3F  # 63 bytes per fill token
BBC_MAX_LITERAL_RUN = 0x7F  # 127 bytes per literal token

_EMPTY_U32 = np.empty(0, dtype=np.uint32)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)


def wah_stream_lengths(words: np.ndarray) -> np.ndarray:
    """Groups covered by each word of a WAH stream (int64).

    Raises :class:`CorruptIndexError` on zero-length fill words, so a
    malformed stream is rejected before any coder reads it.
    """
    is_fill = (words & np.uint32(FILL_FLAG)) != 0
    lengths = np.where(
        is_fill, words & np.uint32(MAX_FILL_GROUPS), 1
    ).astype(np.int64)
    if bool((lengths[is_fill] == 0).any()):
        raise CorruptIndexError("WAH fill word with zero length")
    return lengths


def _wah_run_view(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-word ``(group value, run length)`` arrays for a WAH stream."""
    is_fill = words >= np.uint32(FILL_FLAG)  # unsigned compare: MSB set
    # A fill's group value is 0 or ALL_ONES depending on the fill bit; a
    # literal's is the word itself (its MSB is clear).  The multiply keeps
    # everything in one where instead of a nested pair.
    fill_values = ((words >> np.uint32(WORD_BITS - 2)) & np.uint32(1)) * np.uint32(
        _ALL_ONES_GROUP
    )
    values = np.where(is_fill, fill_values, words)
    lengths = np.where(
        is_fill, (words & np.uint32(MAX_FILL_GROUPS)).astype(np.int64), 1
    )
    return values, lengths


def _group_runs(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal ``(group value, run length)`` runs of a non-empty group array."""
    change = np.empty(len(groups), dtype=bool)
    change[0] = True
    np.not_equal(groups[1:], groups[:-1], out=change[1:])
    run_starts = np.flatnonzero(change)
    run_lengths = np.empty(len(run_starts), dtype=np.int64)
    np.subtract(run_starts[1:], run_starts[:-1], out=run_lengths[:-1])
    run_lengths[-1] = len(groups) - run_starts[-1]
    return groups[run_starts], run_lengths


def wah_run_words(values: np.ndarray, lengths: np.ndarray) -> int:
    """Words :func:`_encode_runs` emits for adjacent-distinct runs, unbuilt.

    One word per literal group; one per ``MAX_FILL_GROUPS`` (or part) of
    each 0 / all-ones run.
    """
    is_fill = (values == 0) | (values == _ALL_ONES_GROUP)
    fill_words = (lengths + (MAX_FILL_GROUPS - 1)) // MAX_FILL_GROUPS
    return int(np.where(is_fill, fill_words, lengths).sum())


def wah_encoded_length(groups: np.ndarray) -> int:
    """Length of the canonical stream of a group array, without building it."""
    ngroups = len(groups)
    if ngroups > MAX_FILL_GROUPS:  # a fill run may need splitting
        return wah_run_words(*_group_runs(groups))
    if ngroups == 0:
        return 0
    # One word per literal group plus one per fill run; a fill run starts
    # at each fill group that differs from its predecessor.
    is_fill = (groups == 0) | (groups == _ALL_ONES_GROUP)
    starts = is_fill[1:] & (groups[1:] != groups[:-1])
    fill_runs = int(is_fill[0]) + int(np.count_nonzero(starts))
    return ngroups - int(np.count_nonzero(is_fill)) + fill_runs


def _encode_runs(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Canonical WAH words for adjacent-distinct (group value, run length) runs.

    0/all-ones runs become fills (split ``[MAX] * (k-1) + [remainder]``,
    matching the reference coder), and literal-valued runs emit one word
    per group.  Run lengths are int64 so fills longer than
    ``MAX_FILL_GROUPS`` never overflow.
    """
    is_fill = (values == 0) | (values == _ALL_ONES_GROUP)
    fill_flags = np.uint32(FILL_FLAG) | (
        (values == _ALL_ONES_GROUP) * np.uint32(FILL_BIT_FLAG)
    )
    if int(lengths.max()) <= MAX_FILL_GROUPS:
        # Common case: every fill fits one word.
        base = np.where(is_fill, fill_flags | lengths.astype(np.uint32), values)
        lit_multi = lengths > 1
        lit_multi &= ~is_fill
        if not lit_multi.any():
            return base
        return np.repeat(base, np.where(is_fill, 1, lengths))
    # General path: some fill spans multiple words.
    nwords = np.where(
        is_fill, (lengths + MAX_FILL_GROUPS - 1) // MAX_FILL_GROUPS, lengths
    )
    base = np.where(
        is_fill,
        fill_flags | np.minimum(lengths, MAX_FILL_GROUPS).astype(np.uint32),
        values,
    ).astype(np.uint32, copy=False)
    out = np.repeat(base, nwords)
    # Over-long fills: every word but the last is a MAX fill; patch the tail.
    out_starts = np.concatenate(([0], np.cumsum(nwords)[:-1]))
    multi = is_fill & (nwords > 1)
    tail_pos = (out_starts + nwords - 1)[multi]
    remainder = (lengths - (nwords - 1) * MAX_FILL_GROUPS)[multi]
    out[tail_pos] = fill_flags[multi] | remainder.astype(np.uint32)
    return out


def wah_encode(groups: np.ndarray) -> np.ndarray:
    """Canonical WAH words for an array of 31-bit group values."""
    if len(groups) == 0:
        return _EMPTY_U32
    groups = groups.astype(np.uint32, copy=False)
    return _encode_runs(*_group_runs(groups))


def wah_decode(words: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group value array (uint32) for a WAH word stream."""
    if len(words) == 0:
        return _EMPTY_U32
    if len(words) == ngroups and not bool(
        (words >= np.uint32(FILL_FLAG)).any()
    ):
        return words  # all literals: the stream IS the group array
    values, lengths = _wah_run_view(words)
    return np.repeat(values, lengths)


def wah_count(words: np.ndarray) -> int:
    """Population count computed on the compressed words."""
    if len(words) == 0:
        return 0
    is_fill = (words & np.uint32(FILL_FLAG)) != 0
    one_fill = is_fill & ((words & np.uint32(FILL_BIT_FLAG)) != 0)
    fill_bits = GROUP_BITS * int(
        (words[one_fill] & np.uint32(MAX_FILL_GROUPS)).sum(dtype=np.int64)
    )
    literal_bits = int(np.bitwise_count(words[~is_fill]).sum(dtype=np.int64))
    return fill_bits + literal_bits


def bbc_encode(raw: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Encode verbatim bytes; returns (data, fill_tokens, literal_tokens)."""
    n = len(raw)
    if n == 0:
        return _EMPTY_U8, 0, 0
    # Classify bytes: 1 = 0x00 fill, 2 = 0xFF fill, 0 = literal.  Runs
    # of one class become token runs (same-class fill bytes are always
    # the same byte; literal bytes chunk together regardless of value).
    klass = np.where(raw == 0, 1, np.where(raw == 0xFF, 2, 0)).astype(np.int8)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(klass[1:], klass[:-1], out=change[1:])
    run_starts = np.flatnonzero(change)
    run_lens = np.diff(np.append(run_starts, n)).astype(np.int64)
    run_class = klass[run_starts]
    is_fill = run_class != 0
    cap = np.where(is_fill, BBC_MAX_FILL_RUN, BBC_MAX_LITERAL_RUN)
    ntok = (run_lens + cap - 1) // cap
    run_bytes = np.where(is_fill, ntok, ntok + run_lens)
    out_starts = np.concatenate(([0], np.cumsum(run_bytes)[:-1]))
    out = np.zeros(int(run_bytes.sum()), dtype=np.uint8)
    # Expand runs to tokens; the last token of a run takes the remainder.
    tok_run = np.repeat(np.arange(len(run_starts)), ntok)
    tok_firsts = np.concatenate(([0], np.cumsum(ntok)[:-1]))
    tok_intra = np.arange(len(tok_run)) - np.repeat(tok_firsts, ntok)
    tok_last = tok_intra == (ntok[tok_run] - 1)
    tok_cap = cap[tok_run]
    take = np.where(
        tok_last, run_lens[tok_run] - tok_intra * tok_cap, tok_cap
    )
    tok_fill = is_fill[tok_run]
    # Fill tokens are 1 byte each; literal tokens are 1 + 127 bytes
    # except the last, so token t of a run starts at t * (cap + 1).
    pos = out_starts[tok_run] + np.where(
        tok_fill, tok_intra, tok_intra * (BBC_MAX_LITERAL_RUN + 1)
    )
    control = np.where(
        tok_fill,
        BBC_FILL_FLAG
        | np.where(run_class[tok_run] == 2, BBC_FILL_BIT, 0)
        | take,
        take,
    )
    out[pos] = control.astype(np.uint8)
    lit = ~tok_fill
    if lit.any():
        ptake = take[lit]
        src = run_starts[tok_run[lit]] + tok_intra[lit] * BBC_MAX_LITERAL_RUN
        total = int(ptake.sum())
        firsts = np.concatenate(([0], np.cumsum(ptake)[:-1]))
        rel = np.arange(total) - np.repeat(firsts, ptake)
        out[np.repeat(pos[lit] + 1, ptake) + rel] = raw[
            np.repeat(src, ptake) + rel
        ]
    return out, int(tok_fill.sum()), int(lit.sum())


def bbc_decode(data: np.ndarray, expected_bytes: int) -> tuple[np.ndarray, int]:
    """Decode a BBC byte stream; returns (raw bytes, tokens read)."""
    # Token boundaries are data-dependent (a literal control byte says
    # how many payload bytes follow), so the walk is per token — but
    # tokens cover up to 127 bytes each, and all byte expansion below
    # is vectorized.
    stream = data.tobytes()
    values: list[int] = []  # fill byte value; 0 placeholder for literals
    lengths: list[int] = []
    sources: list[int] = []  # payload offset for literals, -1 for fills
    i = 0
    while i < len(stream):
        control = stream[i]
        i += 1
        if control & BBC_FILL_FLAG:
            run = control & BBC_MAX_FILL_RUN
            if run == 0:
                raise CorruptIndexError("BBC fill token with zero length")
            values.append(0xFF if control & BBC_FILL_BIT else 0x00)
            lengths.append(run)
            sources.append(-1)
        else:
            if control == 0 or i + control > len(stream):
                raise CorruptIndexError("BBC literal token truncated")
            values.append(0)
            lengths.append(control)
            sources.append(i)
            i += control
    tokens = len(lengths)
    lens = np.asarray(lengths, dtype=np.int64)
    total = int(lens.sum())
    if total != expected_bytes:
        raise CorruptIndexError(
            f"BBC stream decoded to {total} bytes, "
            f"expected {expected_bytes}"
        )
    out = np.repeat(np.asarray(values, dtype=np.uint8), lens)
    src = np.asarray(sources, dtype=np.int64)
    lit = src >= 0
    if lit.any():
        ptake = lens[lit]
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))[lit]
        n = int(ptake.sum())
        firsts = np.concatenate(([0], np.cumsum(ptake)[:-1]))
        rel = np.arange(n) - np.repeat(firsts, ptake)
        out[np.repeat(offsets, ptake) + rel] = data[
            np.repeat(src[lit], ptake) + rel
        ]
    return out, tokens
