"""``slots_for_interval`` and ``undecoded_words``: what a first read decodes.

The planner prices the decode a query pays on stored WAH bitmaps no query
has read yet from each encoding's slot list, so the list must name exactly
the stored slots ``evaluate_interval`` reads, and a read must take its
slot off the family's unread words.
"""

import itertools

import pytest

from repro.bitmap.base import _AttributeBitmaps
from repro.bitmap.bitsliced import BitSlicedIndex
from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.interval_encoded import IntervalEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.dataset.synthetic import generate_uniform_table
from repro.query.model import Interval, MissingSemantics

ENCODINGS = (
    EqualityEncodedBitmapIndex,
    RangeEncodedBitmapIndex,
    IntervalEncodedBitmapIndex,
    BitSlicedIndex,
)
SEMANTICS = (MissingSemantics.IS_MATCH, MissingSemantics.NOT_MATCH)


@pytest.fixture(scope="module")
def table():
    return generate_uniform_table(
        600, {"gaps": 9, "full": 6}, {"gaps": 0.2, "full": 0.0}, seed=33
    )


@pytest.fixture
def reads(monkeypatch):
    """The slots ``_AttributeBitmaps.bitmap`` hands out, in a set."""
    seen = set()
    original = _AttributeBitmaps.bitmap

    def recording(family, j):
        seen.add(j)
        return original(family, j)

    monkeypatch.setattr(_AttributeBitmaps, "bitmap", recording)
    return seen


@pytest.mark.parametrize("encoding", ENCODINGS, ids=lambda cls: cls.encoding)
def test_slots_are_the_slots_evaluation_reads(table, reads, encoding):
    # Bit-sliced keeps the default (every stored slot): each of its
    # intervals reads every slice, and the missing bitmap only sometimes.
    exact = encoding is not BitSlicedIndex
    index = encoding(table)
    for attribute in ("gaps", "full"):
        cardinality = index.cardinality(attribute)
        for lo, hi in itertools.combinations_with_replacement(
            range(1, cardinality + 1), 2
        ):
            interval = Interval(lo, hi)
            for semantics in SEMANTICS:
                reads.clear()
                index.evaluate_interval(attribute, interval, semantics)
                listed = set(
                    index.slots_for_interval(attribute, interval, semantics)
                )
                assert reads <= listed, (attribute, lo, hi, semantics)
                assert listed - reads <= ({0} if not exact else set())


@pytest.mark.parametrize("encoding", ENCODINGS, ids=lambda cls: cls.encoding)
def test_undecoded_words_fall_to_zero_once_read(table, encoding):
    index = encoding(table, codec="wah")
    interval, semantics = Interval(2, 4), MissingSemantics.IS_MATCH
    slots = index.slots_for_interval("gaps", interval, semantics)
    expected = sum(index.bitmap("gaps", j).words32() for j in slots)
    assert index.undecoded_words("gaps", interval, semantics) == expected > 0
    index.evaluate_interval("gaps", interval, semantics)
    assert index.undecoded_words("gaps", interval, semantics) == 0


def test_only_the_slots_read_are_decoded(table):
    index = EqualityEncodedBitmapIndex(table, codec="wah")
    semantics = MissingSemantics.NOT_MATCH
    index.evaluate_interval("gaps", Interval(2, 3), semantics)
    assert index.undecoded_words("gaps", Interval(2, 3), semantics) == 0
    assert index.undecoded_words("gaps", Interval(3, 4), semantics) == (
        index.bitmap("gaps", 4).words32()
    )


@pytest.mark.parametrize("codec", ["none", "bbc"])
def test_codecs_without_a_decode_memo_count_nothing(table, codec):
    index = RangeEncodedBitmapIndex(table, codec=codec)
    assert index.undecoded_words(
        "gaps", Interval(2, 4), MissingSemantics.IS_MATCH
    ) == 0


def test_stored_bitmaps_lists_every_slot_without_reading_it(table):
    index = RangeEncodedBitmapIndex(table, codec="wah")
    interval, semantics = Interval(2, 4), MissingSemantics.IS_MATCH
    cold = index.undecoded_words("gaps", interval, semantics)
    stored = list(index.stored_bitmaps())
    assert len(stored) == sum(
        index.num_bitmaps(name) for name in index.attributes
    )
    assert index.undecoded_words("gaps", interval, semantics) == cold > 0


def test_a_loaded_index_starts_unread(table):
    from repro.storage.serialize import dump_bitmap_index, load_bitmap_index

    index = RangeEncodedBitmapIndex(table, codec="wah")
    interval, semantics = Interval(2, 4), MissingSemantics.IS_MATCH
    cold = index.undecoded_words("gaps", interval, semantics)
    index.evaluate_interval("gaps", interval, semantics)
    loaded = load_bitmap_index(dump_bitmap_index(index))
    assert index.undecoded_words("gaps", interval, semantics) == 0
    assert loaded.undecoded_words("gaps", interval, semantics) == cold

