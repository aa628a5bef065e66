"""Unit tests for index-file serialization."""

import numpy as np
import pytest

from repro.bitmap.alternatives import InlineMissingEqualityIndex
from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.interval_encoded import IntervalEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.wah import FILL_FLAG, WahBitVector
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import CorruptIndexError, ReproError
from repro.query.ground_truth import evaluate
from repro.query.model import MissingSemantics, RangeQuery
from repro.storage.serialize import (
    dump_bitmap_index,
    dump_vafile,
    load_bitmap_index,
    load_bitmap_index_file,
    load_vafile,
    load_vafile_file,
    pack_codes,
    save_bitmap_index,
    save_vafile,
    unpack_codes,
)
from repro.vafile.vafile import VAFile


@pytest.fixture
def table():
    return generate_uniform_table(
        700, {"a": 10, "b": 3}, {"a": 0.3, "b": 0.0}, seed=51
    )


QUERY = RangeQuery.from_bounds({"a": (2, 7), "b": (1, 2)})


class TestBitmapRoundTrip:
    @pytest.mark.parametrize("cls", [EqualityEncodedBitmapIndex,
                                     RangeEncodedBitmapIndex,
                                     IntervalEncodedBitmapIndex])
    @pytest.mark.parametrize("codec", ["none", "wah", "bbc"])
    def test_loaded_index_answers_identically(self, table, cls, codec):
        index = cls(table, codec=codec)
        loaded = load_bitmap_index(dump_bitmap_index(index))
        assert type(loaded) is cls
        assert loaded.codec == codec
        assert loaded.attributes == index.attributes
        for semantics in MissingSemantics:
            assert np.array_equal(
                loaded.execute_ids(QUERY, semantics),
                index.execute_ids(QUERY, semantics),
            )

    def test_metadata_survives(self, table):
        index = RangeEncodedBitmapIndex(table, codec="wah")
        loaded = load_bitmap_index(dump_bitmap_index(index))
        assert loaded.cardinality("a") == 10
        assert loaded.has_missing("a")
        assert not loaded.has_missing("b")
        assert loaded.num_records == 700
        assert loaded.nbytes() == index.nbytes()

    def test_file_roundtrip(self, table, tmp_path):
        index = EqualityEncodedBitmapIndex(table, codec="wah")
        path = tmp_path / "index.rpix"
        size = save_bitmap_index(index, path)
        assert path.stat().st_size == size
        loaded = load_bitmap_index_file(path)
        assert np.array_equal(
            loaded.execute_ids(QUERY, MissingSemantics.IS_MATCH),
            index.execute_ids(QUERY, MissingSemantics.IS_MATCH),
        )

    def test_nonserializable_encoding_rejected(self, table):
        index = InlineMissingEqualityIndex(table)
        with pytest.raises(ReproError, match="serializable"):
            dump_bitmap_index(index)


class TestBitmapValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptIndexError, match="magic"):
            load_bitmap_index(b"NOPE" + b"\x00" * 32)

    def test_truncated_payload_rejected(self, table):
        payload = dump_bitmap_index(
            EqualityEncodedBitmapIndex(table, codec="wah")
        )
        with pytest.raises(CorruptIndexError):
            load_bitmap_index(payload[: len(payload) // 2])

    def test_vafile_payload_rejected_as_bitmap(self, table):
        payload = dump_vafile(VAFile(table))
        with pytest.raises(CorruptIndexError, match="bitmap"):
            load_bitmap_index(payload)

    def test_corrupt_wah_stream_rejected(self, table):
        payload = bytearray(
            dump_bitmap_index(EqualityEncodedBitmapIndex(table, codec="wah"))
        )
        # Flip bytes in the middle of the first bitvector payload.
        payload[60:64] = b"\xff\xff\xff\xff"
        with pytest.raises(CorruptIndexError):
            load_bitmap_index(bytes(payload))

    def test_wah_tail_bits_past_the_table_rejected(self, table):
        # A checksum-valid file whose stream sets a bit past record 699:
        # its count would disagree with its ids, so the loader refuses it.
        index = EqualityEncodedBitmapIndex(table, codec="wah")
        family = index._attrs["a"]
        slot = next(iter(family.vectors))
        family.vectors[slot] = WahBitVector._from_words(
            700, np.array([FILL_FLAG | 22, 1 << 20], dtype=np.uint32)
        )
        with pytest.raises(CorruptIndexError, match="past the last"):
            load_bitmap_index(dump_bitmap_index(index))


class TestCodePacking:
    @pytest.mark.parametrize("bits", [1, 2, 3, 7, 8, 9, 16])
    def test_pack_unpack_roundtrip(self, rng, bits):
        codes = rng.integers(0, 1 << bits, size=333, dtype=np.uint32)
        payload = pack_codes(codes, bits)
        assert len(payload) == (333 * bits + 7) // 8
        assert np.array_equal(unpack_codes(payload, bits, 333), codes)

    def test_short_payload_rejected(self):
        with pytest.raises(CorruptIndexError):
            unpack_codes(b"\x01", 8, 100)


class TestVaFileRoundTrip:
    @pytest.mark.parametrize("quantization", ["uniform", "vaplus"])
    def test_loaded_vafile_answers_identically(self, table, quantization):
        va = VAFile(table, bits={"a": 2, "b": 2}, quantization=quantization)
        loaded = load_vafile(dump_vafile(va), table)
        assert loaded.quantization == quantization
        for semantics in MissingSemantics:
            expect = evaluate(table, QUERY, semantics)
            assert np.array_equal(loaded.execute_ids(QUERY, semantics), expect)

    def test_file_roundtrip_and_size(self, table, tmp_path):
        va = VAFile(table)
        path = tmp_path / "va.rpix"
        size = save_vafile(va, path)
        assert path.stat().st_size == size
        # The file is dominated by the bit-packed approximations.
        assert size < va.approximation_nbytes() * 1.5 + 200
        loaded = load_vafile_file(path, table)
        assert np.array_equal(loaded.codes("a"), va.codes("a"))

    def test_wrong_table_length_rejected(self, table):
        payload = dump_vafile(VAFile(table))
        other = generate_uniform_table(10, {"a": 10, "b": 3}, {}, seed=1)
        with pytest.raises(CorruptIndexError, match="records"):
            load_vafile(payload, other)

    def test_bitmap_payload_rejected_as_vafile(self, table):
        payload = dump_bitmap_index(RangeEncodedBitmapIndex(table))
        with pytest.raises(CorruptIndexError, match="VA-file"):
            load_vafile(payload, table)


class TestFramingCompat:
    """Saved files are RPF1-framed; pre-framing files still load."""

    def test_saved_files_are_framed(self, table, tmp_path):
        from repro.storage.integrity import is_framed, read_framed

        bitmap_path = tmp_path / "ix.idx"
        save_bitmap_index(EqualityEncodedBitmapIndex(table), bitmap_path)
        va_path = tmp_path / "va.idx"
        save_vafile(VAFile(table), va_path)
        for path in (bitmap_path, va_path):
            assert is_framed(path.read_bytes())
            labels = [label for label, _ in read_framed(path)]
            assert labels[0] == "meta"
            assert set(labels[1:]) == {"attr:a", "attr:b"}

    def test_frame_sections_concatenate_to_rpix_stream(self, table, tmp_path):
        from repro.storage.integrity import read_framed

        index = RangeEncodedBitmapIndex(table, codec="bbc")
        path = tmp_path / "ix.idx"
        save_bitmap_index(index, path)
        payload = b"".join(body for _, body in read_framed(path))
        assert payload == dump_bitmap_index(index)

    def test_legacy_unframed_files_still_load(self, table, tmp_path):
        from repro.observability import use_registry

        index = EqualityEncodedBitmapIndex(table, codec="wah")
        va = VAFile(table)
        bitmap_path = tmp_path / "old-ix.idx"
        bitmap_path.write_bytes(dump_bitmap_index(index))
        va_path = tmp_path / "old-va.idx"
        va_path.write_bytes(dump_vafile(va))
        with use_registry() as registry:
            loaded_ix = load_bitmap_index_file(bitmap_path)
            loaded_va = load_vafile_file(va_path, table)
        assert np.array_equal(
            loaded_ix.execute_ids(QUERY, MissingSemantics.IS_MATCH),
            index.execute_ids(QUERY, MissingSemantics.IS_MATCH),
        )
        assert np.array_equal(loaded_va.codes("a"), va.codes("a"))
        counters = registry.snapshot().counters
        assert counters["storage.legacy_loads"] == 2

class TestMmapLoads:
    """``use_mmap=True`` loads answer identically with zero-copy payloads."""

    @pytest.mark.parametrize("codec", ["none", "wah", "bbc"])
    def test_mmap_bitmap_load_answers_identically(self, table, tmp_path, codec):
        index = RangeEncodedBitmapIndex(table, codec=codec)
        path = tmp_path / "ix.idx"
        save_bitmap_index(index, path)
        loaded = load_bitmap_index_file(path, use_mmap=True)
        for semantics in MissingSemantics:
            assert np.array_equal(
                loaded.execute_ids(QUERY, semantics),
                index.execute_ids(QUERY, semantics),
            )

    def test_mmap_vafile_load_answers_identically(self, table, tmp_path):
        va = VAFile(table)
        path = tmp_path / "va.idx"
        save_vafile(va, path)
        loaded = load_vafile_file(path, table, use_mmap=True)
        assert np.array_equal(loaded.codes("a"), va.codes("a"))
        for semantics in MissingSemantics:
            assert np.array_equal(
                loaded.execute_ids(QUERY, semantics),
                va.execute_ids(QUERY, semantics),
            )

    def test_mmap_validates_checksums(self, table, tmp_path):
        path = tmp_path / "ix.idx"
        save_bitmap_index(EqualityEncodedBitmapIndex(table), path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptIndexError):
            load_bitmap_index_file(path, use_mmap=True)

    def test_mmap_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(CorruptIndexError):
            load_bitmap_index_file(path, use_mmap=True)

    def test_mmap_legacy_unframed_counted(self, table, tmp_path):
        from repro.observability import use_registry

        index = EqualityEncodedBitmapIndex(table, codec="wah")
        path = tmp_path / "old-ix.idx"
        path.write_bytes(dump_bitmap_index(index))
        with use_registry() as registry:
            loaded = load_bitmap_index_file(path, use_mmap=True)
        assert np.array_equal(
            loaded.execute_ids(QUERY, MissingSemantics.IS_MATCH),
            index.execute_ids(QUERY, MissingSemantics.IS_MATCH),
        )
        counters = registry.snapshot().counters
        assert counters["storage.legacy_loads"] == 1
