"""Save and load bitmap indexes and VA-files as real index files.

Bitmap index files are self-contained: the bitvectors plus per-attribute
metadata are everything query execution needs, so :func:`load_bitmap_index`
returns a fully functional index without the base table.

VA-files are *not* self-contained — the refinement phase reads actual
values, the paper's "actual database pages" — so :func:`load_vafile` takes
the table the file was built from.  Approximations are stored bit-packed at
``b_i`` bits per record, which is exactly the size the paper's Figure 4
plots for the VA-file.
"""

from __future__ import annotations

import io
import mmap
import os
import struct

import numpy as np

from repro.bitmap.base import BitmapIndex, _AttributeBitmaps
from repro.bitmap.bitsliced import BitSlicedIndex
from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.interval_encoded import IntervalEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.bbc import BbcBitVector
from repro.bitvector.bitvector import BitVector
from repro.bitvector.wah import WahBitVector
from repro.dataset.table import IncompleteTable
from repro.errors import CorruptIndexError, ReproError
from repro.observability import record
from repro.storage import format as fmt
from repro.storage.integrity import is_framed, parse_frame, write_framed
from repro.vafile.quantizer import QuantileQuantizer, UniformQuantizer
from repro.vafile.vafile import VAFile, _code_dtype

_ENCODINGS: dict[str, type[BitmapIndex]] = {
    "equality": EqualityEncodedBitmapIndex,
    "range": RangeEncodedBitmapIndex,
    "interval": IntervalEncodedBitmapIndex,
    "bitsliced": BitSlicedIndex,
}

_QUANT_TAGS = {"uniform": 0, "vaplus": 1}
_QUANT_NAMES = {tag: name for name, tag in _QUANT_TAGS.items()}


class _BufferReader:
    """A read/seek/tell stream over a buffer whose reads are zero-copy.

    ``io.BytesIO`` copies its input up front, which defeats memory-mapped
    loads: this reader keeps one :class:`memoryview` and returns subviews,
    so a WAH payload loaded from an mmap'd index file aliases the page
    cache all the way into its ``np.frombuffer`` word array.  Only the
    stream methods the loaders use (:func:`repro.storage.format` readers)
    are implemented.
    """

    __slots__ = ("_view", "_pos")

    def __init__(self, view: memoryview):
        self._view = view
        self._pos = 0

    def read(self, size: int = -1) -> memoryview:
        if size is None or size < 0:
            end = len(self._view)
        else:
            end = min(self._pos + size, len(self._view))
        chunk = self._view[self._pos:end]
        self._pos = end
        return chunk

    def tell(self) -> int:
        return self._pos

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        if whence == io.SEEK_SET:
            position = offset
        elif whence == io.SEEK_CUR:
            position = self._pos + offset
        elif whence == io.SEEK_END:
            position = len(self._view) + offset
        else:
            raise ValueError(f"unsupported whence {whence}")
        if position < 0:
            raise ValueError(f"negative seek position {position}")
        self._pos = position
        return position


def _reader(data) -> _BufferReader:
    """Wrap bytes / memoryview / mmap payloads in a zero-copy reader."""
    if isinstance(data, _BufferReader):
        return data
    if not isinstance(data, memoryview):
        data = memoryview(data)
    return _BufferReader(data)


# -- bitvector payloads -------------------------------------------------------

def _vector_payload(vec) -> bytes:
    if isinstance(vec, BitVector):
        return vec.words.tobytes()
    if isinstance(vec, WahBitVector):
        return vec.words.tobytes()
    if isinstance(vec, BbcBitVector):
        return vec.data.tobytes()
    raise ReproError(f"cannot serialize bitvector type {type(vec).__name__}")


def _vector_from_payload(codec: str, nbits: int, payload: bytes):
    # Loader buffer discipline: WAH and BBC instances are immutable, so
    # their payloads stay zero-copy read-only np.frombuffer views of the
    # file bytes; BitVector needs a writable buffer (tail masking and
    # in-place kernels), so its constructor copies the read-only view.
    if codec == "none":
        if len(payload) % 8:
            raise CorruptIndexError(
                f"verbatim payload of {len(payload)} bytes is not 64-bit aligned"
            )
        return BitVector(nbits, np.frombuffer(payload, dtype=np.uint64))
    if codec == "wah":
        if len(payload) % 4:
            raise CorruptIndexError(
                f"WAH payload of {len(payload)} bytes is not word aligned"
            )
        return WahBitVector(nbits, np.frombuffer(payload, dtype=np.uint32))
    if codec == "bbc":
        vec = BbcBitVector(nbits, np.frombuffer(payload, dtype=np.uint8))
        vec.decompress()  # eager validation of the stream
        return vec
    raise CorruptIndexError(f"unknown codec {codec!r} in index file")


# -- bitmap indexes ------------------------------------------------------------

def dump_bitmap_index_sections(index: BitmapIndex) -> list[tuple[str, bytes]]:
    """Serialize a bitmap index as labelled frame sections.

    One ``meta`` section (container header + encoding name) and one
    ``attr:<name>`` section per attribute; concatenating the payloads in
    order yields exactly the byte stream :func:`load_bitmap_index` parses,
    while the per-section split lets the frame record one CRC32 per
    attribute so fsck can name the damaged attribute.
    """
    if index.encoding not in _ENCODINGS:
        raise ReproError(
            f"only {sorted(_ENCODINGS)} encodings are serializable, "
            f"not {index.encoding!r}"
        )
    out = io.BytesIO()
    fmt.write_header(
        out,
        fmt.KIND_BITMAP,
        fmt.CODEC_TAGS[index.codec],
        index.num_records,
        len(index.attributes),
    )
    fmt.write_str(out, index.encoding)
    sections = [("meta", out.getvalue())]
    for name in index.attributes:
        family = index._family(name)
        out = io.BytesIO()
        fmt.write_str(out, name)
        out.write(
            struct.pack(
                "<IBI",
                family.cardinality,
                1 if family.has_missing else 0,
                len(family.vectors),
            )
        )
        for slot, vec in sorted(family.vectors.items()):
            out.write(struct.pack("<I", slot))
            fmt.write_bytes(out, _vector_payload(vec))
        sections.append((f"attr:{name}", out.getvalue()))
    return sections


def dump_bitmap_index(index: BitmapIndex) -> bytes:
    """Serialize a BEE or BRE index to bytes."""
    return b"".join(
        payload for _, payload in dump_bitmap_index_sections(index)
    )


def load_bitmap_index(data) -> BitmapIndex:
    """Deserialize a bitmap index; the result is fully queryable.

    ``data`` may be ``bytes``, a :class:`memoryview` (e.g. over a shared
    memory block or an mmap'd file), or a :class:`_BufferReader`; in every
    case WAH/BBC payloads alias the input buffer zero-copy.
    """
    stream = _reader(data)
    kind, codec_tag, num_records, num_attributes = fmt.read_header(stream)
    if kind != fmt.KIND_BITMAP:
        raise CorruptIndexError("index file does not contain a bitmap index")
    codec = fmt.CODEC_NAMES[codec_tag]
    encoding = fmt.read_str(stream)
    try:
        cls = _ENCODINGS[encoding]
    except KeyError:
        raise CorruptIndexError(f"unknown bitmap encoding {encoding!r}")
    index = cls.__new__(cls)
    index._codec = codec
    index._nbits = num_records
    index._attrs = {}
    for _ in range(num_attributes):
        name = fmt.read_str(stream)
        raw = stream.read(struct.calcsize("<IBI"))
        if len(raw) != struct.calcsize("<IBI"):
            raise CorruptIndexError("truncated attribute header")
        cardinality, has_missing, num_bitmaps = struct.unpack("<IBI", raw)
        vectors = {}
        for _ in range(num_bitmaps):
            raw_slot = stream.read(4)
            if len(raw_slot) != 4:
                raise CorruptIndexError("truncated bitmap slot")
            (slot,) = struct.unpack("<I", raw_slot)
            payload = fmt.read_bytes(stream)
            vectors[slot] = _vector_from_payload(codec, num_records, payload)
        index._attrs[name] = _AttributeBitmaps(
            cardinality, bool(has_missing), vectors, num_records, codec
        )
    return index


#: Exceptions a structural parser may leak on malformed-but-CRC-clean input
#: (only reachable for unframed legacy files); loaders convert them so a
#: corrupted file never surfaces as a bare ``struct.error`` or numpy error.
_PARSE_ERRORS = (ValueError, KeyError, IndexError, OverflowError,
                 struct.error, EOFError)


def _read_payload(path: str | os.PathLike, use_mmap: bool = False):
    """A file's logical payload: framed sections re-joined, or raw bytes.

    Framed files get full checksum validation here; unframed files are
    accepted as legacy (pre-checksum) payloads and counted via the
    ``storage.legacy_loads`` counter.

    With ``use_mmap=True`` the file is memory-mapped read-only and the
    returned payload is a :class:`memoryview` over the mapping instead of
    a heap copy.  RPF1 lays section payloads back to back after the
    directory and :func:`parse_frame` enforces that they fill the file
    exactly, so a validated frame's joined payload *is* the contiguous
    tail of the mapping — no reassembly copy needed.  Checksum validation
    still touches every page once; what mmap buys is that the resident
    index words are backed by the page cache and shared across processes
    mapping the same file.  No loader in the library passes it today; it is
    kept for reader processes that map a committed generation (ROADMAP 5c).
    """
    if use_mmap:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size == 0:
                raise CorruptIndexError(f"{os.fspath(path)} is empty")
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        view = memoryview(mapped)
        if is_framed(view):
            sections = parse_frame(view, source=os.fspath(path))
            total = sum(len(payload) for _, payload in sections)
            return view[len(view) - total:]
        record("storage.legacy_loads")
        return view
    with open(path, "rb") as handle:
        data = handle.read()
    if is_framed(data):
        sections = parse_frame(data, source=os.fspath(path))
        return b"".join(payload for _, payload in sections)
    record("storage.legacy_loads")
    return data


def save_bitmap_index(index: BitmapIndex, path: str | os.PathLike) -> int:
    """Atomically write a checksummed index file; returns its size in bytes."""
    return write_framed(path, dump_bitmap_index_sections(index))


def load_bitmap_index_file(path: str | os.PathLike,
                           use_mmap: bool = False) -> BitmapIndex:
    """Read an index file written by :func:`save_bitmap_index`.

    With ``use_mmap=True`` the bitvector payloads stay zero-copy views over
    a read-only memory mapping of the file, shared through the page cache
    across processes mapping the same generation directory.
    """
    payload = _read_payload(path, use_mmap=use_mmap)
    try:
        return load_bitmap_index(payload)
    except CorruptIndexError as exc:
        raise CorruptIndexError(f"{os.fspath(path)}: {exc}") from exc
    except _PARSE_ERRORS as exc:
        raise CorruptIndexError(
            f"{os.fspath(path)}: malformed bitmap index file ({exc})"
        ) from exc


# -- VA-files -------------------------------------------------------------------

def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Bit-pack an array of ``bits``-wide codes (little-endian bit order)."""
    codes = np.asarray(codes, dtype=np.uint32)
    shifts = np.arange(bits, dtype=np.uint32)
    bit_matrix = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1), bitorder="little").tobytes()


def unpack_codes(payload: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    flat = np.unpackbits(raw, bitorder="little")
    if len(flat) < count * bits:
        raise CorruptIndexError("packed code array shorter than declared")
    bit_matrix = flat[: count * bits].reshape(count, bits).astype(np.uint32)
    weights = (np.uint32(1) << np.arange(bits, dtype=np.uint32))
    return (bit_matrix * weights).sum(axis=1, dtype=np.uint32)


def dump_vafile_sections(vafile: VAFile) -> list[tuple[str, bytes]]:
    """Serialize a VA-file as labelled frame sections (see bitmap variant)."""
    out = io.BytesIO()
    fmt.write_header(
        out, fmt.KIND_VAFILE, 0, vafile.num_records, len(vafile.attributes)
    )
    out.write(struct.pack("<B", _QUANT_TAGS[vafile.quantization]))
    sections = [("meta", out.getvalue())]
    for name in vafile.attributes:
        quantizer = vafile.quantizer(name)
        out = io.BytesIO()
        fmt.write_str(out, name)
        out.write(struct.pack("<IB", quantizer.cardinality, quantizer.bits))
        if isinstance(quantizer, QuantileQuantizer):
            fmt.write_int_array(out, quantizer._upper_edges, "<i8")
        fmt.write_bytes(out, pack_codes(vafile.codes(name), quantizer.bits))
        sections.append((f"attr:{name}", out.getvalue()))
    return sections


def dump_vafile(vafile: VAFile) -> bytes:
    """Serialize a VA-file (approximations + quantizer metadata) to bytes."""
    return b"".join(payload for _, payload in dump_vafile_sections(vafile))


def load_vafile(data, table: IncompleteTable) -> VAFile:
    """Deserialize a VA-file over the table it was built from.

    Accepts the same buffer types as :func:`load_bitmap_index`.
    """
    stream = _reader(data)
    kind, _, num_records, num_attributes = fmt.read_header(stream)
    if kind != fmt.KIND_VAFILE:
        raise CorruptIndexError("index file does not contain a VA-file")
    if num_records != table.num_records:
        raise CorruptIndexError(
            f"VA-file covers {num_records} records but the table has "
            f"{table.num_records}"
        )
    raw = stream.read(1)
    if len(raw) != 1:
        raise CorruptIndexError("truncated quantization tag")
    quant_tag = raw[0]
    if quant_tag not in _QUANT_NAMES:
        raise CorruptIndexError(f"unknown quantization tag {quant_tag}")
    quantization = _QUANT_NAMES[quant_tag]

    vafile = VAFile.__new__(VAFile)
    vafile._table = table
    vafile._quantization = quantization
    vafile._quantizers = {}
    vafile._codes = {}
    for _ in range(num_attributes):
        name = fmt.read_str(stream)
        raw = stream.read(struct.calcsize("<IB"))
        if len(raw) != struct.calcsize("<IB"):
            raise CorruptIndexError("truncated VA attribute header")
        cardinality, bits = struct.unpack("<IB", raw)
        if quantization == "uniform":
            quantizer = UniformQuantizer(cardinality, bits)
        else:
            edges = fmt.read_int_array(stream, "<i8")
            quantizer = QuantileQuantizer.__new__(QuantileQuantizer)
            quantizer._cardinality = cardinality
            quantizer._bits = bits
            quantizer._nbins = (1 << bits) - 1
            quantizer._upper_edges = edges
        payload = fmt.read_bytes(stream)
        codes = unpack_codes(payload, bits, num_records).astype(
            _code_dtype(bits)
        )
        codes.setflags(write=False)
        vafile._quantizers[name] = quantizer
        vafile._codes[name] = codes
    return vafile


def save_vafile(vafile: VAFile, path: str | os.PathLike) -> int:
    """Atomically write a checksummed VA-file; returns its size in bytes."""
    return write_framed(path, dump_vafile_sections(vafile))


def load_vafile_file(path: str | os.PathLike, table: IncompleteTable,
                     use_mmap: bool = False) -> VAFile:
    """Read an index file written by :func:`save_vafile`.

    ``use_mmap=True`` keeps the packed code array a view over a read-only
    memory mapping instead of a heap copy.
    """
    payload = _read_payload(path, use_mmap=use_mmap)
    try:
        return load_vafile(payload, table)
    except CorruptIndexError as exc:
        raise CorruptIndexError(f"{os.fspath(path)}: {exc}") from exc
    except _PARSE_ERRORS as exc:
        raise CorruptIndexError(
            f"{os.fspath(path)}: malformed VA-file ({exc})"
        ) from exc
