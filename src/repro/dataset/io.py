"""Save/load :class:`IncompleteTable` instances as ``.npz`` archives.

The on-disk format stores one array per column plus a parallel pair of
metadata arrays (names and cardinalities), so a saved table round-trips its
schema exactly even when some domain values never occur in the data.  Each
column is stored in the narrowest unsigned type that holds its codes
(``np.min_scalar_type(C)``: ``uint8`` up to C = 255, then ``uint16``, ...);
loading widens it back to ``int64``, and older ``int64`` files load as-is.

Tables are written through :mod:`repro.storage.integrity`: the compressed
``.npz`` bytes ride inside a checksummed ``RPF1`` frame and reach disk via
an atomic temp-file + rename, so torn writes and bit rot surface as
:class:`~repro.errors.CorruptIndexError` instead of a wrong table.  Plain
(unframed) ``.npz`` files from older versions still load.

``np.savez_compressed`` historically appended ``.npz`` to suffix-less
paths, which made ``save_table(t, "foo")`` write ``foo.npz`` while
``load_table("foo")`` looked for ``foo``.  Both directions now normalize
the path the same way: a path without an ``.npz`` suffix gets one appended
on save *and* on load, so every name that saves also loads.
"""

from __future__ import annotations

import io
import os
import zipfile

import numpy as np

from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import IncompleteTable
from repro.errors import CorruptIndexError, ReproError
from repro.observability import record
from repro.storage.integrity import is_framed, parse_frame, write_framed

_NAMES_KEY = "__names__"
_CARDS_KEY = "__cardinalities__"
_SECTION = "table.npz"


def _normalized(path: str | os.PathLike) -> str:
    """The on-disk path for ``path``: ``.npz`` appended unless present."""
    name = os.fspath(path)
    return name if name.endswith(".npz") else name + ".npz"


def save_table(table: IncompleteTable, path: str | os.PathLike) -> int:
    """Atomically write ``table`` to ``path`` as a checksummed ``.npz``.

    Returns the number of bytes written.  A path without an ``.npz``
    suffix gets one appended (matching :func:`load_table`).
    """
    arrays: dict[str, np.ndarray] = {
        _NAMES_KEY: np.array(table.schema.names, dtype=np.str_),
        _CARDS_KEY: np.array(
            [spec.cardinality for spec in table.schema], dtype=np.int64
        ),
    }
    for index, spec in enumerate(table.schema):
        arrays[f"col_{index}"] = table.column(spec.name).astype(
            np.min_scalar_type(spec.cardinality)
        )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return write_framed(_normalized(path), [(_SECTION, buffer.getvalue())])


def load_table(path: str | os.PathLike) -> IncompleteTable:
    """Read a table previously written by :func:`save_table`."""
    actual = _normalized(path)
    with open(actual, "rb") as handle:
        data = handle.read()
    if is_framed(data):
        sections = parse_frame(data, source=actual)
        data = b"".join(payload for _, payload in sections)
    else:
        record("storage.legacy_loads")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            if _NAMES_KEY not in archive or _CARDS_KEY not in archive:
                raise CorruptIndexError(
                    f"{actual}: not a saved IncompleteTable archive"
                )
            names = [str(n) for n in archive[_NAMES_KEY]]
            cardinalities = archive[_CARDS_KEY]
            if len(names) != len(cardinalities):
                raise CorruptIndexError(
                    f"{actual}: schema metadata arrays disagree"
                )
            schema = Schema(
                AttributeSpec(name, int(card))
                for name, card in zip(names, cardinalities)
            )
            columns = {
                name: archive[f"col_{index}"]
                for index, name in enumerate(names)
            }
            return IncompleteTable(schema, columns)
    except CorruptIndexError:
        raise
    except (ReproError, zipfile.BadZipFile, ValueError, KeyError,
            OSError, EOFError) as exc:
        # Reachable only for unframed legacy files (framed corruption is
        # caught by the CRCs above), but the contract is the same either
        # way: a damaged table file raises CorruptIndexError, never a raw
        # numpy/zipfile traceback and never a silently wrong table.
        raise CorruptIndexError(
            f"{actual}: corrupt table archive ({exc})"
        ) from exc
