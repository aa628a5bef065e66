"""Shared helpers for the shard tests."""

import io
import json

import numpy as np
import pytest

from repro.shard.manifest import manifest_text
from repro.storage import integrity
from repro.storage.integrity import file_crc32


def write_v2_layout(root, partitioner="contiguous", rows=None):
    """Rewrite a save under ``root`` into the version-2 layout, in place.

    Version 2 stored a ``partitioner`` name and, per shard, a framed
    ``rows.npy`` map of the global ids the shard owns.  ``rows`` gives
    those maps by shard id; by default each is the shard's row range, as
    a ``contiguous`` save wrote it.
    """
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    start = 0
    for entry in sorted(manifest["shards"], key=lambda e: e["shard_id"]):
        count = entry["num_records"]
        ids = (
            np.arange(start, start + count) if rows is None
            else rows[entry["shard_id"]]
        )
        start += count
        rel = entry["table"]["path"].rsplit("/", 1)[0] + "/rows.npy"
        buffer = io.BytesIO()
        np.save(buffer, np.asarray(ids, dtype=np.int64))
        integrity.write_framed(root / rel, [("rows", buffer.getvalue())])
        crc, nbytes = file_crc32(root / rel)
        entry["rows"] = {"path": rel, "crc32": crc, "bytes": nbytes}
    manifest["version"] = 2
    manifest["partitioner"] = partitioner
    path.write_text(manifest_text(manifest))


@pytest.fixture
def v2_layout():
    """:func:`write_v2_layout`, for tests of the legacy manifest path."""
    return write_v2_layout
