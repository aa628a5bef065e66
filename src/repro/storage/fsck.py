"""Offline integrity verification for saved databases.

:func:`verify_sharded` walks a directory written by
:func:`repro.shard.manifest.save_sharded` and reports, per file, one of

``ok``       frame parses and every recorded checksum matches
``corrupt``  a checksum mismatch or malformed frame/manifest
``missing``  the manifest references a file that does not exist
``orphan``   a file or generation directory nothing references (stale
             state from an interrupted save; harmless, load ignores it)

The walk is read-only and never raises for damage it finds — damage *is*
the output.  ``python -m repro.experiments fsck <dir>`` is the CLI wrapper;
its exit status is non-zero when anything is corrupt or missing.

With ``deep=True`` each shard table and index file is additionally parsed
all the way through its loader (catching structural damage inside a
CRC-clean legacy file); the default checks frame checksums and the CRC32s
recorded in the manifest, which already detect any byte flip or truncation
in framed files.

Every verdict is counted on the installed metrics registry as
``storage.fsck.ok`` / ``storage.fsck.corrupt`` / ``storage.fsck.missing`` /
``storage.fsck.orphan``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CorruptIndexError, ReproError
from repro.observability import record
from repro.storage.integrity import file_crc32, is_framed, parse_frame

__all__ = ["FsckFinding", "FsckReport", "verify_file", "verify_sharded"]

OK = "ok"
CORRUPT = "corrupt"
MISSING = "missing"
ORPHAN = "orphan"


@dataclass(frozen=True)
class FsckFinding:
    """One file's verdict."""

    path: str
    status: str
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.status.upper():8s} {self.path}{suffix}"


@dataclass
class FsckReport:
    """Every finding from one :func:`verify_sharded` walk."""

    directory: str
    findings: list[FsckFinding] = field(default_factory=list)

    def add(self, path: str, status: str, detail: str = "") -> None:
        """Record one verdict (and count it on the metrics registry)."""
        self.findings.append(FsckFinding(path, status, detail))
        record(f"storage.fsck.{status}")

    def paths(self, status: str) -> list[str]:
        """Paths whose verdict is ``status``."""
        return [f.path for f in self.findings if f.status == status]

    @property
    def ok(self) -> bool:
        """True when nothing is corrupt or missing (orphans are benign)."""
        return not any(
            f.status in (CORRUPT, MISSING) for f in self.findings
        )

    def format(self) -> str:
        """Human-readable report, one line per file plus a summary."""
        lines = [f"fsck {self.directory}"]
        lines += [f"  {finding}" for finding in self.findings]
        tally = {}
        for finding in self.findings:
            tally[finding.status] = tally.get(finding.status, 0) + 1
        summary = ", ".join(
            f"{count} {status}" for status, count in sorted(tally.items())
        )
        lines.append(f"  => {summary or 'nothing to check'}")
        return "\n".join(lines)


def verify_file(
    path: str | os.PathLike,
    expected_crc32: int | None = None,
    expected_bytes: int | None = None,
) -> FsckFinding:
    """Verdict for one file: frame validation plus recorded-CRC comparison.

    Unframed files are legacy payloads; they only fail here if the manifest
    recorded a checksum or size that no longer matches.
    """
    target = Path(path)
    name = os.fspath(path)
    if not target.exists():
        return FsckFinding(name, MISSING, "referenced but absent")
    data = target.read_bytes()
    if expected_bytes is not None and len(data) != expected_bytes:
        return FsckFinding(
            name, CORRUPT,
            f"{len(data)} bytes on disk, manifest recorded {expected_bytes}",
        )
    if expected_crc32 is not None:
        actual, _ = file_crc32(target)
        if actual != expected_crc32:
            record("storage.checksum_failures")
            return FsckFinding(
                name, CORRUPT,
                f"crc32 {actual} != recorded {expected_crc32}",
            )
    if is_framed(data):
        try:
            parse_frame(data, source=name)
        except CorruptIndexError as exc:
            return FsckFinding(name, CORRUPT, str(exc))
    return FsckFinding(name, OK)


def _finding_with_deep(
    path: Path,
    crc: int | None,
    nbytes: int | None,
    deep_parser,
) -> FsckFinding:
    """One file's final verdict: shallow checks, then the optional parser."""
    finding = verify_file(path, crc, nbytes)
    if finding.status != OK or deep_parser is None:
        return finding
    try:
        deep_parser(path)
    except ReproError as exc:
        return FsckFinding(str(path), CORRUPT, f"deep parse failed: {exc}")
    return finding


def verify_sharded(
    directory: str | os.PathLike, deep: bool = False
) -> FsckReport:
    """Walk a saved database and report per-file integrity.

    Checks the manifest itself (JSON, format/version tags, self-checksum,
    shard-id catalog shape), then every referenced file, then
    flags unreferenced generation directories as orphans.  Never raises on
    damage — inspect :attr:`FsckReport.ok` / :meth:`FsckReport.paths`.
    """
    # Imported lazily: repro.shard imports repro.storage at module load.
    from repro.dataset.io import load_table
    from repro.shard.manifest import (
        MANIFEST_NAME,
        _check_shard_entries,
        _file_fields,
        _read_manifest,
    )

    root = Path(directory)
    report = FsckReport(directory=os.fspath(directory))
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        report.add(str(manifest_path), MISSING, "no manifest in directory")
        return report
    try:
        manifest = _read_manifest(manifest_path)
        entries = _check_shard_entries(manifest, manifest_path)
    except ReproError as exc:
        report.add(str(manifest_path), CORRUPT, str(exc))
        return report
    from repro.shard.manifest import _BITMAP_KINDS
    from repro.storage.serialize import (
        load_bitmap_index_file,
        load_vafile_file,
    )

    report.add(str(manifest_path), OK)
    referenced: set[Path] = set()
    for entry in entries:
        shard_table = None

        def table_parser(path):
            nonlocal shard_table
            shard_table = load_table(path)

        def index_parser_for(kind):
            if kind in _BITMAP_KINDS:
                return load_bitmap_index_file
            if kind == "vafile" and shard_table is not None:
                return lambda path: load_vafile_file(path, shard_table)
            return None

        rel, crc, nbytes = _file_fields(entry["table"])
        path = root / rel
        referenced.add(path)
        finding = _finding_with_deep(
            path, crc, nbytes, table_parser if deep else None
        )
        report.add(finding.path, finding.status, finding.detail)
        for index_entry in entry["indexes"]:
            rel, crc, nbytes = _file_fields(index_entry["file"])
            path = root / rel
            referenced.add(path)
            finding = _finding_with_deep(
                path, crc, nbytes,
                index_parser_for(index_entry["kind"]) if deep else None,
            )
            report.add(finding.path, finding.status, finding.detail)
    generation = manifest.get("generation")
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        name = child.name
        if name.startswith("gen-") or (
            name.startswith("shard-") and name[6:].isdigit()
        ):
            if not any(
                path.is_relative_to(child) for path in referenced
            ):
                report.add(
                    str(child), ORPHAN,
                    "not referenced by the current manifest"
                    + (f" (generation {generation})" if generation else ""),
                )
    return report
