"""Metric-name drift lint: src/ call sites <-> docs/observability.md tables.

Every metric name recorded anywhere under ``src/`` must appear in the
metric tables of ``docs/observability.md``, and every documented name must
correspond to a live call site — so the documentation cannot silently rot
as instrumentation is added or removed.

Wildcards bridge the dynamic parts: an f-string call site like
``record(f"engine.queries.{kind}")`` lints as ``engine.queries.*``, and
the docs' ``{a,b}`` / ``[.suffix]`` / ``*`` forms expand to patterns,
matched both ways with :func:`fnmatch.fnmatch`.
"""

from __future__ import annotations

import re
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
DOC = REPO / "docs" / "observability.md"

#: Direct instrument/record calls, including multi-line ones and the
#: ``_obs_record`` / ``_obs_observe`` import aliases the layers use.  The
#: ``f?`` group tells us whether placeholders need wildcarding.
_CALL_RE = re.compile(
    r"(?:\b(?:_obs_)?record|\b(?:_obs_)?observe|_record_metric"
    r"|\.counter|\.gauge|\.histogram|\.timer)"
    r"\(\s*(f?)\"([^\"]+)\"",
)

#: Metric-shaped string literals (dotted lowercase paths).  Catches names
#: routed through constants, e.g. the ``_MISSING_METRIC`` semantics map in
#: ``bitmap/base.py`` — but only for known metric namespaces, so module
#: paths and file names don't false-positive.
_LITERAL_RE = re.compile(r"(f?)\"([a-z]+(?:\.[a-z0-9_{}]+)+)\"")

#: First path segment of every real metric namespace.  A literal outside
#: these namespaces is not a metric name.
_NAMESPACES = (
    "wah", "bbc", "bitmap", "vafile", "cache", "engine", "planner",
    "shard", "storage", "telemetry", "workload", "serve", "epoch",
    "semantics",
)

#: Span-opening calls: their dotted names are span names (documented in
#: the "Per-query traces" prose), not metric names — not linted here.
_SPAN_RE = re.compile(r"(?:trace_span|\.span)\(\s*f?\"([^\"]+)\"")

#: In-table metric cells: the first cell of a ``| ... | ... |`` row,
#: holding one or more backticked names.
_DOC_ROW_RE = re.compile(r"^\|([^|]+)\|")
_BACKTICK_RE = re.compile(r"`([^`]+)`")


def _wildcard_placeholders(name: str) -> str:
    """``engine.queries.{kind}`` -> ``engine.queries.*``."""
    return re.sub(r"\{[^},]*\}", "*", name)


def source_metric_names() -> set[str]:
    names: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        span_names = set(_SPAN_RE.findall(text))
        for is_f, name in _CALL_RE.findall(text):
            if "." not in name:
                continue
            names.add(_wildcard_placeholders(name) if is_f else name)
        for is_f, name in _LITERAL_RE.findall(text):
            if name.split(".", 1)[0] in _NAMESPACES and name not in span_names:
                names.add(_wildcard_placeholders(name) if is_f else name)
    return names


def _expand_doc_token(token: str) -> list[str]:
    """One backticked docs name -> concrete patterns.

    Handles ``{a,b}`` alternation, ``{kind}`` placeholders (-> ``*``),
    ``[.suffix]`` optional tails, and literal ``*`` wildcards.
    """
    brace = re.search(r"\{([^}]*,[^}]*)\}", token)
    if brace:
        return [
            variant
            for option in brace.group(1).split(",")
            for variant in _expand_doc_token(
                token[: brace.start()] + option + token[brace.end():]
            )
        ]
    optional = re.search(r"\[([^\]]+)\]", token)
    if optional:
        without = token[: optional.start()] + token[optional.end():]
        with_suffix = (
            token[: optional.start()]
            + optional.group(1).rstrip(".") + ".*"
            + token[optional.end():]
        )
        return _expand_doc_token(without) + _expand_doc_token(with_suffix)
    return [_wildcard_placeholders(token)]


def documented_metric_names() -> set[str]:
    names: set[str] = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        row = _DOC_ROW_RE.match(line.strip())
        if not row:
            continue
        for token in _BACKTICK_RE.findall(row.group(1)):
            if "." not in token or "/" in token or " " in token:
                continue  # route paths, prose, non-metric cells
            names.update(_expand_doc_token(token))
    return names


def _covered(name: str, patterns: set[str]) -> bool:
    return any(
        fnmatch(name, pattern) or fnmatch(pattern, name)
        for pattern in patterns
    )


class TestMetricNameDrift:
    def test_fixture_extractors_find_both_sides(self):
        src = source_metric_names()
        doc = documented_metric_names()
        # Sanity: the extractors must see the well-known names, otherwise
        # the two coverage tests below would vacuously pass.
        for expected in ("wah.words_decoded", "shard.pruned",
                         "workload.records", "telemetry.requests"):
            assert expected in src, f"extractor lost src name {expected}"
            assert expected in doc, f"extractor lost documented {expected}"
        assert "bitmap.missing_consulted.is_match" in src  # via constant map
        # Recorded by the OpCounter as each operation is accounted.
        for name in ("bitmap.bitvectors_touched", "bitmap.binary_ops",
                     "bitmap.not_ops", "bitmap.words_processed"):
            assert name in src, f"extractor lost src name {name}"
        assert "engine.queries.*" in src  # via f-string call site
        assert len(src) > 30 and len(doc) > 30

    def test_every_recorded_metric_is_documented(self):
        doc = documented_metric_names()
        undocumented = sorted(
            name for name in source_metric_names() if not _covered(name, doc)
        )
        assert not undocumented, (
            "metric names recorded in src/ but absent from the tables in "
            f"docs/observability.md: {undocumented}"
        )

    def test_every_documented_metric_is_recorded(self):
        src = source_metric_names()
        stale = sorted(
            name
            for name in documented_metric_names()
            if not _covered(name, src)
        )
        assert not stale, (
            "metric names documented in docs/observability.md but never "
            f"recorded anywhere in src/: {stale}"
        )
