"""Keyed feature tables passed between extraction, aggregation, and assembly.

A table maps ``(subject, sentence_id, word_index)`` keys (subject level) or
``(sentence_id, word_index)`` keys (token level, after subject aggregation)
to fixed-width float vectors whose dimensions are named in ``dims``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .ingest import (
    _Kind, _Records, _as_int, _as_names, _as_str, _dumps, _header, _lines_text, _numbers,
)


@dataclass
class FeatureTable:
    dims: tuple[str, ...]
    rows: dict[tuple, np.ndarray] = field(default_factory=dict)
    subject_keyed: bool = True

    def __post_init__(self):
        width = len(self.dims)
        for key, vec in self.rows.items():
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (width,):
                raise ValidationError(
                    f"row {key} has {vec.shape} values, expected ({width},)"
                )
            self.rows[key] = vec

    def dim_index(self, name: str) -> int:
        try:
            return self.dims.index(name)
        except ValueError:
            raise ValidationError(f"no dimension named {name!r}") from None

    def subjects(self) -> tuple[str, ...]:
        if not self.subject_keyed:
            return ()
        return tuple(sorted({key[0] for key in self.rows}))

    def __len__(self) -> int:
        return len(self.rows)


def write_token_table(table: FeatureTable, header_extra: dict | None = None) -> str:
    """Serialize a token-level table: header line with dims, then one row per line."""
    if table.subject_keyed:
        raise ValidationError("expected a token-level table")
    lines = [_dumps(_header("features", header_extra, dims=list(table.dims)))]
    for (sid, w), vec in table.rows.items():
        values = np.asarray(vec, dtype=float)
        lines.append(_dumps({"sentence_id": sid, "word_index": w, "values": values}))
    return _lines_text(lines)


def _dims(fields: dict, lineno: int) -> tuple[str, ...]:
    return _as_names(fields["dims"], f"{fields['kind']} header 'dims'", lineno)


def read_table(
    lines: Iterable[str], kind: str, subject_keyed: bool, *, optional=(), strict=False
) -> FeatureTable:
    """Read a table file: a header of ``kind`` with the dims, then one row
    per key, ``(subject, sentence_id, word_index)`` or ``(sentence_id,
    word_index)``, with one value per dim and ``optional`` fields unread."""
    key_fields = ("sentence_id", "word_index")
    if subject_keyed:
        key_fields = ("subject",) + key_fields
    line_kind = _Kind(key_fields + ("values",), optional, kind, ("dims",), _dims)

    def entry(obj: dict, lineno: int, text: str, dims: tuple[str, ...]):
        key = tuple(_as_str(obj, name, lineno) for name in key_fields[:-1])
        key += (_as_int(obj, "word_index", lineno),)
        return key, _numbers([obj["values"]], len(dims), ("field 'values'",), lineno, text).flatten()

    records = _Records(lines, line_kind, entry, strict=strict)
    rows = dict(row for _, row in records)
    return FeatureTable(dims=records.header, rows=rows, subject_keyed=subject_keyed)


def read_token_table(lines: Iterable[str], *, strict: bool = False) -> FeatureTable:
    """Read a file written by ``write_token_table``."""
    return read_table(lines, "features", subject_keyed=False, strict=strict)


def concat_tables(tables: Mapping[str, FeatureTable]) -> FeatureTable:
    """Join token-level tables on their keys; dims are prefixed ``source/name``.

    Keys form the union; a table missing a key contributes zeros for its block.
    """
    dims: list[str] = []
    for source, table in tables.items():
        if table.subject_keyed:
            raise ValidationError(f"table {source!r} is not token-level")
        dims.extend(f"{source}/{d}" for d in table.dims)
    keys: list[tuple] = []
    seen = set()
    for table in tables.values():
        for key in table.rows:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    rows: dict[tuple, np.ndarray] = {}
    for key in sorted(keys):
        parts = []
        for table in tables.values():
            vec = table.rows.get(key)
            parts.append(vec if vec is not None else np.zeros(len(table.dims)))
        rows[key] = np.concatenate(parts) if parts else np.zeros(0)
    return FeatureTable(dims=tuple(dims), rows=rows, subject_keyed=False)
