"""Expected results from a tuple-key ``sort()``, and result digests.

The reference never calls a ``repro`` sort path: it builds one flat
Python tuple per row -- for every ORDER BY key a NULL rank, a NaN rank
for floats, then the (possibly direction-reversed) value -- appends the
row's input position, and sorts the list.  The position suffix makes the
order exactly that of a stable sort, which is the ORDER BY semantics
every ``repro`` path reproduces (ties keep input order).  It is the same
oracle as ``tests/test_oracle.py``, flattened so that 1M-row inputs sort
in seconds.

Results are compared through digests: a hash of every column's name,
dtype, validity mask and valid values.  NULL slots hold an unspecified
filler (see :class:`repro.table.column.ColumnVector`), so they are
excluded; everything else must match byte for byte.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

from repro.table.table import Table
from repro.types.sortspec import SortSpec

__all__ = [
    "Query",
    "Reference",
    "digest_columns",
    "reference_order",
    "table_digest",
]

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "<>": operator.ne,
}


@dataclass(frozen=True)
class Query:
    """One SELECT ... [WHERE col op literal] ORDER BY ... [LIMIT/OFFSET]."""

    table: str
    order_by: str
    columns: tuple[str, ...] | None = None
    where: tuple[str, str, int] | None = None
    limit: int | None = None
    offset: int = 0

    @property
    def sql(self) -> str:
        selection = "*" if self.columns is None else ", ".join(self.columns)
        text = f"SELECT {selection} FROM {self.table}"
        if self.where is not None:
            column, op, literal = self.where
            text += f" WHERE {column} {op} {int(literal)}"
        text += f" ORDER BY {self.order_by}"
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        if self.offset:
            text += f" OFFSET {self.offset}"
        return text


class _Reversed:
    """Wraps a comparable so an ascending sort orders it descending."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def reference_order(table: Table, order_by: str) -> np.ndarray:
    """Row permutation of ``table`` under ORDER BY ``order_by``."""
    spec = SortSpec.of(*(part.strip() for part in order_by.split(",")))
    slots: list[list] = []
    for key in spec.keys:
        column = table.column(key.column)
        valid = np.asarray(column.validity, dtype=bool)
        data = column.data
        descending = key.descending
        # NULL placement ignores direction; a NULL row's value slot only
        # ever meets another NULL row's (the ranks differ otherwise).
        null_rank = 0 if key.nulls_first else 1
        slots.append(np.where(valid, 1 - null_rank, null_rank).tolist())
        if data.dtype == object:
            values = [
                value if ok else ""
                for value, ok in zip(data.tolist(), valid.tolist())
            ]
            if descending:
                values = [_Reversed(value) for value in values]
        elif data.dtype.kind == "f":
            # NaN sorts after every float ascending, before under DESC.
            nan = np.isnan(data) & valid
            nan_rank = np.where(nan, 0, 1) if descending else np.where(nan, 1, 0)
            slots.append(nan_rank.tolist())
            values = np.where(valid & ~nan, data, 0.0).tolist()
            if descending:
                values = [-value for value in values]
        else:
            values = np.where(valid, data, 0).tolist()
            if descending:
                values = [-value for value in values]
        slots.append(values)
    n = table.num_rows
    keyed = list(zip(*slots, range(n)))
    keyed.sort()
    return np.fromiter((row[-1] for row in keyed), dtype=np.int64, count=n)


def digest_columns(columns) -> str:
    """Digest of ``(name, data, validity)`` triples, NULL slots excluded."""
    digest = hashlib.blake2b(digest_size=20)
    for name, data, validity in columns:
        valid = np.asarray(validity, dtype=bool)
        digest.update(f"{name}\0{data.dtype.str}\0{len(valid)}\0".encode())
        digest.update(np.packbits(valid).tobytes())
        values = data[valid]
        if values.dtype == object:
            encoded = [
                (value if isinstance(value, str) else repr(value)).encode(
                    "utf-8", "surrogatepass"
                )
                for value in values.tolist()
            ]
            digest.update(
                np.fromiter(map(len, encoded), np.int64, len(encoded)).tobytes()
            )
            digest.update(b"".join(encoded))
        else:
            digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def table_digest(table: Table) -> str:
    """Digest of a result table as the program returned it."""
    return digest_columns(
        (name, column.data, column.validity)
        for name, column in zip(table.schema.names, table.columns)
    )


class Reference:
    """Expected result digests for queries over one input table.

    The sorted permutation is computed once per ORDER BY and reused:
    a filtered query's answer is the full order restricted to the rows
    that pass the filter (a stable sort of a subset keeps the subset's
    relative order), and Top-N is a slice of it.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._orders: dict[str, np.ndarray] = {}
        self._digests: dict[Query, str] = {}

    def order(self, order_by: str) -> np.ndarray:
        if order_by not in self._orders:
            self._orders[order_by] = reference_order(self.table, order_by)
        return self._orders[order_by]

    def expected_digest(self, query: Query) -> str:
        if query not in self._digests:
            self._digests[query] = self._expected(query)
        return self._digests[query]

    def _expected(self, query: Query) -> str:
        perm = self.order(query.order_by)
        if query.where is not None:
            name, op, literal = query.where
            column = self.table.column(name)
            mask = _COMPARE[op](column.data, literal) & column.validity
            perm = perm[mask[perm]]
        stop = None if query.limit is None else query.offset + query.limit
        perm = perm[query.offset : stop]
        names = (
            self.table.schema.names if query.columns is None else query.columns
        )
        return digest_columns(
            (
                name,
                self.table.column(name).data[perm],
                self.table.column(name).validity[perm],
            )
            for name in names
        )
