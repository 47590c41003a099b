"""SQLite-backed source.

Base relations live in SQLite tables (duplicates allowed — SQLite's rowid
provides bag semantics for free).  Term queries are rendered to SQL:
unbound operands become table references, bound signed tuples become
one-row constant sub-selects — or, for a class of like terms, one
``VALUES`` table with a row per term — and the selection condition is
rendered to a ``WHERE`` clause (``=`` as the null-safe ``IS``, so that
``None`` joins ``None`` as it does in memory).  ``SELECT`` without
``DISTINCT`` preserves duplicates, as the paper requires.

The source never sees view definitions — only the queries the warehouse
ships — which is exactly the "legacy system" contract of Section 1.2.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import UpdateError
from repro.relational.bag import SignedBag
from repro.relational.engine import term_classes
from repro.relational.expressions import Query, Term, TermShape
from repro.relational.schema import RelationSchema
from repro.source.base import Source
from repro.source.updates import Update


#: Most ``?`` parameters put in one statement: SQLite's
#: ``SQLITE_MAX_VARIABLE_NUMBER`` as compiled before 3.32 (newer builds
#: allow 32766), the lowest limit in the field.
_MAX_VARIABLES = 999


def _quote(identifier: str) -> str:
    """Quote a SQL identifier."""
    return '"' + identifier.replace('"', '""') + '"'


def _select(shape: TermShape, columns: Sequence[str]) -> Tuple[str, str, List[object]]:
    """``(select list, WHERE text, WHERE params)`` of a term shape, given
    the SQL text of every product position."""

    def column_of(name: str) -> str:
        return columns[shape.product.resolve(name)]

    where_params: List[object] = []
    where_sql = shape.condition.to_sql(column_of, where_params)
    return ", ".join(map(column_of, shape.projection)), where_sql, where_params


class SQLiteSource(Source):
    """A source whose base relations are SQLite tables.

    Parameters
    ----------
    schemas:
        Relation schemas; one table per relation is created on connect.
    path:
        SQLite database path; defaults to a private in-memory database.
    """

    def __init__(
        self,
        schemas: Sequence[RelationSchema],
        initial: Optional[Dict[str, Sequence[Sequence[object]]]] = None,
        path: str = ":memory:",
    ) -> None:
        super().__init__(schemas)
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA synchronous=OFF")
        for schema in schemas:
            columns = ", ".join(_quote(a) for a in schema.attributes)
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {_quote(schema.name)} ({columns})"
            )
        self._conn.commit()
        if initial:
            for relation, rows in initial.items():
                self.load(relation, rows)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SQLiteSource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def apply_update(self, update: Update) -> None:
        schema = self._check_update(update)
        table = _quote(schema.name)
        if update.is_insert:
            placeholders = ", ".join("?" for _ in update.values)
            self._conn.execute(
                f"INSERT INTO {table} VALUES ({placeholders})", update.values
            )
            self._conn.commit()
            return
        # ``IS``, not ``=``: a stored NULL must match a deleted None.
        where = " AND ".join(f"{_quote(a)} IS ?" for a in schema.attributes)
        cursor = self._conn.execute(
            f"DELETE FROM {table} WHERE rowid = "
            f"(SELECT rowid FROM {table} WHERE {where} LIMIT 1)",
            update.values,
        )
        self._conn.commit()
        if cursor.rowcount != 1:
            raise UpdateError(
                f"cannot delete {update.values!r} from {update.relation!r}: not present"
            )

    # ------------------------------------------------------------------ #
    # Query evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, query: Query) -> SignedBag:
        """One statement per class of like terms (the engine's grouping),
        one per term for a class of one or without a bound operand."""
        result = SignedBag()
        for (shape, bound), members in term_classes(query.terms).items():
            if len(members) > 1 and True in bound:
                self._evaluate_class(shape, bound, members, result)
            else:
                for term in members:
                    sql, params, multiplier = self._render_term(term)
                    for row in self._conn.execute(sql, params):
                        result.add(tuple(row), multiplier)
        return result

    def _table(self, schema: RelationSchema, alias: str) -> Tuple[str, List[str]]:
        """``FROM`` item and column texts of an unbound operand."""
        # Unknown table -> SchemaError; aliases read their base.
        self.schema_for(schema.base)
        return (
            f"{_quote(schema.base)} AS {alias}",
            [f"{alias}.{_quote(a)}" for a in schema.attributes],
        )

    def _render_term(self, term: Term) -> Tuple[str, List[object], int]:
        """Render one term to ``(sql, params, per-row multiplicity)``.

        The per-row multiplicity folds together the term coefficient and
        the signs of all bound tuples, since those are constant across the
        result set.
        """
        from_parts: List[str] = []
        from_params: List[object] = []
        columns: List[str] = []
        multiplier = term.coefficient
        for index, operand in enumerate(term.operands):
            alias = f"t{index}"
            if operand.is_bound:
                attributes = operand.schema.attributes
                selects = ", ".join(f"? AS {_quote(a)}" for a in attributes)
                from_parts.append(f"(SELECT {selects}) AS {alias}")
                columns.extend(f"{alias}.{_quote(a)}" for a in attributes)
                from_params.extend(operand.tuple.values)
                multiplier *= operand.tuple.sign
            else:
                table, names = self._table(operand.schema, alias)
                from_parts.append(table)
                columns.extend(names)
        select_list, where_sql, where_params = _select(term.shape, columns)
        sql = (
            f"SELECT {select_list} FROM {', '.join(from_parts)} WHERE {where_sql}"
        )
        return sql, from_params + where_params, multiplier

    def _evaluate_class(
        self,
        shape: TermShape,
        bound: Sequence[bool],
        terms: Sequence[Term],
        result: SignedBag,
    ) -> None:
        """Add the sum of one (shape, bound mask) class to ``result``.

        The bound operands of the whole class are one derived table
        ``(VALUES (...), (...)) AS b`` with a row per term — the operands'
        attributes side by side, then a weight column holding the term's
        coefficient times its tuples' signs — so k terms cost one
        statement (per chunk of at most :data:`_MAX_VARIABLES` parameters),
        not k statements with a constant sub-select each.
        """
        from_parts: List[str] = []
        columns: List[str] = []
        bound_at: List[int] = []
        width = 0
        for index, schema in enumerate(shape.schemas):
            if bound[index]:
                bound_at.append(index)
                columns.extend(
                    f"b.column{width + n}" for n in range(1, schema.arity + 1)
                )
                width += schema.arity
            else:
                table, names = self._table(schema, f"t{index}")
                from_parts.append(table)
                columns.extend(names)
        width += 1
        select_list, where_sql, where_params = _select(shape, columns)
        row_sql = "(" + ", ".join("?" * width) + ")"
        per_chunk = max(1, (_MAX_VARIABLES - len(where_params)) // width)
        for start in range(0, len(terms), per_chunk):
            chunk = terms[start : start + per_chunk]
            params: List[object] = []
            for term in chunk:
                weight = term.coefficient
                for index in bound_at:
                    signed = term.operands[index].tuple
                    params.extend(signed.values)
                    weight *= signed.sign
                params.append(weight)
            values = ", ".join([row_sql] * len(chunk))
            sql = (
                f"SELECT {select_list}, b.column{width} "
                f"FROM {', '.join([f'(VALUES {values}) AS b'] + from_parts)} "
                f"WHERE {where_sql}"
            )
            for *row, weight in self._conn.execute(sql, params + where_params):
                result.add(tuple(row), weight)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, SignedBag]:
        out: Dict[str, SignedBag] = {}
        for schema in self.schemas:
            bag = SignedBag()
            for row in self._conn.execute(f"SELECT * FROM {_quote(schema.name)}"):
                bag.add(tuple(row), 1)
            out[schema.name] = bag
        return out

    def cardinality(self, relation: str) -> int:
        self.schema_for(relation)
        (count,) = self._conn.execute(
            f"SELECT COUNT(*) FROM {_quote(relation)}"
        ).fetchone()
        return int(count)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{s.name}:{self.cardinality(s.name)}" for s in self.schemas)
        return f"SQLiteSource({sizes})"
