"""Seeded inputs of the served-path benchmark.

Everything here is a pure function of its arguments: the same workload
seed gives the same query lists and the same write schedule.  The served
database itself is whatever ``repro serve --db`` generates (data seed 7);
:func:`served_setup` rebuilds it in-process exactly as ``serve`` does, so
the inputs can reference values, and the checks rows, that really exist.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.data import TABLE_4_1_SPECS, build_evaluation_setup, build_workload
from repro.query.equivalence import equivalence_key
from repro.query.formatter import format_query

#: The standing view the write workloads subscribe to.  Every scheduled
#: write inserts, updates or deletes a perishable cargo row, so every
#: write changes this view.
VIEW_QUERY = (
    '(SELECT {cargo.code, cargo.desc, cargo.quantity} { } '
    '{cargo.category = "perishable"} { } {cargo})'
)

#: Cargo quantities the writer uses.  Inside [50, 100] both evaluation
#: constraints on quantity (ec12: >= 50 for northern suppliers, ec15:
#: <= 100 for low-rated ones) hold whatever the row's supplier, so the
#: optimizer's rule set stays true of the data.
QUANTITY_LOW, QUANTITY_HIGH = 50, 100

#: Rows the writer's inserts keep live; beyond it, it deletes instead.
LIVE_INSERTS = 20
#: A delete targets an insert scheduled at least this many ops earlier,
#: so its OID is normally acked long before the delete is due.
DELETE_LAG = 10

_SETUPS: Dict[str, object] = {}


def served_setup(db: str):
    """The evaluation setup ``repro serve --db <db>`` builds (cached)."""
    if db not in _SETUPS:
        _SETUPS[db] = build_evaluation_setup(TABLE_4_1_SPECS[db], query_count=1)
    return _SETUPS[db]


def reference_service(db: str, store=None):
    """An in-process service configured like ``serve --engine vectorized``."""
    from repro.service import OptimizationService

    setup = served_setup(db)
    return OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
        store=setup.store if store is None else store,
        execution_mode="vectorized",
    )


def canonical(rows: List[Dict[str, object]]) -> str:
    """Rows as canonical JSON (sorted keys, compact), order preserved."""
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def rows_digest(rows: List[Dict[str, object]]) -> str:
    """SHA-256 of the rows as a multiset: each row's canonical JSON, sorted.

    A query promises no row order, and an execute on a store recovered
    from its data dir can return the live server's rows in another order.
    """
    lines = sorted(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def query_texts(db: str, count: int, seed: int) -> List[str]:
    """``count`` generated workload queries over the served DB, as wire text."""
    setup = served_setup(db)
    queries = build_workload(
        setup.schema,
        setup.database.value_catalog,
        count,
        seed=seed,
        constraints=setup.constraints,
    )
    return [format_query(query) for query in queries]


def wire_query(text: str, schema):
    """Parse and validate a query text exactly as the gateway does."""
    from repro.query.parser import parse_query

    query = parse_query(text, name="gateway")
    query.validate(schema)
    return query


#: Result-size strata of the execute population, per served database:
#: ``(min_values, max_values, queries)``, where a query's size is the
#: number of values in its result (rows times columns), the best
#: predictor of a served read's cost (encoding and decoding dominate it).
#: Shares follow what the query generator produces on the database, so
#: fixing them keeps every seed's population equally heavy.  The heaviest
#: stratum is a narrow band holding 3% of the queries, so a read p99 (the
#: top 1% of requests) falls near the band's upper edge rather than on
#: whichever query happens to be largest; it stops at the generator's
#: 99.5th percentile, since one rarer, larger query would set the tail
#: latency and peak memory on its own.
STRATA = {
    "DB2": [
        (0, 0, 90),
        (1, 184, 90),
        (185, 624, 60),
        (625, 1960, 42),
        (1961, 3750, 9),
        (3751, 6300, 9),
    ],
}
#: Candidates generated per round while filling the strata.
_ROUND = 200
_MAX_ROUNDS = 50


@dataclass
class Population:
    """A stratified, structurally distinct query population.

    ``rows`` is each query's row count under the in-process reference
    service.
    """

    texts: List[str]
    rows: List[int]
    generated: int
    distinct: int

    @property
    def distinct_share(self) -> float:
        """Share of structurally distinct queries among those generated."""
        return self.distinct / self.generated


def stratified_queries(db: str, seed: int) -> Population:
    """Fill :data:`STRATA` with generated queries, in generation order.

    Candidates come from ``build_workload`` rounds seeded from ``seed``;
    each structurally distinct candidate is executed in-process to learn
    its result size and kept if its stratum still has room.
    """
    strata = STRATA[db]
    service = reference_service(db)
    schema = served_setup(db).schema
    room = [count for _, _, count in strata]
    population = Population([], [], 0, 0)
    seen: set = set()
    for round_index in range(_MAX_ROUNDS):
        texts = query_texts(db, _ROUND, seed * _MAX_ROUNDS + round_index)
        population.generated += len(texts)
        distinct = dedupe(texts, seen)
        population.distinct += len(distinct)
        for text in distinct:
            rows = service.execute(wire_query(text, schema)).execution.rows
            values = sum(len(row) for row in rows)
            for index, (low, high, _) in enumerate(strata):
                if low <= values <= high and room[index]:
                    room[index] -= 1
                    population.texts.append(text)
                    population.rows.append(len(rows))
                    break
            if not any(room):
                return population
    raise RuntimeError(f"{db}: strata not filled after {population.generated} candidates: {room}")


def dedupe(texts: List[str], seen: Optional[set] = None) -> List[str]:
    """Keep the first query of each structural-equivalence class.

    ``seen`` holds the keys of queries kept earlier; it is updated, so
    successive calls can share it.
    """
    from repro.query.parser import parse_query

    seen = set() if seen is None else seen
    kept = []
    for text in texts:
        key = equivalence_key(parse_query(text))
        if key not in seen:
            seen.add(key)
            kept.append(text)
    return kept


@dataclass(frozen=True)
class WriteOp:
    """One scheduled write: due ``due_s`` seconds after the phase starts.

    An update names its target OID; a delete names the schedule index of
    the insert whose row it removes (the OID is known once that insert is
    acked).
    """

    index: int
    due_s: float
    kind: str
    values: Dict[str, object] = field(default_factory=dict)
    oid: Optional[int] = None
    insert_index: Optional[int] = None

    def user_bytes(self) -> int:
        """Bytes of user data the write carries: its values as compact JSON."""
        return len(json.dumps(self.values, separators=(",", ":"))) if self.values else 0


def perishable_cargo(db: str) -> List[Tuple[int, int]]:
    """``(oid, quantity)`` of the served DB's perishable cargo rows."""
    store = served_setup(db).store
    return [
        (instance.oid, instance.values["quantity"])
        for instance in store.instances("cargo")
        if instance.values.get("category") == "perishable"
    ]


def write_schedule(
    seed: int, rate: float, seconds: float, targets: List[Tuple[int, int]]
) -> List[WriteOp]:
    """The open-loop write schedule: ``rate`` writes/s for ``seconds``.

    Mix: 40% updates of an existing perishable row's quantity (always to
    a different value) and 60% inserts or deletes.  Those insert a new
    perishable row while fewer than :data:`LIVE_INSERTS` inserted rows are
    live, and otherwise delete the oldest one, so the store and the view
    keep a steady size however long the phase runs.
    """
    rng = random.Random(f"servebench-writes-{seed}")
    counts: Dict[int, int] = {}
    bases = {
        oid: (quantity - QUANTITY_LOW + 1) if QUANTITY_LOW <= quantity <= QUANTITY_HIGH else 0
        for oid, quantity in targets
    }
    span = QUANTITY_HIGH - QUANTITY_LOW + 1
    live: List[int] = []
    ops: List[WriteOp] = []
    for index in range(int(rate * seconds)):
        due = index / rate
        if rng.random() < 0.4 and targets:
            oid = targets[rng.randrange(len(targets))][0]
            step = counts.get(oid, 0)
            counts[oid] = step + 1
            quantity = QUANTITY_LOW + (bases[oid] + step) % span
            ops.append(WriteOp(index, due, "update", values={"quantity": quantity}, oid=oid))
        elif len(live) >= LIVE_INSERTS and live[0] <= index - DELETE_LAG:
            ops.append(WriteOp(index, due, "delete", insert_index=live.pop(0)))
        else:
            values = {
                "code": f"W{seed}-{index}",
                "desc": "frozen food",
                "quantity": rng.randint(QUANTITY_LOW, QUANTITY_HIGH),
                "category": "perishable",
            }
            live.append(index)
            ops.append(WriteOp(index, due, "insert", values=values))
    return ops
