"""Inputs, operation sequences and templates of the three workloads.

Everything here is a pure function of the workload seed: the rows the
servers load, the marginals they register and each connection's fixed,
interleaved operation sequence.

Every workload issues every operation type, so every end-to-end metric is
measured on every workload; what differs is the deployment and the data
each operation type touches:

``closed_scan``
    One in-memory server.  ``closed`` scans a 160k-row table with
    MIN/MAX (kernel bound), ``wide`` returns ~25k groups (codec bound),
    ``semi_open`` hits the cached rake (wire bound), ``open`` and
    ``open_adaptive`` generate from BayesNets fitted once at set-up,
    ``write`` appends to a side table nobody reads.  No refit, no WAL,
    no fleet hop.
``fleet_scatter``
    Router + 2 shards.  ``closed`` and ``wide`` scatter over a round-robin
    sliced table (partial codec and merge), ``semi_open`` routes whole to
    a replica, ``open`` and ``open_adaptive`` run the shipped MSWG
    generator, each on the shard its population is pinned to, ``write``
    fans out to every replica.  No refit, no WAL.
``ingest_refit``
    One durable server (``--data-dir``).  Connection A appends to the
    sample and reads right after each append, so every ``semi_open``
    re-rakes (IPF) and every ``open`` refits its BayesNet; the WAL
    auto-checkpoints several times.  Connection B only reads.  No big
    scans, no fleet hop.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from repro.relational.dtypes import DType
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads.flights import (
    FlightsConfig,
    bucket_flights,
    make_biased_flights_sample,
    make_flights_population,
)

OP_TYPES = ("closed", "wide", "semi_open", "open", "open_adaptive", "write")
WORKLOADS = ("closed_scan", "fleet_scatter", "ingest_refit")

FLIGHT_COLUMNS = ("carrier", "taxi_out", "taxi_in", "elapsed_time", "distance")
FLIGHTS_DDL = "(carrier TEXT, taxi_out INT, taxi_in INT, elapsed_time INT, distance INT)"

#: Flights population behind each workload's SEMI-OPEN / OPEN queries;
#: the paper's 5 % biased sample of it has 1k rows (500 in the fleet,
#: where every set-up trains the shipped MSWG generator on it).
POPULATION_ROWS = {"closed_scan": 20_000, "fleet_scatter": 10_000, "ingest_refit": 20_000}
#: ``closed_scan``'s scanned table.
BIG_ROWS = 160_000
#: ``fleet_scatter``'s sliced table, inserted through the router.
SLICED_ROWS = 24_000
SLICED_INSERT_BATCH = 2_000
#: Rows per ``write`` operation.
WRITE_ROWS = 2

#: Marginals registered as population metadata: (name, first, second).
MARGINALS = (
    ("CxE", "carrier", "elapsed_time"),
    ("OxE", "taxi_out", "elapsed_time"),
    ("IxE", "taxi_in", "elapsed_time"),
    ("DxE", "distance", "elapsed_time"),
)

#: HELLO ``open`` options of the connection that issues ``open_adaptive``:
#: a loose tolerance, so the stream reliably stops at its first check
#: (after one 4-repetition chunk) and the op's work stays in one band.
ADAPTIVE_OPTIONS = {"tolerance": 1.0, "min_repetitions": 3, "chunk_repetitions": 4}
OPEN_REPETITIONS = 10  # shipped default of OpenQueryConfig.repetitions


@dataclasses.dataclass(frozen=True)
class Mix:
    """Per-connection operations of one cycle.

    A dict gives op counts, shuffled afresh every cycle; a tuple is a
    fixed order (``ingest_refit``'s connection A reads right after each of
    its writes, so its reads always see a new sample version).
    """

    a: dict | tuple
    b: dict | tuple
    #: Cycles of connection A in a 10 s run; the count scales with
    #: ``--seconds`` and never with elapsed time.
    cycles_10s: int
    warmup_cycles: int
    #: B's cycles per A cycle, so both connections stay busy all run.
    b_cycles_per_a: int = 1


#: Per-cycle counts put each op type's run total where its tail
#: percentile keeps 12 or more samples beyond it: 48 to 96 -> p75, 180 to
#: 192 -> p90, 300 to 960 -> p95, 2000 and up -> p99.  The long op of the
#: connection that does not write (a scan, an OPEN) takes at most ~30 % of
#: its time, so a write waits behind one only in its tail: the median
#: stays off the gap between "waited" and "did not", the tail inside it.
MIXES = {
    # A scans and writes; B's reads are all short, so A's writes wait
    # only briefly for the read lock instead of half the time for a scan.
    "closed_scan": Mix(
        a={"closed": 10, "wide": 2, "open": 6, "write": 10},
        b={"semi_open": 10, "open_adaptive": 1},
        cycles_10s=30,
        warmup_cycles=2,
        b_cycles_per_a=24,
    ),
    "fleet_scatter": Mix(
        a={"closed": 9, "wide": 2, "semi_open": 9, "open": 1, "write": 16},
        b={"closed": 9, "wide": 2, "semi_open": 9, "open_adaptive": 1},
        cycles_10s=48,
        warmup_cycles=2,
    ),
    # A's SEMI-OPEN and OPEN reads each follow one of its writes, so they
    # always re-rake and refit; B never races them (it has no SEMI-OPEN,
    # and its OPEN reads Replica, whose sample no write touches).
    "ingest_refit": Mix(
        a=("write", "semi_open", "write", "open", "write", "closed", "write", "wide"),
        b={"closed": 3, "wide": 3, "open_adaptive": 1},
        cycles_10s=95,
        warmup_cycles=4,
        b_cycles_per_a=7,
    ),
}

#: WAL size that triggers an auto-checkpoint in ``ingest_refit``; one
#: ``write`` logs ~120 bytes, so a 10 s run checkpoints about 4 times.
WAL_LIMIT_BYTES = 10_000


def tail_percentile(count: int) -> int:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    best = 50
    for percentile in (75, 90, 95, 99):
        if count * (100 - percentile) / 100.0 >= 10:
            best = percentile
    return best


def write_rows_needed(workload: str, seconds: int) -> int:
    """Rows the run's writes append (timed and warm-up cycles)."""
    mix = MIXES[workload]
    cycles = cycles_for(workload, seconds) + mix.warmup_cycles
    return cycles * cycle_ops(mix.a).count("write") * WRITE_ROWS


def op_counts(workload: str, seconds: int) -> dict:
    """Timed-phase count of each op type (both connections together)."""
    mix = MIXES[workload]
    cycles = cycles_for(workload, seconds)
    counts = {op: 0 for op in OP_TYPES}
    for per_cycle, repeat in ((mix.a, 1), (mix.b, mix.b_cycles_per_a)):
        for op in cycle_ops(per_cycle):
            counts[op] += cycles * repeat
    return counts


def cycle_ops(per_cycle) -> list:
    if isinstance(per_cycle, tuple):
        return list(per_cycle)
    return [op for op, count in per_cycle.items() for _ in range(count)]


def cycles_for(workload: str, seconds: int) -> int:
    return max(1, int(round(MIXES[workload].cycles_10s * seconds / 10)))


# ---------------------------------------------------------------------- #
# Generated inputs
# ---------------------------------------------------------------------- #


@dataclasses.dataclass
class Inputs:
    sample: Relation  # the flights population's biased 5 % sample
    marginals: dict  # name -> (first, second, values1, values2, counts)
    big: Relation  # closed_scan's scanned table
    sliced: Relation  # fleet_scatter's sliced table
    write_pool: Relation  # rows appended by ingest_refit writes


def make_inputs(workload: str, seed: int, write_rows: int) -> Inputs:
    root = np.random.SeedSequence(seed)
    pop_seq, big_seq, sliced_seq, write_seq = root.spawn(4)
    config = FlightsConfig(rows=POPULATION_ROWS[workload])
    rng = np.random.default_rng(pop_seq)
    population = bucket_flights(make_flights_population(config, rng), config)
    sample, _, _ = make_biased_flights_sample(population, config, rng)
    marginals = {}
    for name, first, second in MARGINALS:
        cells = Counter(
            zip(population.column(first).tolist(), population.column(second).tolist())
        )
        keys = sorted(cells)
        marginals[name] = (
            first,
            second,
            np.asarray([key[0] for key in keys], dtype=population.column(first).dtype),
            np.asarray([key[1] for key in keys], dtype=np.int64),
            np.asarray([cells[key] for key in keys], dtype=np.int64),
        )
    big = make_flights_population(
        FlightsConfig(rows=BIG_ROWS), np.random.default_rng(big_seq)
    )
    sliced = make_flights_population(
        FlightsConfig(rows=SLICED_ROWS), np.random.default_rng(sliced_seq)
    )
    # Appended rows come from the same biased mechanism, so the sample
    # keeps its shape (and its rake its difficulty) as it grows.
    write_rng = np.random.default_rng(write_seq)
    write_pool = sample.take(np.arange(0))
    while write_pool.num_rows < write_rows:
        extra, _, _ = make_biased_flights_sample(population, config, write_rng)
        write_pool = write_pool.concat(extra)
    return Inputs(sample, marginals, big, sliced, write_pool)


def relation_from_arrays(columns: dict) -> Relation:
    """Rebuild a relation from ``np.savez`` arrays (TEXT saved as ``<U``)."""
    fields, values = {}, {}
    for name, array in columns.items():
        if array.dtype.kind in "UO":
            fields[name] = DType.TEXT
            values[name] = array.astype(object)
        else:
            fields[name] = DType.INT
            values[name] = array
    return Relation.from_columns(Schema.of(**fields), values)


def relation_columns(relation: Relation) -> dict:
    return {name: relation.column(name) for name in relation.column_names}


def marginal_relations(inputs: Inputs) -> dict:
    """Marginal count tables, keyed by their auxiliary table name."""
    tables = {}
    for name, (first, second, values1, values2, counts) in inputs.marginals.items():
        tables[f"m_{name.lower()}"] = {first: values1, second: values2, "n": counts}
    return tables


def marginal_ddl(inputs: Inputs, populations) -> tuple[list[str], list[str]]:
    """(CREATE TABLE statements, CREATE METADATA statements) for marginals."""
    tables, metadata = [], []
    for name, (first, second, values1, _, _) in inputs.marginals.items():
        table = f"m_{name.lower()}"
        first_type = "TEXT" if values1.dtype == object else "INT"
        tables.append(f"CREATE TABLE {table} ({first} {first_type}, {second} INT, n INT)")
        for population in populations:
            metadata.append(
                f"CREATE METADATA {population}_{name} FOR {population} AS "
                f"(SELECT {first}, {second}, n FROM {table})"
            )
    return tables, metadata


#: ``open`` reads Flights (sample S), ``open_adaptive`` reads Replica: a
#: view population with its own copy S2 of the sample.  The two keep
#: separate fitted generators, no write reaches S2, and the router pins
#: their OPEN queries to different shards (checked by ``run.py``).
POPULATIONS = ("Flights", "Replica")


def population_ddl() -> list[str]:
    return [
        f"CREATE GLOBAL POPULATION Flights {FLIGHTS_DDL}",
        "CREATE SAMPLE S AS (SELECT * FROM Flights)",
        "CREATE POPULATION Replica AS (SELECT * FROM Flights)",
        "CREATE SAMPLE S2 AS (SELECT * FROM Replica)",
    ]


def insert_sql(table: str, relation: Relation, start: int, stop: int) -> str:
    columns = [relation.column(name) for name in FLIGHT_COLUMNS]
    values = ", ".join(
        f"('{columns[0][i]}', {int(columns[1][i])}, {int(columns[2][i])}, "
        f"{int(columns[3][i])}, {int(columns[4][i])})"
        for i in range(start, stop)
    )
    return f"INSERT INTO {table} VALUES {values}"


# ---------------------------------------------------------------------- #
# Templates: one query shape per op type, parameters from a small pool
# ---------------------------------------------------------------------- #

#: (SUM column, AVG column) pairs of the ``closed`` template; all integer
#: columns, so every pool value does the same kernel work.
CLOSED_POOL = (
    ("distance", "taxi_out"),
    ("elapsed_time", "taxi_in"),
    ("taxi_out", "distance"),
    ("taxi_in", "elapsed_time"),
)
WIDE_POOL = ("taxi_out", "taxi_in")
SEMI_POOL = ("distance", "elapsed_time", "taxi_out")
OPEN_POOL = ("distance", "elapsed_time")


def closed_sql(table: str, params, scatter: bool) -> str:
    total, mean = params
    visibility = "" if scatter else "CLOSED "
    return (
        f"SELECT {visibility}carrier, COUNT(*) AS n, SUM({total}) AS s, "
        f"AVG({mean}) AS a, MIN(elapsed_time) AS lo, MAX(elapsed_time) AS hi "
        f"FROM {table} GROUP BY carrier"
    )


def wide_sql(table: str, key: str, column: str, scatter: bool) -> str:
    visibility = "" if scatter else "CLOSED "
    return (
        f"SELECT {visibility}carrier, {key}, COUNT(*) AS n, SUM({column}) AS s "
        f"FROM {table} GROUP BY carrier, {key}"
    )


def semi_open_sql(column: str) -> str:
    return (
        f"SELECT SEMI-OPEN carrier, COUNT(*) AS n, AVG({column}) AS a "
        f"FROM Flights GROUP BY carrier"
    )


def open_sql(column: str, population: str = "Flights") -> str:
    return f"SELECT OPEN carrier, AVG({column}) AS a FROM {population} GROUP BY carrier"


@dataclasses.dataclass
class Op:
    """One operation of a connection's fixed sequence."""

    kind: str
    sql: str
    rows: int = 0  # rows a ``write`` appends


class Plan:
    """The deterministic op sequences of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: int, inputs: Inputs):
        self.workload = workload
        self.inputs = inputs
        self._write_cursor = 0
        self._note_seq = 0
        mix = MIXES[workload]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        timed_cycles = cycles_for(workload, seconds)
        b_repeat = mix.b_cycles_per_a
        self.warmup = {
            "a": self._sequence(mix.a, mix.warmup_cycles, rng, "a"),
            "b": self._sequence(mix.b, mix.warmup_cycles * b_repeat, rng, "b"),
        }
        self.timed = {
            "a": self._sequence(mix.a, timed_cycles, rng, "a"),
            "b": self._sequence(mix.b, timed_cycles * b_repeat, rng, "b"),
        }

    # Template instantiation -------------------------------------------------

    def _closed(self, rng) -> str:
        params = CLOSED_POOL[rng.integers(len(CLOSED_POOL))]
        if self.workload == "closed_scan":
            return closed_sql("F", params, scatter=False)
        if self.workload == "fleet_scatter":
            return closed_sql("T", params, scatter=True)
        return closed_sql("S", params, scatter=False)

    def _wide(self, rng) -> str:
        column = WIDE_POOL[rng.integers(len(WIDE_POOL))]
        if self.workload == "closed_scan":
            return wide_sql("F", "distance", column, scatter=False)
        if self.workload == "fleet_scatter":
            return wide_sql("T", "distance", column, scatter=True)
        return wide_sql("S", "elapsed_time", column, scatter=False)

    def _write(self, who: str) -> Op:
        if self.workload == "ingest_refit":
            start = self._write_cursor
            self._write_cursor += WRITE_ROWS
            pool = self.inputs.write_pool
            return Op("write", insert_sql("S", pool, start, self._write_cursor), WRITE_ROWS)
        rows = ", ".join(
            f"('{who}', {self._note_seq + i}, {(self._note_seq + i) * 7 % 1000})"
            for i in range(WRITE_ROWS)
        )
        self._note_seq += WRITE_ROWS
        return Op("write", f"INSERT INTO Notes VALUES {rows}", WRITE_ROWS)

    def _sequence(self, per_cycle: dict, cycles: int, rng, who: str) -> list:
        ops = []
        kinds = cycle_ops(per_cycle)
        shuffle = isinstance(per_cycle, dict)
        for _ in range(cycles):
            order = rng.permutation(len(kinds)) if shuffle else range(len(kinds))
            for index in order:
                kind = kinds[index]
                if kind == "closed":
                    ops.append(Op(kind, self._closed(rng)))
                elif kind == "wide":
                    ops.append(Op(kind, self._wide(rng)))
                elif kind == "semi_open":
                    ops.append(Op(kind, semi_open_sql(SEMI_POOL[rng.integers(len(SEMI_POOL))])))
                elif kind in ("open", "open_adaptive"):
                    population = POPULATIONS[kind == "open_adaptive"]
                    column = OPEN_POOL[rng.integers(len(OPEN_POOL))]
                    ops.append(Op(kind, open_sql(column, population)))
                elif kind == "write":
                    ops.append(self._write(who))
        return ops


def write_payload_bytes(rows: int) -> int:
    """User payload of ``rows`` flights tuples: four int64s plus the
    two-letter carrier code per row (the write-amplification base)."""
    return rows * (4 * 8 + 2)
