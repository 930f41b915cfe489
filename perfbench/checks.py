"""Answer checks behind ``answered_share``, run after the timed phase.

The reference is an in-process ``MosaicDB`` shadow fed the same DDL, the
same generated rows and the same marginals as the servers:

- CLOSED, wide and SEMI-OPEN answers must equal the shadow's exactly;
  scattered AVG columns may differ by float re-association
  (ARCHITECTURE.md section 8).
- In ``ingest_refit`` the shadow replays connection A's writes in order,
  so A's reads are checked against the sample version they saw; a read
  of connection B must equal the shadow's answer at one of the versions
  A's writes produced while the read was in flight.
- Connection A's OPEN answers in ``closed_scan`` and ``ingest_refit``
  are replayed exactly on a shadow session with A's spawn index (same
  BayesNet fits, same session RNG stream).  B's ~1000 adaptive answers
  per run and the MSWG answers of ``fleet_scatter`` (a model the shadow
  does not train) are
  checked structurally: a non-empty group set drawn from the population's
  carriers (which ones survive the present-in-all rule depends on the
  generator's fit), finite aggregates, and ``repetitions_used`` within
  [minimum, cap].
- A write must acknowledge the number of rows it sent.
"""

from __future__ import annotations

import bisect

import numpy as np

import workloads
from repro import MosaicDB
from repro.core.session import SessionConfig
from repro.engine.open_world import BayesNetGenerator, OpenQueryConfig
from repro.workloads.flights import CARRIER_PROFILES

ALL_CARRIERS = frozenset(CARRIER_PROFILES)


def same(result, expected, avg_tolerance: bool = False) -> str | None:
    """``None`` when the answers match, else what differs."""
    if tuple(result.columns) != tuple(expected.columns):
        return f"columns {result.columns} != {expected.columns}"
    if result.num_rows != expected.num_rows:
        return f"{result.num_rows} rows != {expected.num_rows}"
    for name in expected.columns:
        mine = result.relation.column(name)
        theirs = expected.relation.column(name)
        if theirs.dtype == object:
            if list(mine) != list(theirs):
                return f"column {name} differs"
        elif avg_tolerance and name == "a":
            if not np.allclose(mine, theirs, rtol=1e-9, atol=0.0):
                return f"column {name} differs beyond re-association"
        elif np.asarray(mine).tobytes() != np.asarray(theirs).tobytes():
            return f"column {name} differs"
    if result.repetitions_used != expected.repetitions_used:
        return f"repetitions_used {result.repetitions_used} != {expected.repetitions_used}"
    return None


def open_shape(result, kind: str) -> str | None:
    if tuple(result.columns) != ("carrier", "a"):
        return f"columns {result.columns}"
    carriers = set(result.relation.column("carrier"))
    if not carriers or not carriers <= ALL_CARRIERS:
        return f"group set {sorted(carriers)}"
    if not np.all(np.isfinite(result.relation.column("a"))):
        return "non-finite aggregate"
    used = result.repetitions_used
    if kind == "open":
        low = high = workloads.OPEN_REPETITIONS
    else:
        low = workloads.ADAPTIVE_OPTIONS["min_repetitions"]
        high = workloads.OPEN_REPETITIONS
    if used is None or not low <= used <= high:
        return f"repetitions_used {used} outside [{low}, {high}]"
    return None


class Checker:
    def __init__(self, bench, sessions: dict):
        self.workload = bench.workload
        self.bench = bench
        self.sessions = sessions
        self.failures: set = set()
        self.messages: list[str] = []
        self._cache: dict = {}

    # Shadow ---------------------------------------------------------------

    def _open_config(self, adaptive: bool) -> OpenQueryConfig:
        config = OpenQueryConfig(generator_factory=BayesNetGenerator)
        if adaptive:
            for key, value in workloads.ADAPTIVE_OPTIONS.items():
                setattr(config, key, value)
        return config

    def _shadow(self) -> MosaicDB:
        bench = self.bench
        db = MosaicDB(seed=0)
        db.session.config.open_config = self._open_config(adaptive=False)
        for statement in bench.ddl:
            db.execute(statement)
        for name, path in bench.ingest:
            with np.load(path) as data:
                columns = {key: data[key] for key in data.files}
            db.engine.ingest_relation(name, workloads.relation_from_arrays(columns))
        for statement in bench.metadata_sql:
            db.execute(statement)
        if self.workload == "fleet_scatter":
            db.engine.ingest_relation("T", bench.inputs.sliced)
        return db

    def _replay_session(self, db: MosaicDB, who: str):
        config = SessionConfig(open_config=self._open_config(adaptive=(who == "b")))
        return db.engine.connect(config, spawn_index=self.sessions[who])

    # Verdicts -------------------------------------------------------------

    def _fail(self, record, message: str) -> None:
        self.failures.add(id(record))
        if len(self.messages) < 50:
            self.messages.append(f"{record.op.kind}: {message} [{record.op.sql[:80]}]")

    def _expected(self, db: MosaicDB, version: int, sql: str):
        key = (version, sql)
        if key not in self._cache:
            self._cache[key] = db.execute(sql)
        return self._cache[key]

    def _verify_read(self, record, expected) -> str | None:
        tolerance = self.workload == "fleet_scatter" and record.op.kind == "closed"
        return same(record.result, expected, avg_tolerance=tolerance)

    def check(self, warm: dict, records: dict):
        sequences = {who: warm[who] + records[who] for who in ("a", "b")}
        for sequence in sequences.values():
            for record in sequence:
                if record.error is not None:
                    self._fail(record, record.error)
        db = self._shadow()
        if self.workload == "ingest_refit":
            self._check_versioned(db, sequences)
        else:
            for who, sequence in sequences.items():
                exact = self.workload == "closed_scan" and who == "a"
                replay = self._replay_session(db, who) if exact else None
                for record in sequence:
                    if record.error is None:
                        self._check_one(db, record, 0, replay)
        db.close()
        return self.failures, self.messages

    def _check_one(self, db, record, version: int, replay) -> None:
        op = record.op
        if op.kind == "write":
            status = " ".join(str(value) for value in record.result.relation.column("status"))
            if f"{op.rows} row(s)" not in status:
                self._fail(record, f"write acknowledged {status!r}")
            return
        if op.kind in ("open", "open_adaptive"):
            if replay is not None:
                problem = same(record.result, replay.execute(op.sql))
            else:
                problem = open_shape(record.result, op.kind)
        else:
            problem = self._verify_read(record, self._expected(db, version, op.sql))
        if problem is not None:
            self._fail(record, problem)

    def _check_versioned(self, db, sequences: dict) -> None:
        """ingest_refit: replay A's writes; B's reads match some version."""
        writes = [record for record in sequences["a"] if record.op.kind == "write"]
        acked = sorted(record.t1 for record in writes)
        sent = sorted(record.t0 for record in writes)
        pending: dict = {}
        b_matched: dict = {}
        for record in sequences["b"]:
            if record.error is not None:
                continue
            if record.op.kind == "open_adaptive":
                problem = open_shape(record.result, record.op.kind)
                if problem is not None:
                    self._fail(record, problem)
                continue
            low = bisect.bisect_left(acked, record.t0)
            high = bisect.bisect_left(sent, record.t1)
            b_matched[id(record)] = (record, False)
            for version in range(low, high + 1):
                pending.setdefault(version, []).append(record)

        def check_b(version: int) -> None:
            for record in pending.pop(version, ()):
                _, matched = b_matched[id(record)]
                if not matched and self._verify_read(
                    record, self._expected(db, version, record.op.sql)
                ) is None:
                    b_matched[id(record)] = (record, True)

        replay = self._replay_session(db, "a")
        version = 0
        check_b(version)
        for record in sequences["a"]:
            if record.op.kind == "write":
                db.execute(record.op.sql)
                version += 1
                if record.error is None:
                    self._check_one(db, record, version, None)
                check_b(version)
            elif record.error is None:
                self._check_one(db, record, version, replay)
            elif record.op.kind == "open":
                replay.execute(record.op.sql)  # keep the session RNG in step
        for record, matched in b_matched.values():
            if not matched:
                self._fail(record, "answer matches no sample version written meanwhile")
