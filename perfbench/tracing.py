"""Benchmark-side spans around the public entry points of each layer.

The traced run installs these wrappers in every server-side process (by
the launcher) and around the client decode in the load process.  A span
is ``(id, name, start, end, parent, conn, extra)``: ``start``/``end``
come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, shared by
every process on the host), ``parent`` is the enclosing span on the same
thread (``-1`` for none, ``-2`` marks an asyncio span whose children are
found by time), and ``conn`` is the session spawn index of the client
connection the work was done for.  Spans stay in memory and are written
out once, when the process stops.

Modules import these functions by name, so a function is patched in
every loaded ``repro`` module that holds it, not only where it is
defined.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter

# The client connection an asyncio task works for (router event loop,
# where interleaved tasks share one thread).
_TASK_CONN: contextvars.ContextVar = contextvars.ContextVar("perfbench_conn", default=None)


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self, process: str):
        self.process = process
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def set_conn(self, conn) -> None:
        self._local.conn = conn

    def wrap(self, name: str, fn, *, conn_of=None, measure=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            stack = local.__dict__.setdefault("stack", [])
            if conn_of is not None:
                conn = conn_of(args)
                if conn is not None:
                    local.conn = conn
            conn = getattr(local, "conn", None)
            if conn is None:
                conn = _TASK_CONN.get()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            extra = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    extra = measure(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent, conn, extra))

        return wrapper

    def wrap_async_route(self, name: str, fn):
        """Wrap ``FleetRouter._route_statement(self, state, sql)``."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(router, state, sql):
            token = _TASK_CONN.set(state.index)
            span_id = next(recorder._ids)
            start = perf_counter()
            try:
                return await fn(router, state, sql)
            finally:
                end = perf_counter()
                _TASK_CONN.reset(token)
                recorder.spans.append((span_id, name, start, end, -2, state.index, None))

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"process": self.process, "spans": self.spans}, handle)


def patch_function(module_path: str, attr: str, wrapper_factory) -> None:
    """Replace ``module_path.attr`` in every loaded repro module holding it."""
    module = sys.modules[module_path]
    original = getattr(module, attr)
    wrapped = wrapper_factory(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapped)


def patch_method(cls, attr: str, wrapper_factory) -> None:
    setattr(cls, attr, wrapper_factory(getattr(cls, attr)))


def _rows(args, result):
    relation = args[0] if args else None
    return getattr(relation, "num_rows", 0)


def _result_rows(args, result):
    return getattr(result, "num_rows", 0)


def _bytes_result(args, result):
    return len(result)


def _bytes_arg(args, result):
    return len(args[0])


def _common_wrappers(recorder: Recorder) -> None:
    """Layers every engine process runs (servers and fleet shards)."""
    import repro.core.engine  # noqa: F401 - load every importer first
    import repro.core.workers  # noqa: F401
    import repro.engine.closed  # noqa: F401
    import repro.engine.executor  # noqa: F401
    import repro.engine.open_world
    import repro.engine.semi_open  # noqa: F401
    import repro.bayesnet.model  # noqa: F401
    import repro.storage.store
    import repro.storage.wal
    from repro.core.locks import ReadWriteLock
    from repro.core.engine import Engine
    from repro.core.session import Session

    wrap = recorder.wrap
    for attr in ("parse_statement", "parse_script"):
        patch_function("repro.sql.parser", attr, lambda fn: wrap("sql.parse", fn))
    patch_function("repro.engine.compiler", "compile_select", lambda fn: wrap("engine.compile", fn))
    for attr in ("execute_plan", "execute_plan_partial", "execute_plan_composite"):
        patch_function(
            "repro.engine.compiler", attr, lambda fn: wrap("engine.execute_plan", fn)
        )
    for attr in (
        "grouped_aggregate",
        "grouped_aggregate_partial",
        "grouped_aggregate_composite",
        "merge_grouped_partials",
    ):
        patch_function(
            "repro.relational.kernels", attr, lambda fn: wrap("kernels", fn, measure=_rows)
        )
    patch_function(
        "repro.engine.semi_open", "evaluate_semi_open", lambda fn: wrap("semi_open.evaluate", fn)
    )
    patch_function(
        "repro.reweight.ipf",
        "ipf_reweight",
        lambda fn: wrap("reweight.ipf", fn, measure=lambda a, r: int(r.iterations)),
    )
    patch_function(
        "repro.engine.open_world", "evaluate_open", lambda fn: wrap("open_world.evaluate", fn)
    )
    generators = repro.engine.open_world
    for cls in (generators.MswgGenerator, generators.BayesNetGenerator):
        patch_method(cls, "fit", lambda fn: wrap("generator.fit", fn))
        for attr in ("generate", "generate_batch", "generate_batch_streams"):
            patch_method(
                cls, attr, lambda fn: wrap("generator.generate", fn, measure=_result_rows)
            )
    for attr in ("execute", "execute_statement"):
        patch_method(
            Session,
            attr,
            lambda fn: wrap("core.execute", fn, conn_of=lambda a: a[0].spawn_index),
        )
    patch_method(
        Engine,
        "execute_partial",
        lambda fn: wrap("core.execute", fn, conn_of=lambda a: a[2].spawn_index),
    )
    patch_method(ReadWriteLock, "acquire_read", lambda fn: wrap("locks.read_wait", fn))
    patch_method(ReadWriteLock, "acquire_write", lambda fn: wrap("locks.write_wait", fn))
    patch_method(
        repro.storage.wal.WriteAheadLog,
        "append",
        lambda fn: wrap("storage.wal_append", fn, measure=lambda a, r: len(a[1])),
    )
    patch_method(
        repro.storage.store.DurableStore,
        "checkpoint",
        lambda fn: wrap("storage.checkpoint", fn),
    )
    patch_function(
        "repro.storage.pages",
        "write_page",
        lambda fn: wrap("storage.write_page", fn, measure=lambda a, r: int(r)),
    )
    os.fsync = wrap("storage.fsync", os.fsync)


def install_server(recorder: Recorder) -> None:
    """Wrappers for an engine server process (standalone or fleet shard)."""
    _common_wrappers(recorder)
    import repro.server.server  # noqa: F401

    patch_function(
        "repro.server.protocol",
        "encode_result",
        lambda fn: recorder.wrap("server.encode", fn, measure=_bytes_result),
    )


def install_router(recorder: Recorder) -> None:
    """Wrappers for the fleet router process."""
    import repro.fleet.router
    from repro.client.client import Connection

    wrap = recorder.wrap
    router = repro.fleet.router.FleetRouter
    router._route_statement = recorder.wrap_async_route("fleet.route", router._route_statement)
    for attr in ("query_extended", "execute"):
        patch_method(
            Connection,
            attr,
            lambda fn: wrap(
                "fleet.shard_call",
                fn,
                conn_of=lambda a: a[0].session_index,
                measure=lambda a, r: a[0].port,
            ),
        )
    patch_function(
        "repro.server.protocol",
        "decode_result_with_header",
        lambda fn: wrap("fleet.decode", fn, measure=_bytes_arg),
    )
    patch_function(
        "repro.server.protocol",
        "encode_result",
        lambda fn: wrap("fleet.encode", fn, measure=_bytes_result),
    )
    patch_function("repro.fleet.merge", "gather_partials", lambda fn: wrap("fleet.gather", fn))
    patch_function("repro.sql.parser", "parse_statement", lambda fn: wrap("sql.parse", fn))


def install_client(recorder: Recorder) -> None:
    """The load process wraps only the client-side result decode."""
    import repro.client.client  # noqa: F401

    patch_function(
        "repro.server.protocol",
        "decode_result_with_header",
        lambda fn: recorder.wrap("client.decode", fn, measure=_bytes_arg),
    )
