"""Start one server-side process of a benchmark deployment.

    python3 perfbench/launcher.py SPEC.json

``SPEC.json`` (written by ``run.py``) names the role and its inputs:

- ``"role": "server"`` boots an :class:`~repro.core.engine.Engine`
  (durable when ``data_dir`` is set), runs the DDL script on a root
  session, bulk-loads the generated relations through
  ``Engine.ingest_relation``, registers the marginals, and serves it with
  :class:`~repro.server.server.MosaicServer` -- what
  ``python -m repro.server --init-sql`` does, plus the bulk load and the
  choice of OPEN generator (which the CLI does not expose).
- ``"role": "router"`` serves a :class:`~repro.fleet.router.FleetRouter`
  in front of already running shard servers.

The process prints ``perfbench listening on <port>`` once it accepts
connections and serves until SIGTERM.  With ``"trace_out"`` it installs
the layer wrappers of :mod:`tracing` first and writes its spans there on
the way out.  The parent pins the environment (BLAS threads, hash seed,
no ``MOSAIC_*`` overrides except the WAL limit where a workload sets it).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _session_config(spec: dict):
    from repro.core.session import SessionConfig
    from repro.engine.open_world import BayesNetGenerator, OpenQueryConfig

    open_config = OpenQueryConfig()
    if spec.get("generator") == "bayesnet":
        open_config.generator_factory = BayesNetGenerator
    return SessionConfig(seed=spec["seed"], open_config=open_config)


async def _serve(spec: dict) -> None:
    loop = asyncio.get_running_loop()
    if spec["role"] == "router":
        from repro.fleet.partition import PartitionSpec
        from repro.fleet.router import FleetRouter

        service = FleetRouter(
            [tuple(address) for address in spec["shards"]],
            port=0,
            partitions={table: PartitionSpec(table) for table in spec["partitions"]},
        )
    else:
        from repro.core.engine import Engine
        from repro.server.server import MosaicServer

        config = _session_config(spec)
        engine = Engine(seed=spec["seed"], data_dir=spec.get("data_dir"))
        root = engine.root_session(config)
        for statement in spec["init_sql"]:
            root.execute(statement)
        for name, path in spec["ingest"]:
            with np.load(path) as data:
                relation = workloads.relation_from_arrays(
                    {key: data[key] for key in data.files}
                )
            engine.ingest_relation(name, relation)
        for statement in spec["post_sql"]:
            root.execute(statement)
        service = MosaicServer(
            engine,
            port=0,
            session_config=config,
            shutdown_engine=True,
            shard_id=spec.get("shard_id"),
        )
    await service.start()
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signal_number, lambda: loop.create_task(service.stop()))
    print(f"perfbench listening on {service.port}", flush=True)
    await service.serve_forever()


def main(argv: list[str]) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    recorder = None
    if spec.get("trace_out"):
        recorder = tracing.Recorder(spec["role"])
        if spec["role"] == "router":
            tracing.install_router(recorder)
        else:
            tracing.install_server(recorder)
    try:
        asyncio.run(_serve(spec))
    finally:
        if recorder is not None:
            recorder.dump(spec["trace_out"])
    return 0


if __name__ == "__main__":
    with contextlib.suppress(KeyboardInterrupt):
        sys.exit(main(sys.argv))
