"""Mosaic end-to-end benchmark: three wire-level workloads, one command.

    python3 perfbench/run.py --workload closed_scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (it imports ``src/repro``).  Each run:

1. generates the workload's inputs from ``--seed``;
2. sets the deployment up ``SETUPS`` times -- launch the server-side
   processes (``launcher.py``), load the generated rows, register the
   marginals, run a fixed warm-up of every op type (which fits the OPEN
   generator) -- and reports the median as ``setup_s``;
3. drives two closed-loop connections (one thread each) through a fixed,
   seeded, interleaved op sequence whose length is set by ``--seconds``;
4. checks every answer after the timed phase against an in-process
   ``MosaicDB`` shadow fed the same statements (see ``checks.py``);
5. prints the metrics, then one JSON line.

``--trace 1`` instead runs the deployment once untraced and once with
the layer wrappers of ``tracing.py`` installed, and prints the per-layer
ledger, the prediction table and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: Pinned for this process and every server-side process it starts.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HASH_SEED = "0"
SETUPS = 3
FLEET_SHARDS = 2
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
ENGINE_SEED = 0

def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _terminate(signal_number, frame):
    # Unwind through the ``finally`` blocks that stop every launcher.
    raise SystemExit(128 + signal_number)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return _fail(f"no src/repro under {ROOT}; run from the root of a checkout")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    signal.signal(signal.SIGTERM, _terminate)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        bench = Benchmark(args.workload, args.seed, args.seconds, scratch)
        result = bench.run_traced() if args.trace else bench.run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # a concurrent run still owns a directory there
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------- #
# Deployment: the server-side processes of one workload
# ---------------------------------------------------------------------- #


def child_environment(workload: str) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("MOSAIC_")}
    env.update(PINNED_ENV)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    if workload == "ingest_refit":
        import workloads

        env["MOSAIC_WAL_LIMIT_BYTES"] = str(workloads.WAL_LIMIT_BYTES)
    return env


class Process:
    """One launcher subprocess."""

    def __init__(self, name: str, spec: dict, scratch: str, env: dict):
        self.name = name
        self.spec_path = os.path.join(scratch, f"{name}.json")
        with open(self.spec_path, "w") as handle:
            json.dump(spec, handle)
        self.trace_out = spec.get("trace_out")
        self.popen = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), self.spec_path],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def wait_ready(self) -> int:
        ready, _, _ = select.select([self.popen.stdout], [], [], START_TIMEOUT)
        if not ready:
            raise RuntimeError(f"{self.name} did not listen within {START_TIMEOUT:.0f} s")
        line = self.popen.stdout.readline()
        if not line.startswith("perfbench listening on "):
            raise RuntimeError(
                f"{self.name} exited before listening (status {self.popen.poll()})"
            )
        return int(line.rsplit(" ", 1)[1])

    def peak_rss_kib(self) -> int:
        with open(f"/proc/{self.popen.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> None:
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
        try:
            self.popen.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait(timeout=STOP_TIMEOUT)
        self.popen.stdout.close()


class Deployment:
    """Launch, load and serve one workload's server-side processes."""

    def __init__(self, bench: "Benchmark", index: int, traced: bool):
        self.bench = bench
        self.index = index
        self.traced = traced
        self.processes: list[Process] = []

    def _spec(self, name: str, **spec) -> dict:
        spec.setdefault("seed", ENGINE_SEED)
        if self.traced:
            spec["trace_out"] = os.path.join(self.bench.scratch, f"spans-{self.index}-{name}.json")
        return spec

    def _launch(self, name: str, spec: dict) -> Process:
        process = Process(name, spec, self.bench.scratch, self.bench.env)
        self.processes.append(process)
        return process

    def start(self) -> int:
        """Boot every process; returns the port clients connect to."""
        bench = self.bench
        workload = bench.workload
        if workload == "fleet_scatter":
            shards = [
                self._launch(
                    f"shard{shard}",
                    self._spec(f"shard{shard}", role="server", shard_id=shard, **bench.server_spec),
                )
                for shard in range(FLEET_SHARDS)
            ]
            ports = [shard.wait_ready() for shard in shards]
            router = self._launch(
                "router",
                self._spec(
                    "router",
                    role="router",
                    shards=[["127.0.0.1", port] for port in ports],
                    partitions=["T"],
                ),
            )
            port = router.wait_ready()
            bench.load_sliced(port)
            return port
        spec = dict(bench.server_spec)
        if workload == "ingest_refit":
            spec["data_dir"] = tempfile.mkdtemp(prefix=f"data-{self.index}-", dir=bench.scratch)
        server = self._launch("server", self._spec("server", role="server", **spec))
        return server.wait_ready()

    def peak_rss_mb(self) -> float:
        return sum(process.peak_rss_kib() for process in self.processes) / 1024.0

    def stop(self) -> list:
        """Stop every process (router first); returns traced spans."""
        for process in reversed(self.processes):
            process.stop()
        spans = []
        for process in self.processes:
            if process.trace_out and os.path.exists(process.trace_out):
                with open(process.trace_out) as handle:
                    data = json.load(handle)
                spans.append((process.name, [tuple(span) for span in data["spans"]]))
        return spans


# ---------------------------------------------------------------------- #
# Load: two closed-loop connections
# ---------------------------------------------------------------------- #


class Record:
    __slots__ = ("op", "t0", "t1", "result", "error")

    def __init__(self, op, t0, t1, result, error):
        self.op = op
        self.t0 = t0
        self.t1 = t1
        self.result = result
        self.error = error


def drive(connection, ops, records, barrier, recorder=None) -> None:
    from repro.errors import MosaicError

    if recorder is not None:
        recorder.set_conn(connection.session_index)
    barrier.wait()
    for op in ops:
        t0 = perf_counter()
        try:
            result, error = connection.execute(op.sql), None
        except (MosaicError, OSError) as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(op, t0, perf_counter(), result, error))


def run_phase(connections: dict, sequences: dict, recorder=None):
    """Run both connections' sequences concurrently; returns (records, wall s)."""
    records = {who: [] for who in connections}
    barrier = threading.Barrier(len(connections) + 1)
    threads = [
        threading.Thread(
            target=drive,
            args=(connections[who], sequences[who], records[who], barrier, recorder),
        )
        for who in connections
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = perf_counter()
    for thread in threads:
        thread.join()
    ended = max((r.t1 for rs in records.values() for r in rs), default=started)
    return records, ended - started


# ---------------------------------------------------------------------- #
# The benchmark
# ---------------------------------------------------------------------- #


class Benchmark:
    def __init__(self, workload: str, seed: int, seconds: int, scratch: str):
        import numpy as np

        import workloads

        self.np = np
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.env = child_environment(workload)
        self.inputs = workloads.make_inputs(
            workload, seed, workloads.write_rows_needed(workload, seconds)
        )
        self.plan = workloads.Plan(workload, seed, seconds, self.inputs)
        if workload == "fleet_scatter":
            from repro.fleet.ring import HashRing

            ring = HashRing(range(FLEET_SHARDS))
            if len({ring.lookup(name) for name in workloads.POPULATIONS}) == 1:
                raise RuntimeError("the router pins both OPEN populations to one shard")
        self.server_spec = self._write_inputs()

    # Inputs ---------------------------------------------------------------

    def _npz(self, name: str, columns: dict) -> str:
        path = os.path.join(self.scratch, f"{name}.npz")
        arrays = {
            key: (value.astype(str) if value.dtype == object else value)
            for key, value in columns.items()
        }
        self.np.savez(path, **arrays)
        return path

    def _write_inputs(self) -> dict:
        import workloads

        inputs = self.inputs
        tables, metadata = workloads.marginal_ddl(inputs, workloads.POPULATIONS)
        init = workloads.population_ddl() + tables
        sample = self._npz("sample", workloads.relation_columns(inputs.sample))
        ingest = [["S", sample], ["S2", sample]]
        for table, columns in workloads.marginal_relations(inputs).items():
            ingest.append([table, self._npz(table, columns)])
        if self.workload == "closed_scan":
            init.append(f"CREATE TABLE F {workloads.FLIGHTS_DDL}")
            ingest.append(["F", self._npz("big", workloads.relation_columns(inputs.big))])
        if self.workload == "fleet_scatter":
            init.append(f"CREATE TABLE T {workloads.FLIGHTS_DDL}")
        if self.workload != "ingest_refit":
            init.append("CREATE TABLE Notes (who TEXT, seq INT, val INT)")
        self.ddl = init
        self.metadata_sql = metadata
        self.ingest = ingest
        return {
            "generator": "mswg" if self.workload == "fleet_scatter" else "bayesnet",
            "init_sql": init,
            "ingest": ingest,
            "post_sql": metadata,
        }

    def load_sliced(self, port: int) -> None:
        """Insert the sliced table through the router (round-robin runs)."""
        import workloads
        from repro.client import Connection

        sliced = self.inputs.sliced
        with Connection("127.0.0.1", port) as loader:
            for start in range(0, sliced.num_rows, workloads.SLICED_INSERT_BATCH):
                stop = min(start + workloads.SLICED_INSERT_BATCH, sliced.num_rows)
                loader.execute(workloads.insert_sql("T", sliced, start, stop))

    # Phases ---------------------------------------------------------------

    def _connect(self, port: int) -> dict:
        import workloads
        from repro.client import Connection

        # A connects first, then B: their session spawn indices are the
        # first two of a fresh server (or router).
        a = Connection("127.0.0.1", port)
        b = Connection("127.0.0.1", port, open_options=workloads.ADAPTIVE_OPTIONS)
        return {"a": a, "b": b}

    def _setup(self, index: int, traced: bool):
        deployment = Deployment(self, index, traced)
        try:
            port = deployment.start()
            connections = self._connect(port)
            warm, _ = run_phase(connections, self.plan.warmup)
        except BaseException:
            deployment.stop()
            raise
        return deployment, connections, warm

    @staticmethod
    def _close(connections: dict) -> None:
        for connection in connections.values():
            try:
                connection.close()
            except OSError:
                pass

    def _counters(self, connection) -> dict:
        """Cache/adaptive/router counters summed over every engine."""
        stats = connection.stats()
        engines = (
            [shard.get("engine", {}) for shard in stats["shards"].values()]
            if "shards" in stats
            else [stats.get("engine", {})]
        )
        counters = {}
        for section in ("plans", "statements", "reweights", "generators"):
            counters[section] = (
                sum(engine.get(section, {}).get("hits", 0) for engine in engines),
                sum(engine.get(section, {}).get("misses", 0) for engine in engines),
            )
        counters["open_adaptive"] = (
            sum(engine.get("open_adaptive", {}).get("runs", 0) for engine in engines),
            sum(engine.get("open_adaptive", {}).get("early_stops", 0) for engine in engines),
        )
        counters["retries"] = stats.get("router", {}).get("retries", 0)
        return counters

    @staticmethod
    def _delta(before: dict, after: dict) -> dict:
        delta = {}
        for key, value in after.items():
            if isinstance(value, tuple):
                delta[key] = tuple(a - b for a, b in zip(value, before[key]))
            else:
                delta[key] = value - before[key]
        return delta

    def _timed(self, deployment, connections, recorder=None):
        before = self._counters(connections["a"])
        records, wall = run_phase(connections, self.plan.timed, recorder)
        after = self._counters(connections["a"])
        rss = deployment.peak_rss_mb()
        return records, wall, rss, self._delta(before, after)

    # Untraced run ---------------------------------------------------------

    def run(self) -> dict:
        import workloads

        setup_times = []
        deployment = connections = None
        try:
            for index in range(SETUPS):
                if deployment is not None:
                    self._close(connections)
                    deployment.stop()
                started = perf_counter()
                deployment, connections, warm = self._setup(index, traced=False)
                setup_times.append(perf_counter() - started)
            records, wall, rss, _ = self._timed(deployment, connections)
            sessions = {who: conn.session_index for who, conn in connections.items()}
        finally:
            if deployment is not None:
                self._close(connections)
                deployment.stop()
        check_started = perf_counter()
        failures = self._check(warm, records, sessions)
        check_s = perf_counter() - check_started
        timed = [record for rs in records.values() for record in rs]
        failed = sum(1 for record in timed if id(record) in failures)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "qps": (len(timed) / wall, "ops/s"),
            "answered_share": ((len(timed) - failed) / len(timed), "ratio"),
            "peak_rss_mb": (rss, "MiB"),
        }
        counts = workloads.op_counts(self.workload, self.seconds)
        tails = {}
        for kind in workloads.OP_TYPES:
            latencies = [
                (record.t1 - record.t0) * 1e3 for record in timed if record.op.kind == kind
            ]
            pct = workloads.tail_percentile(counts[kind])
            tails[kind] = (pct, len(latencies))
            metrics[f"{kind}_p50_ms"] = (float(self.np.percentile(latencies, 50)), "ms")
            metrics[f"{kind}_tail_ms"] = (float(self.np.percentile(latencies, pct)), "ms")
        lines = self._header()
        lines.append(
            "setup_s samples: " + ", ".join(f"{value:.3f}" for value in setup_times)
        )
        lines.append(f"timed phase {wall:.2f} s, answer checks {check_s:.2f} s")
        for name, (value, unit) in metrics.items():
            note = ""
            if name.endswith("_tail_ms"):
                pct, count = tails[name[: -len("_tail_ms")]]
                note = f"  (p{pct} of {count} samples)"
            lines.append(f"{name:24} {value:12.4f} {unit}{note}")
        for message in self.failure_messages[:10]:
            lines.append(f"CHECK FAILED: {message}")
        return {
            "lines": lines,
            "correct": not failures,  # warm-up answers are checked too
            "attempted": len(timed),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }

    # Traced run -----------------------------------------------------------

    def run_traced(self) -> dict:
        import ledger
        import tracing
        import workloads

        qps = {}
        ops = []
        correct = True
        attempted = failed = 0
        lines = self._header()
        for traced in (False, True):
            recorder = None
            if traced:
                recorder = tracing.Recorder("client")
                tracing.install_client(recorder)
            deployment, connections, warm = self._setup(0 if not traced else 1, traced)
            try:
                if recorder is not None:
                    recorder.spans.clear()  # set-up and warm-up decodes
                records, wall, _, counters = self._timed(deployment, connections, recorder)
                sessions = {who: conn.session_index for who, conn in connections.items()}
            finally:
                self._close(connections)
                spans = deployment.stop()
            failures = self._check(warm, records, sessions)
            timed = [record for rs in records.values() for record in rs]
            correct = correct and not failures
            attempted += len(timed)
            failed += sum(1 for record in timed if id(record) in failures)
            qps[traced] = len(timed) / wall
        if recorder is not None:
            spans.append(("client", [tuple(span) for span in recorder.spans]))
        for who, rs in records.items():
            for record in rs:
                ops.append(
                    ledger.OpWindow(
                        record.op.kind,
                        sessions[who],
                        record.t0,
                        record.t1,
                        getattr(record.result, "repetitions_used", None),
                    )
                )
        ledger.attribute(ops, spans)
        payload = sum(
            workloads.write_payload_bytes(op.rows)
            for op in self.plan.timed["a"]
            if op.kind == "write"
        )
        overhead = (qps[False] - qps[True]) / qps[False] * 100.0
        metrics, rows = ledger.compute(ops, counters, payload, overhead)
        lines.append(f"qps untraced {qps[False]:.2f}  traced {qps[True]:.2f}")
        lines += ledger.format_ledger(rows)
        lines += ledger.format_predictions()
        units = dict(ledger.PER_LAYER)
        for name, unit in ledger.PER_LAYER:
            lines.append(f"{name:34} {metrics[name]:14.5f} {unit}")
        for message in self.failure_messages[:10]:
            lines.append(f"CHECK FAILED: {message}")
        return {
            "lines": lines,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name, _ in ledger.PER_LAYER
            },
        }

    def _header(self) -> list:
        import numpy as np

        import workloads

        env = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
            "pythonhashseed": HASH_SEED,
            "mosaic_env": {
                key: value for key, value in self.env.items() if key.startswith("MOSAIC_")
            },
            "morsel_workers": "off (MOSAIC_WORKERS unset)",
            "trace_sample": "shipped default (MOSAIC_TRACE_SAMPLE unset)",
            "wal_sync": "off (Engine default)",
            "wal_limit_bytes": (
                workloads.WAL_LIMIT_BYTES if self.workload == "ingest_refit" else None
            ),
            "setups": SETUPS,
            "ops_per_connection": {
                who: len(ops) for who, ops in self.plan.timed.items()
            },
        }
        return ["environment " + json.dumps(env, sort_keys=True)]

    # Answer checks (after the timed phase) --------------------------------

    def _check(self, warm: dict, records: dict, sessions: dict) -> set:
        """Check every answer; returns ids of the failing records."""
        import checks

        checker = checks.Checker(self, sessions)
        failures, messages = checker.check(warm, records)
        self.failure_messages = messages
        return failures


if __name__ == "__main__":
    sys.exit(main())
