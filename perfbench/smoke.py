"""Smoke checks of the benchmark itself.

    python3 perfbench/smoke.py

From the root of a checkout, runs every workload briefly (1 s, a fixed
non-default seed) untraced and traced, and asserts that

- the last line is the result object, every metric ``BENCHMARK.json``
  names prints with its unit, ``correct`` holds and ``answered_share`` is
  1.0;
- afterwards no launcher process, ``/dev/shm`` segment, temp data dir or
  scratch directory is left behind;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
SMOKE_SEED = 97
TIMEOUT = 300


def launcher_processes() -> set:
    found = set()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "perfbench/launcher.py" in cmdline:
            found.add(int(pid))
    return found


def leftovers() -> dict:
    shm = set()
    if os.path.isdir("/dev/shm"):
        shm = {name for name in os.listdir("/dev/shm") if name.startswith("mosaic-shm-")}
    temp = tempfile.gettempdir()
    data_dirs = {name for name in os.listdir(temp) if name.startswith("mosaic-data-")}
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    return {
        "launchers": launcher_processes(),
        "shm": shm,
        "data_dirs": data_dirs,
        "scratch": set(os.listdir(scratch)) if os.path.isdir(scratch) else set(),
    }


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(SMOKE_SEED),
        "--seconds", "1",
        "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAIL {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    before = leftovers()
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            completed = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(completed.returncode == 0, f"{label} exited {completed.returncode}: "
                  f"{completed.stderr[-2000:]}")
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
            check(result["correct"] and result["failed"] == 0, f"{label} failed answers")
            check(result["attempted"] >= 1, f"{label} attempted nothing")
            expected = {entry["name"]: entry["unit"] for entry in spec[section]}
            printed = {name: value["unit"] for name, value in result["metrics"].items()}
            check(printed == expected, f"{label} metrics/units differ from BENCHMARK.json")
            if trace == 0:
                share = result["metrics"]["answered_share"]["value"]
                check(share == 1.0, f"{label} answered_share {share}")
            after = leftovers()
            for kind, names in after.items():
                check(names <= before[kind], f"{label} left {kind} behind: {names - before[kind]}")
            print(f"smoke: ok {label}", flush=True)

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-bare-", dir=scratch_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        completed = run(spec["workloads"][0]["name"], 0, cwd=bare)
        check(completed.returncode != 0, "bare directory run exited 0")
        check('"metrics"' not in completed.stdout, "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(scratch_root):
            os.rmdir(scratch_root)
    print("smoke: ok bare directory exits non-zero", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
