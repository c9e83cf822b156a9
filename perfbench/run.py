"""CTT pipeline benchmark.

    python3 perfbench/run.py --workload live|analysis|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the benchmark from
source (``perfbench/build.py``), runs one workload in a JVM whose Spark
session is built by the spark-submit jobs' ``JobSession.build`` with
``local[nproc]``, checks the outputs, and prints every metric by name and
unit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``. A per-layer metric of a layer the workload does not run
reads 0. The full record of each run (run record, every metric, failures)
is written to ``.bench_build/perfbench/results/``; spans of traced runs go
next to it.

Everything the benchmark writes stays under ``.bench_build/`` in the
checkout; temporary data is removed when the run ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
BENCH_DIR = build.BENCH_DIR
RESULTS = build.OUT_BASE / "results"
# A run must end within 180 s; the build of a fresh checkout is not counted.
RUN_BUDGET_S = 172.0
# The local[1] baseline of a traced live run needs about this long; with
# less time left it is skipped, and recorded as skipped.
BASELINE_MIN_S = 45.0
JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_jvm(classpath: str, args: list, work: Path, out: Path, master: str, timeout: float) -> dict:
    """Runs the benchmark JVM; relays its lines and returns its RESULT."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "tmp").mkdir(exist_ok=True)
    cores = nproc()
    env = dict(os.environ,
               SPARK_MASTER=master,
               # JobSession's own knob. Its default of 64 costs 25-40 s per
               # streaming pass on a small machine; one partition per core
               # keeps a pass to seconds. Recorded in the run record.
               SPARK_SHUFFLE_PARTITIONS=str(cores),
               SPARK_LOCAL_DIRS=str(work / "spark-local"),
               SPARK_LOCAL_IP="127.0.0.1")
    cmd = (["java", "-Xmx3g", "-Xss8m"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS]
           + [f"-Dlog4j2.configurationFile={BENCH_DIR / 'log4j2.properties'}",
              f"-Djava.io.tmpdir={work / 'tmp'}",
              f"-Dspark.sql.warehouse.dir={work / 'warehouse'}",
              "-Dspark.ui.enabled=false",
              "-cp", classpath, "perfbench.Main"]
           + args + ["--work", str(work), "--out", str(out)])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(timeout, expire)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="", flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if timed_out.is_set():
        raise SystemExit(f"perfbench: benchmark JVM killed after {timeout:.0f} s")
    if proc.returncode != 0 or result is None:
        raise SystemExit(f"perfbench: benchmark JVM failed (exit {proc.returncode})")
    return result


def run_workload(spec: dict, classpath: str, digest: str, workload: str,
                 seed: int, seconds: int, trace: int) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = build.OUT_BASE / "work" / f"{tag}-{os.getpid()}"
    out = RESULTS / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    started = time.monotonic()
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--golden", str(BENCH_DIR / "golden" / "analysis-seed7.txt")]
    baseline = trace == 1 and workload == "live"
    try:
        res = run_jvm(classpath, args, work / "main", out, f"local[{nproc()}]", RUN_BUDGET_S)
        left = RUN_BUDGET_S - (time.monotonic() - started)
        if baseline and left < BASELINE_MIN_S:
            res["record"]["baseline_local1"] = f"skipped: {left:.0f} s left of the run's budget"
        elif baseline:
            # Single-thread baseline: the same set-up and bulk pass in local[1].
            try:
                base = run_jvm(classpath, args + ["--baseline", "1"], work / "baseline",
                               out / "baseline", "local[1]", left)
                res["layer"]["spark.speedup_nproc"] = base["e2e"]["pass_s"] / res["layer"]["core.bulk_pass_s"]
                res["record"]["baseline_local1_bulk_pass_s"] = base["e2e"]["pass_s"]
                res["attempted"] += base["attempted"]
                res["failed"] += base["failed"]
            except SystemExit as e:
                res["record"]["baseline_local1"] = f"failed: {e}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if trace else "end_to_end"
    measured = res["layer"] if trace else res["e2e"]
    metrics, absent = {}, []
    for m in spec[kind]:
        if m["name"] in measured and measured[m["name"]] is not None:
            metrics[m["name"]] = {"value": float(measured[m["name"]]), "unit": m["unit"]}
        elif trace:
            absent.append(m["name"])
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise SystemExit(f"perfbench: {workload} did not measure {m['name']}")
    record = dict(res["record"], source_sha256=digest, git_commit=git_commit(),
                  spark_shuffle_partitions=nproc(), not_run_on_this_workload=absent)
    (out / "result.json").write_text(json.dumps(
        {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
         "end_to_end": res["e2e"], "per_layer": res["layer"], "record": record}, indent=1))
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} record: " + json.dumps(
        {k: record.get(k) for k in ("seed", "nproc", "spark_version", "scala_version",
                                    "java_version", "git_commit", "source_sha256",
                                    "host_steal_share", "gen_late_p90_s",
                                    "generator_behind_schedule", "passes_within_slot")
         if k in record}))
    return {"correct": bool(res["correct"]) and res["failed"] == 0,
            "attempted": int(res["attempted"]), "failed": int(res["failed"]), "metrics": metrics}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        raise SystemExit(f"perfbench: {spec_file} not found")
    spec = json.loads(spec_file.read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if a.workload == "all" else [a.workload]
    if not set(workloads) <= set(names):
        raise SystemExit(f"perfbench: unknown workload {a.workload}; have {names}")
    classpath, digest = build.ensure_built()
    results = [run_workload(spec, classpath, digest, w, a.seed, a.seconds, a.trace)
               for w in workloads]
    for r in results:
        print(json.dumps(r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
