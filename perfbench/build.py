"""Build file of the benchmark package.

Compiles the program (``src/main/scala`` and ``jobs``) together with the
benchmark's own sources (``perfbench/src``) with the Scala compiler that
ships in the Spark distribution, so a checkout builds without sbt and
without network access. Output goes to ``.bench_build/perfbench`` under the
checkout root, keyed by a hash of every compiled source, and is reused
while the sources are unchanged.

    python3 perfbench/build.py          # build (or reuse) and print the classpath
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_BASE = ROOT / ".bench_build" / "perfbench"
PROGRAM_SOURCES = ("src/main/scala", "jobs")


def spark_jars() -> Path:
    """The jars of the Spark distribution: $SPARK_HOME, else the first
    distribution with a spark-submit on the PATH."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        str((Path(d) / "spark-submit").resolve().parent.parent)
        for d in os.environ.get("PATH", "").split(os.pathsep) if (Path(d) / "spark-submit").is_file()]
    for home in filter(None, homes):
        if list((Path(home) / "jars").glob("spark-sql_*.jar")):
            return Path(home) / "jars"
    raise SystemExit(f"perfbench: no Spark distribution found (tried {homes})")


def duckdb_jar() -> Path:
    """The DuckDB JDBC driver that build.sbt resolves, from the local caches."""
    caches = [os.environ.get("COURSIER_CACHE", ""),
              os.path.expanduser("~/.cache/coursier"),
              os.path.expanduser("~/.ivy2"), os.path.expanduser("~/.m2")]
    for cache in filter(None, caches):
        hits = sorted(glob.glob(os.path.join(cache, "**", "duckdb_jdbc-1.0.0.jar"), recursive=True))
        if hits:
            return Path(hits[0])
    raise SystemExit("perfbench: duckdb_jdbc-1.0.0.jar not found in the local dependency caches")


def sources() -> list:
    missing = [d for d in PROGRAM_SOURCES if not (ROOT / d).is_dir()]
    if missing:
        raise SystemExit(f"perfbench: program sources missing under {ROOT}: {missing}")
    files = []
    for d in PROGRAM_SOURCES + ("perfbench/src",):
        files += sorted(str(p) for p in (ROOT / d).rglob("*.scala"))
    return files


def source_hash(files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        h.update(Path(f).read_bytes())
    return h.hexdigest()


def runtime_classpath(classes: Path) -> str:
    return os.pathsep.join([str(classes), str(spark_jars() / "*"), str(duckdb_jar())])


def ensure_built() -> tuple:
    """Returns (classpath, source hash), compiling first if needed."""
    files = sources()
    digest = source_hash(files)
    classes = OUT_BASE / f"classes-{digest[:16]}"
    if not (classes / ".complete").exists():
        for stale in OUT_BASE.glob("classes-*"):
            shutil.rmtree(stale, ignore_errors=True)
        classes.mkdir(parents=True)
        tmp = OUT_BASE / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        compile_cp = os.pathsep.join([str(spark_jars() / "*"), str(duckdb_jar())])
        cmd = ["java", "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={tmp}",
               "-cp", str(spark_jars() / "*"), "scala.tools.nsc.Main",
               "-nowarn", "-classpath", compile_cp, "-d", str(classes)] + files
        print(f"perfbench: compiling {len(files)} sources", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, timeout=840)
        if proc.returncode != 0:
            shutil.rmtree(classes, ignore_errors=True)
            raise SystemExit("perfbench: compilation failed")
        (classes / ".complete").write_text(digest)
    return runtime_classpath(classes), digest


if __name__ == "__main__":
    print(ensure_built()[0])
