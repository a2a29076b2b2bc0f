#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program (src/main/scala) together with the benchmark
(perfbench/src) with the Scala compiler that ships in the Spark
distribution's jars directory, into .bench_build/perfbench/classes. A build
is skipped when the sources and the compiler are unchanged since the last
one. Needs only a JDK and a Spark distribution (SPARK_HOME, or spark-submit
on PATH); it makes no network access.

Run from the repository root:  python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

SOURCE_DIRS = ("src/main/scala", "perfbench/src")
OUT_DIR = Path(".bench_build") / "perfbench"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return Path(home) / "jars"


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    if exe and exe.is_file():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("no java found: set JAVA_HOME")
    return found


def sources(root: Path) -> list:
    out = []
    for d in SOURCE_DIRS:
        if not (root / d).is_dir():
            raise BuildError(f"{d} not found under {root}: run from the repository root")
        out += sorted((root / d).rglob("*.scala"))
    return out


def build(root: Path):
    """Compiles if needed; returns (java classpath, sha256 of the sources)."""
    jars = spark_jars()
    srcs = sources(root)
    digest = hashlib.sha256()
    for p in srcs:
        digest.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    source_hash = digest.hexdigest()
    digest.update(" ".join(sorted(j.name for j in jars.glob("scala-*.jar"))).encode())
    stamp_value = digest.hexdigest()

    out = root / OUT_DIR
    classes = out / "classes"
    stamp = out / "stamp"
    if not (classes.is_dir() and stamp.is_file() and stamp.read_text() == stamp_value):
        tmp = out / "classes.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        argfile = out / "sources.txt"
        argfile.write_text("\n".join(str(p) for p in srcs) + "\n")
        cmd = [java(), "-Xmx1536m", "-cp", f"{jars}{os.sep}*", "scala.tools.nsc.Main",
               "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"]
        # Compiler output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BuildError("compilation failed")
        shutil.rmtree(classes, ignore_errors=True)
        tmp.rename(classes)
        stamp.write_text(stamp_value)
    return f"{classes}{os.pathsep}{jars}{os.sep}*", source_hash


if __name__ == "__main__":
    try:
        print(build(Path.cwd())[0])
    except BuildError as e:
        sys.exit(f"build: {e}")
