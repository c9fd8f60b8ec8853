#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary (perfbench/CMakeLists.txt,
Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, then runs one workload. The binary prints a report
line and, last, one JSON result line; the exit status is nonzero if the
build fails or a correctness check fails. Extra flags (--horizon-s,
--warmup-s, used by test_bench.py) pass through to the binary.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BINARY = "mdsim_perfbench"


def build_dir() -> Path:
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    return out / "perfbench"


def build() -> Path:
    """Configure (once) and build the binary; exits nonzero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", BINARY])
    log = out / "build.log"
    with open(log, "w") as f:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=f,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(2)
    return out / BINARY


def source_id() -> str:
    """Git commit when the tree is a checkout, plus a hash of the sources
    the binary is built from (the benchmark often runs outside git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    ident = "tree-sha256:" + h.hexdigest()[:16]
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            ident = "git:" + git.stdout.strip() + " " + ident
    return ident


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--source-id", source_id(), *extra]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
