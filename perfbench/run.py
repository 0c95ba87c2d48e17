#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Builds the library, the aspmt_dse
shard worker and the perfbench program from source into .bench_build/ (or
$CARGO_TARGET_DIR when set), then runs perfbench.  Its last stdout line is
the result JSON; reports and Chrome traces land in
.bench_build/reports/.  Extra flags (--instance-seed K) are passed through.

    python3 perfbench/run.py --make-refs [--instance S06 ...]

recomputes and re-verifies the stored reference fronts in perfbench/refs/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def source_files():
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [ROOT / "tools" / "aspmt_dse.cpp"]
    files += [p for p in BENCH_DIR.rglob("*") if p.is_file()]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for path in source_files():
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(out):
    """Configure once, then an incremental build (a no-op when up to date)."""
    cmake_dir = out / "cmake"
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(cmake_dir), "-j", BUILD_JOBS])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})")
    return cmake_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-refs", action="store_true")
    args, extra = parser.parse_known_args()
    if not args.make_refs and not args.workload:
        fail("--workload is required")
    for needed in ("src/CMakeLists.txt", "tools/aspmt_dse.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from the root of a source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    out = build_dir()
    binary = build(out)
    common = ["--refs", str(BENCH_DIR / "refs"), "--work", str(out / "work")]
    if args.make_refs:
        cmd = [str(binary), "--make-refs"] + common + extra
    else:
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out / "reports"), "--git-rev", git_rev(),
               "--source-digest", source_digest()] + common + extra
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    shutil.rmtree(out / "work", ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
