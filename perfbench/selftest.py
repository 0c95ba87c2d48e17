#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (S01-S03, multicore T=4).

    python3 perfbench/selftest.py

Builds like run.py, runs perfbench's "selftest" workload and checks that
  1. every metric BENCHMARK.json names is printed, with its unit, by the
     untraced (end_to_end) and the traced (per_layer) run;
  2. a tampered reference front raises failed_share (and `failed`);
  3. every span of the Chrome trace lies inside its parent.
Exits 0 when all checks pass, 1 otherwise.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build helper)

OUT = run.build_dir() / "selftest"


def drive(binary, trace, refs):
    cmd = [str(binary), "--workload", "selftest", "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--refs", str(refs), "--work", str(OUT / "work"),
           "--out", str(OUT / "reports")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, what, problems):
    printed = result["metrics"]
    for m in declared:
        got = printed.get(m["name"])
        if got is None:
            problems.append(f"{what}: metric {m['name']} not printed")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{what}: {m['name']} unit {got.get('unit')} != {m['unit']}")
    for name in printed:
        if name not in {m["name"] for m in declared}:
            problems.append(f"{what}: printed metric {name} is not declared")


def check_nesting(trace_path, problems):
    events = json.loads(trace_path.read_text())["traceEvents"]
    by_id = {e["args"]["span"]: e for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        p = by_id[parent]
        # ts and dur are printed in microseconds rounded to 1 ns.
        inside = (e["ts"] >= p["ts"] - 2e-3 and
                  e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 2e-3 and
                  e["args"]["job"] == p["args"]["job"])
        if not inside:
            problems.append(f"span {e['name']} lies outside its parent {p['name']}")
    if not events:
        problems.append("trace has no spans")


def main():
    binary = run.build(run.build_dir())
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    plain = drive(binary, 0, run.BENCH_DIR / "refs")
    check_metrics(plain, spec["end_to_end"], "trace 0", problems)
    if not plain["correct"] or plain["failed"] != 0:
        problems.append(f"untraced run failed: {plain}")

    traced = drive(binary, 1, run.BENCH_DIR / "refs")
    check_metrics(traced, spec["per_layer"], "trace 1", problems)
    if traced["metrics"]["failed_share"]["value"] != 0:
        problems.append("traced run reports failures")
    check_nesting(OUT / "reports" / "trace-selftest-seed1.json", problems)

    tampered = OUT / "tampered-refs"
    shutil.copytree(run.BENCH_DIR / "refs", tampered)
    front = tampered / "S01.front"
    lines = front.read_text().splitlines()
    first = lines[0].split()
    lines[0] = " ".join([str(int(first[0]) + 1)] + first[1:])
    front.write_text("\n".join(lines) + "\n")
    bad = drive(binary, 1, tampered)
    if bad["failed"] == 0 or bad["correct"] or not bad["metrics"]["failed_share"]["value"] > 0:
        problems.append(f"tampered reference not detected: {bad}")

    shutil.rmtree(OUT / "work", ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
