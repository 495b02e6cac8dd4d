#!/usr/bin/env python3
"""DINAR benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper_vgg_dinar --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1         # every workload, one after another
    python3 perfbench/run.py --self-test            # 2-round smoke test of the benchmark

The first run builds the library and the engine from source into
.bench_build (or $CARGO_TARGET_DIR). Each run then starts the engine in a
process of its own, prints every metric as `name value unit`, writes the
full report (sample counts, checks, accuracy curve) to .bench_out/, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus a Chrome trace_event file in .bench_out/). Every
output check that fails counts as a failed operation, makes "correct"
false and the exit code 1. perfbench/config.json documents the workloads,
their accuracy gates and what each per-layer metric should move.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "dinar_perfbench"
RUN_TIMEOUT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds the engine; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no DINAR sources next to perfbench/ - nothing to build")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", BINARY])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return out / BINARY


def metric_names(trace):
    spec = load_json(ROOT / "BENCHMARK.json")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def format_value(v):
    return f"{v:.6g}"


def run_workload(binary, args, config):
    """Runs one workload; returns (result dict for the last line, exit code)."""
    wl = config["workloads"][args.workload]
    out_dir = Path(".bench_out").resolve()
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    repeats = max(2, round(args.seconds / wl["repeat_seconds"]))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--repeats", str(repeats), "--trace", str(args.trace),
           "--work-dir", str(Path(".bench_work").resolve()),
           "--trace-file", str(out_dir / f"{args.workload}-seed{args.seed}.trace.json")]
    if args.rounds:
        # Fewer rounds than the workload's own cannot reach its accuracy
        # gates; the short mode keeps every other check.
        cmd += ["--rounds", str(args.rounds), "--target", "0", "--acc-floor", "0"]
    else:
        cmd += ["--target", str(wl["target_accuracy"]),
                "--acc-floor", str(wl["accuracy_floor"])]
    if args.expect_hash:
        cmd += ["--expect-hash", args.expect_hash]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S:.0f} s")
        return None, 2
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr[-4000:])
        log(f"perfbench: engine exited with code {proc.returncode}")
        return None, 2
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    checks = report["checks"]
    failed = [c for c in checks if not c["ok"]]
    metrics = {}
    missing = []
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{repeats if not args.trace else 1} repeat(s), final-model hash {report['hash']}")
    for name in metric_names(args.trace):
        m = report["metrics"].get(name)
        if m is None or not math.isfinite(m["value"]):
            missing.append(name)
        else:
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    # Listed metrics first, then the ones reported for reading only.
    for name in list(metrics) + sorted(set(report["metrics"]) - set(metrics)):
        m = report["metrics"][name]
        note = f", {m['note']}" if m["note"] else ""
        print(f"{name} {format_value(m['value'])} {m['unit']}  (n={m['samples']}{note})")
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} - {c['detail']}")
    for name in missing:
        print(f"check metric_emitted: FAILED - {name} missing from the report")

    result = {
        "correct": not failed and not missing,
        "attempted": report["rounds_attempted"] + len(checks) + len(missing),
        "failed": len(failed) + len(missing),
        "metrics": metrics,
    }
    return result, 0 if result["correct"] else 1


def self_test(config):
    """Each workload for 2 rounds, traced and untraced: every metric is
    emitted and every check passes. Then a wrong expected hash must make
    the command fail, so the hash gate can trip."""
    me = [sys.executable, str(Path(__file__).resolve())]
    failures = []

    def invoke(extra):
        proc = subprocess.run(me + extra, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                                 else None)

    for name in config["workloads"]:
        for trace in ("0", "1"):
            code, result = invoke(["--workload", name, "--seed", str(config["default_seed"]),
                                   "--seconds", "1", "--trace", trace, "--rounds", "2"])
            wanted = set(metric_names(trace == "1"))
            ok = (code == 0 and result is not None and result["correct"]
                  and set(result["metrics"]) == wanted)
            log(f"self-test {name} trace {trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"{name} trace {trace}")
    code, result = invoke(["--workload", "socket_dense_f16", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--rounds", "2", "--expect-hash", "0" * 16])
    ok = code != 0 and result is not None and not result["correct"] and result["failed"] >= 1
    log(f"self-test wrong expected hash is refused: {'ok' if ok else 'FAILED'}")
    if not ok:
        failures.append("wrong expected hash")
    print(json.dumps({"self_test": "passed" if not failures else "failed",
                      "failures": failures}))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0,
                    help="short mode: rounds per repeat instead of the workload's own")
    ap.add_argument("--expect-hash", default="",
                    help="fail unless the final global model has this hash")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    config = load_json(HERE / "config.json")
    started = time.monotonic()
    binary = build()
    if binary is None:
        return 3
    log(f"perfbench: engine ready after {time.monotonic() - started:.1f} s")
    if args.self_test:
        return self_test(config)
    if args.seed is None:
        args.seed = config["default_seed"]
    if args.seconds is None:
        args.seconds = load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    names = list(config["workloads"]) if args.all else [args.workload]
    if names == [None] or any(n not in config["workloads"] for n in names):
        log(f"perfbench: --workload must be one of {', '.join(config['workloads'])}")
        return 2

    code = 0
    for name in names:
        args.workload = name
        result, rc = run_workload(binary, args, config)
        if result is None:
            return rc
        print(json.dumps(result))
        code = max(code, rc)
    return code


if __name__ == "__main__":
    sys.exit(main())
