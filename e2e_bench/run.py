#!/usr/bin/env python3
"""Builds and runs the end-to-end sweep-service benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload cold-n16k --seed 1 --seconds 25 --trace 0
    python3 e2e_bench/run.py --report [--seconds 25] [--seed 1]

The first form builds `crp_experiments` (the fleet worker) and the
benchmark binary into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload, and passes the benchmark's output through: progress on stderr,
one JSON result as the last line of stdout.

`--report` runs every workload untraced and traced, prints each
end-to-end metric with its unit, the traced per-layer table, and whether
each workload stresses the layer it was chosen for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["cold-n16k", "cold-kernel", "warm-n16k"]
RUN_TIMEOUT_S = 178

# Self-time layers of one submission, as the traced run reports them.
SELF_LAYERS = [
    "client.compile_ms",
    "client.transport_ms",
    "client.results_ms",
    "serve.self_ms",
    "serve.canonicalize_ms",
    "serve.check_ms",
    "serve.merge_ms",
    "serve.dispatch_ms",
]


def fail(message):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    """Builds the worker and the benchmark; returns both executables."""
    if not (ROOT / "crates" / "crp-sim" / "Cargo.toml").is_file():
        fail(f"no repository sources next to {HERE.name}/ (crates/crp-sim is missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "crp-sim", "--bin", "crp_experiments"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")
    release = target / "release"
    return release / "crp-e2e-bench", release / "crp_experiments"


def run_once(bench, worker, target, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout or None)."""
    scratch = target / "e2e-scratch"
    spans = target / "e2e-spans"
    scratch.mkdir(parents=True, exist_ok=True)
    spans.mkdir(parents=True, exist_ok=True)
    command = [
        str(bench), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--scratch", str(scratch),
        "--spans-out", str(spans / f"{workload}-seed{seed}.jsonl"),
    ]
    env = dict(os.environ, CRP_SHARD_WORKER_BIN=str(worker))
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True,
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    return done.returncode, done.stdout


def report(bench, worker, target, seed, seconds):
    """Every workload, untraced then traced, as tables."""
    results = {}
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_once(bench, worker, target, workload, seed, seconds, trace, True)
            if code != 0 or not out:
                fail(f"{workload} --trace {trace} exited with {code}")
            result = json.loads(out.strip().splitlines()[-1])
            all_correct &= result["correct"]
            results[(workload, trace)] = result

    print(f"\nEnd-to-end metrics (seed {seed}, {seconds}s per run)\n")
    names = list(results[(WORKLOADS[0], 0)]["metrics"])
    print(f"{'metric':<28}{'unit':<8}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        unit = results[(WORKLOADS[0], 0)]["metrics"][name]["unit"]
        row = "".join(f"{results[(w, 0)]['metrics'][name]['value']:>14.4g}" for w in WORKLOADS)
        print(f"{name:<28}{unit:<8}{row}")
    for label, key in (("correct", "correct"), ("attempted", "attempted"), ("failed", "failed")):
        print(f"{label:<36}" + "".join(f"{str(results[(w, 0)][key]):>14}" for w in WORKLOADS))

    print("\nPer-layer metrics (traced run; per submission unless a ratio or rate)\n")
    names = list(results[(WORKLOADS[0], 1)]["metrics"])
    print(f"{'metric':<28}{'unit':<8}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        unit = results[(WORKLOADS[0], 1)]["metrics"][name]["unit"]
        row = "".join(f"{results[(w, 1)]['metrics'][name]['value']:>14.4g}" for w in WORKLOADS)
        print(f"{name:<28}{unit:<8}{row}")

    print("\nLayer each workload was chosen to stress\n")
    for workload in WORKLOADS:
        layer = {k: v["value"] for k, v in results[(workload, 1)]["metrics"].items()}
        largest = max(SELF_LAYERS, key=lambda name: layer[name])
        front = layer["client.compile_ms"] + layer["serve.canonicalize_ms"]
        if workload == "warm-n16k":
            ok = largest == "client.compile_ms"
            claim = f"largest self time is {largest} ({layer[largest]:.1f} ms)"
        elif workload == "cold-kernel":
            shard = layer["worker.shard_ms_sum"]
            ok = shard > layer[largest]
            claim = (f"worker.shard_ms_sum {shard:.1f} ms vs largest self time "
                     f"{largest} {layer[largest]:.1f} ms")
        else:
            shard = layer["worker.shard_ms_sum"]
            ok = front > shard
            claim = (f"client.compile + serve.canonicalize {front:.1f} ms vs "
                     f"worker.shard_ms_sum {shard:.1f} ms")
        print(f"{workload:<14}{'ok ' if ok else 'NOT MET '}{claim}")
        overhead = layer["trace.overhead_frac"]
        print(f"{'':<14}tracing overhead {overhead:+.2%} of submit_s_p50 "
              f"(traced {layer['trace.submit_s_p50']:.4f}s vs "
              f"untraced {layer['trace.untraced_submit_s_p50']:.4f}s)")
    print(f"\ncorrectness gate: {'passed' if all_correct else 'FAILED'}")
    return 0 if all_correct else 1


def main(argv):
    options = {"--seed": "1", "--seconds": "25"}
    is_report = False
    rest = list(argv)
    while rest:
        flag = rest.pop(0)
        if flag == "--report":
            is_report = True
        elif flag in ("--workload", "--seed", "--seconds", "--trace") and rest:
            options[flag] = rest.pop(0)
        else:
            fail(f"unexpected argument {flag!r}; see the module docstring for usage")
    target = target_dir()
    bench, worker = build(target)
    if is_report:
        return report(bench, worker, target, options["--seed"], options["--seconds"])
    for flag in ("--workload", "--trace"):
        if flag not in options:
            fail(f"{flag} is required")
    code, _ = run_once(
        bench, worker, target, options["--workload"], options["--seed"],
        options["--seconds"], options["--trace"], False,
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
