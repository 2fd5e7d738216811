#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is non-zero on any wrong
output. Two more modes, run from the root of a checkout:

    python3 perfbench/run.py --all [--seed N] [--seconds S]
        every workload untraced, then traced: every end-to-end metric with
        its unit and sample count, every per-layer metric, and the tracing
        overhead of each end-to-end metric.
    python3 perfbench/run.py --spread N --workload W [--seed N] [--seconds S]
        N untraced runs on seeds seed..seed+N-1: median, quartiles and the
        quartile spread of each end-to-end metric against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fit-backtest", "serve-mix", "stream-advance"]
# A run must end within 180 s; this leaves room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error[perfbench]: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))


def build():
    """Build the benchmark from source; cargo's output goes to stderr."""
    manifest = HERE / "Cargo.toml"
    for crate in ["tensor", "core", "serve", "stream"]:
        if not (ROOT / "crates" / crate / "Cargo.toml").is_file():
            fail(f"crates/{crate} is missing: run from the root of a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=1500).returncode != 0:
        fail("the benchmark did not build")
    binary = target_dir() / "release" / "rtgcn-perfbench"
    if not binary.is_file():
        fail(f"no benchmark binary at {binary}")
    return binary


def stamp():
    """The toolchain and commit of this run (the binary adds the machine)."""
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        rustc = "unknown"
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    return f'stamp: rustc="{rustc}" commit={commit}'


def run_binary(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return p.returncode, p.stdout.splitlines()


def digest_of(lines):
    return next((l.split()[1] for l in lines if l.startswith("digest: ")), None)


def check_digest(binary, workload, seed, trace, digest):
    """Outputs that are a pure function of the seed must not depend on
    tracing: compare with the other mode's digest for the same binary."""
    if digest is None:
        return True
    path = target_dir() / "perfbench-digests.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    build_id = str(binary.stat().st_mtime_ns)
    if seen.get("build") != build_id:
        seen = {"build": build_id}
    other = seen.get(f"{workload}/{seed}/{1 - trace}")
    seen[f"{workload}/{seed}/{trace}"] = digest
    path.write_text(json.dumps(seen))
    if other is not None and other != digest:
        print(f"error[perfbench]: {workload} seed {seed}: traced and untraced outputs differ "
              f"({digest} vs {other})", file=sys.stderr)
        return False
    return True


def one(args):
    binary = build()
    print(stamp())
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"{args.workload} printed no result (exit code {code})")
    ok = check_digest(binary, args.workload, args.seed, args.trace, digest_of(lines))
    if not ok:
        result = json.loads(lines[-1])
        result["correct"] = False
        lines[-1] = json.dumps(result)
    print("\n".join(lines))
    sys.exit(code if ok else 1)


def e2e_values(lines, prefix):
    """`{name: value}` from the binary's `metric`/`traced` lines."""
    out = {}
    for l in lines:
        parts = l.split()
        if len(parts) > 2 and parts[0] == prefix:
            out[parts[1]] = float(parts[2])
    return out


def all_workloads(args):
    binary = build()
    print(stamp())
    bad = False
    for w in WORKLOADS:
        print(f"== {w}: seed {args.seed}, {args.seconds} s ==")
        code_u, plain = run_binary(binary, w, args.seed, args.seconds, 0)
        code_t, traced = run_binary(binary, w, args.seed, args.seconds, 1)
        for l in plain[:-1]:
            if l.startswith(("metric", "note", "fail_frac")):
                print(l)
        for l in traced[:-1]:
            if l.startswith("layer"):
                print(l)
        u, t = e2e_values(plain, "metric"), e2e_values(traced, "traced")
        for name, value in u.items():
            if name in t:
                diff = t[name] - value
                print(f"overhead {name:<16} untraced {value:.6f} traced {t[name]:.6f} "
                      f"diff {diff:+.6f} ({100 * diff / value:+.2f}%)")
        same = digest_of(plain) == digest_of(traced)
        if not same:
            print(f"error[perfbench]: {w}: traced and untraced outputs differ", file=sys.stderr)
        bad |= code_u != 0 or code_t != 0 or not same
    sys.exit(1 if bad else 0)


def spread(args):
    binary = build()
    print(stamp())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.seed, args.seed + args.spread):
        code, lines = run_binary(binary, args.workload, seed, args.seconds, 0)
        if code != 0:
            print("\n".join(lines))
            fail(f"{args.workload} seed {seed} failed")
        for name, v in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        iqr = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        print(f"{name:<16} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {iqr:.4f} "
              f"bound {bound} ({iqr / bound:.2f} of bound)")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--spread", type=int, default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if args.all:
        all_workloads(args)
    if args.workload is None:
        fail("--workload is required (or --all)")
    if args.spread:
        spread(args)
    else:
        one(args)


if __name__ == "__main__":
    main()
