#!/usr/bin/env python3
"""Build and run the Blazes benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-journal --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from source into .bench_build/
(with its own Go build cache there), run with the given arguments, and its
output is relayed. The last line of standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Before relaying it, this script checks that it names exactly the metrics
BENCHMARK.json declares for the mode (end_to_end without tracing,
per_layer with it), with the declared units.

Exit status: 0 when the run completed and every correctness check held;
non-zero otherwise (build failure, missing repository, failed check,
timeout).
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)
    return env


def build(env):
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")
    res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")


def run(args, env):
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    proc = subprocess.Popen([BINARY] + args + ["--work", work], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    # The program stops its own children; this reaps any it left behind.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def check_metrics(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s" % (missing, extra))
    for name, unit in declared.items():
        if got[name].get("unit") != unit:
            fail("metric %s has unit %r, BENCHMARK.json says %r" % (name, got[name].get("unit"), unit))


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no Blazes module next to the benchmark (expected ../go.mod)")
    args = sys.argv[1:]
    env = go_env()
    build(env)
    code, out = run(args, env)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the benchmark printed no result (exit %d)" % code)
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not a JSON result (exit %d)" % code)
    check_metrics(result, "--trace" in args and args[args.index("--trace") + 1] == "1")
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
