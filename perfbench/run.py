#!/usr/bin/env python3
"""Build and run the Nephele simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the driver (perfbench/CMakeLists.txt, which compiles the simulator
from ../src) into the build directory named by CARGO_TARGET_DIR (default
.bench_build, relative to the checkout root), checks BENCHMARK.json against
the driver's metric catalog, runs one workload for --seconds of host time
and prints the driver's report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; a traced run also writes its spans as a Chrome trace-event
file under <build dir>/traces/.

Every flag is required to be known: an unknown flag exits with code 2.
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = ROOT / "BENCHMARK.json"
DRIVER = "perfbench_driver"
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
WORKLOADS = ["fork_storm", "faas_requests", "nginx_datapath", "cluster_churn"]
# .gitignore patterns that would silently drop a committed benchmark file.
IGNORED_OUTPUT_PATTERNS = ["bench_*.json", "*.metrics.json"]
# Held-out seed: not used while tuning the benchmark or writing a change, so
# a claimed gain can be re-checked on it.
HELD_OUT_SEED = 7919


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_manifest():
    """Parses BENCHMARK.json and checks its shape; returns the dict."""
    try:
        manifest = json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {MANIFEST.name}: {err}", 3)
    if set(manifest) != TOP_KEYS:
        fail(f"{MANIFEST.name} keys {sorted(manifest)} != {sorted(TOP_KEYS)}", 3)
    names = [w["name"] for w in manifest["workloads"]]
    if names != WORKLOADS:
        fail(f"{MANIFEST.name} workloads {names} != {WORKLOADS}", 3)
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for metric in manifest[section]:
            if set(metric) != keys:
                fail(f"{MANIFEST.name} {section} entry {metric} needs keys {sorted(keys)}", 3)
    for path in BENCH_DIR.rglob("*"):
        if any(fnmatch.fnmatch(path.name, p) for p in IGNORED_OUTPUT_PATTERNS):
            fail(f"{path.relative_to(ROOT)} matches a .gitignore output pattern "
                 f"{IGNORED_OUTPUT_PATTERNS}; git would not commit it", 3)
    return manifest


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds the driver (both no-ops when up to date); returns its path."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", DRIVER, "-j", jobs]]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return out / DRIVER


def catalog(driver):
    """The driver's metric catalog: name -> (unit, better, kind, in_manifest)."""
    proc = subprocess.run([str(driver), "--list-metrics"], stdout=subprocess.PIPE, text=True,
                          check=True)
    rows = {}
    for line in proc.stdout.splitlines():
        name, unit, kind, where, better = line.split()
        rows[name] = (unit, better, kind, where == "manifest")
    return rows


def check_manifest(manifest, rows):
    """BENCHMARK.json must name exactly the metrics the driver emits, with its units."""
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in manifest[section]}
        emitted = {name: (unit, better) for name, (unit, better, kind, in_manifest)
                   in rows.items() if kind == section and in_manifest}
        if listed != emitted:
            fail(f"{MANIFEST.name} {section} {sorted(listed.items())} != driver's "
                 f"{sorted(emitted.items())}", 3)


def parse_args(argv, manifest):
    lines = ["workloads (BENCHMARK.json):"]
    lines += [f"  {w['name']:<15} {w['why']}" for w in manifest["workloads"]]
    for section in ("end_to_end", "per_layer"):
        lines.append(f"{section} metrics:")
        lines += [f"  {m['name']:<32} {m['unit']:<6} better={m['better']}"
                  + (f" bound={m['bound']}" if "bound" in m else "")
                  for m in manifest[section]]
    lines.append(f"Held-out seed: {HELD_OUT_SEED}. The driver's catalog below lists every metric it")
    lines.append("reports, with its unit, clock and the end-to-end metric each per-layer one should move.")
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False, add_help=False,
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog="\n".join(lines))
    parser.add_argument("-h", "--help", action="store_true",
                        help="show this help and the driver's full metric catalog (builds it)")
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-manifest", action="store_true",
                        help="build, check BENCHMARK.json against the driver, and exit")
    args = parser.parse_args(argv)
    if args.help:
        parser.print_help()
        print()
    elif args.workload is None and not args.check_manifest:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def main(argv):
    manifest = load_manifest()
    args = parse_args(argv, manifest)
    driver = build()
    check_manifest(manifest, catalog(driver))
    if args.help:
        return subprocess.run([str(driver), "--help"]).returncode
    if args.check_manifest:
        print(f"{MANIFEST.name} matches the driver's catalog")
        return 0

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-dir", str(traces)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited {proc.returncode} without a result line")
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in manifest[section]]
    if args.workload == "all":
        names = [f"{w}.{n}" for w in WORKLOADS for n in names]
    if sorted(result["metrics"]) != sorted(names):
        sys.stdout.write(proc.stdout)
        fail(f"driver emitted {sorted(result['metrics'])}, BENCHMARK.json lists {sorted(names)}",
             3)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
