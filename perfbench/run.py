#!/usr/bin/env python3
"""End-to-end benchmark of the hybrid design flow: design-time DSE and fleet-
scale run-time policies. See perfbench/NOTES.md for metrics and workloads.

  python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
      W is explore, fleet_mdp_faults, fleet_aura or all. Builds the library
      and the clrbench program from source into .bench_build/, writes fleet
      inputs in a separate process, measures W in its own process and prints
      the metrics, then one JSON result line last. Exits 1 when an output
      check fails.
  python3 perfbench/run.py --self-check [--workload W] [--seconds T]
      Two interleaved sets of 10 runs (seeds 1..10) of the same build; prints
      each set's median and quartiles per workload x end-to-end metric and
      whether the sets agree within the bound in BENCHMARK.json.
  python3 perfbench/run.py --record-digest
      Re-record perfbench/digests.json (model-output digests at the default
      seed). Only a change that means to alter model outputs does this.
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
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BINARY = BUILD / "clrbench"
DIGESTS = HERE / "digests.json"
WORKLOADS = ["explore", "fleet_mdp_faults", "fleet_aura"]
DEFAULT_SEED = 1
SELF_CHECK_RUNS = 10  # runs per set; seeds 1..SELF_CHECK_RUNS
# Structural no-change predictions: spans a workload must never record.
FORBIDDEN_SPANS = {
    "explore": lambda name: name.split(".")[0] in ("runtime", "fleet", "io"),
    "fleet_mdp_faults": lambda name: name == "runtime.pretrain",
    "fleet_aura": lambda name: name == "runtime.mdp_solve",
}
E2E_NOTES = {
    "wall_s": "host time of the timed phase, median over reps",
    "setup_s": "host time of one set-up, median over the run",
    "peak_rss_mb": "peak resident set of the workload process",
    "success_rate": "operations that passed every check / attempted",
}


class BenchError(Exception):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("library sources (src/) not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "clrbench", "-j",
                    str(min(4, os.cpu_count() or 1))], stdout=sys.stderr, check=True, timeout=850)


def generate_input(workload):
    """Write the fleet workload's design database in its own clrbench process,
    before (and outside) the measured one."""
    path = WORK / f"{workload}.clrdb"
    subprocess.run([str(BINARY), "gen", "--workload", workload, "--out", str(path)],
                   stdout=sys.stderr, check=True, timeout=120)
    return str(path)


def run_workload(workload, seed, seconds, trace):
    """Generate the inputs, run the measured process, return its report."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if workload != "explore":
        cmd += ["--input", generate_input(workload)]
    if trace:
        cmd += ["--trace-out", str(WORK / f"trace-{workload}-{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: clrbench exited {proc.returncode} without a report")
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload}: clrbench exited {proc.returncode}")
    if trace:
        (WORK / f"layers-{workload}-{seed}.json").write_text(
            json.dumps(report["layers"], indent=1) + "\n")
    return report


def check_report(report, seed, spec):
    """Checks that run.py adds on top of clrbench's own: the recorded digest
    at the default seed, the structural no-change predictions, and that every
    per-layer metric is one BENCHMARK.json declares."""
    workload = report["workload"]
    problems = list(report["errors"])
    if seed == DEFAULT_SEED and DIGESTS.exists():
        expected = json.loads(DIGESTS.read_text())["digests"].get(workload)
        if expected != report["digest"]:
            problems.append(f"model outputs changed: digest {report['digest']}, "
                            f"recorded {expected} (perfbench/digests.json)")
    forbidden = [n for n in report["span_names"] if FORBIDDEN_SPANS[workload](n)]
    if forbidden:
        problems.append(f"spans that {workload} must not record: {forbidden}")
    declared = {m["name"] for m in spec["per_layer"]}
    unknown = sorted(set(report["layers"]) - declared)
    if unknown:
        problems.append(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return problems


def end_to_end(report, failed):
    attempted = report["attempted"]
    return {
        "wall_s": statistics.median(report["wall_samples"]),
        "setup_s": statistics.median(report["setup_samples"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted if attempted else 0.0,
    }


def metrics_of(report, trace, spec, failed):
    """The contract's metrics: every end-to-end metric, or with tracing every
    per-layer metric. A layer the workload never enters (no span, no work)
    reads 0; the printed table marks it as absent."""
    if not trace:
        values = end_to_end(report, failed)
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    return {m["name"]: {"value": report["layers"].get(m["name"], {"value": 0.0})["value"],
                        "unit": m["unit"]} for m in spec["per_layer"]}


def print_table(report, seed, trace, spec, problems, failed):
    print(f"== {report['workload']}  seed {seed}  reps {report['reps']}  "
          f"set-ups {len(report['setup_samples'])}  digest {report['digest']}")
    if not trace:
        values = end_to_end(report, failed)
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<16} {values[m['name']]:>14.6g} {m['unit']:<9} "
                  f"{E2E_NOTES[m['name']]}")
    else:
        for name, m in report["layers"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in report["layers"]]
        if absent:
            print(f"  not entered by this workload (reported as 0): {', '.join(absent)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")


def measure(workload, seed, seconds, trace, spec, quiet=False):
    report = run_workload(workload, seed, seconds, trace)
    problems = check_report(report, seed, spec)
    failed = report["failed"]
    if problems and failed == 0:
        failed = report["attempted"]  # outputs are wrong as a whole
    if not quiet:
        print_table(report, seed, trace, spec, problems, failed)
    return {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics_of(report, trace, spec, failed),
        "report": report,
    }


def self_check(workloads, seconds, spec):
    sets = {label: {w: [] for w in workloads} for label in ("A", "B")}
    for seed in range(1, SELF_CHECK_RUNS + 1):
        order = ("A", "B") if seed % 2 else ("B", "A")
        for w in workloads:
            for label in order:
                res = measure(w, seed, seconds, False, spec, quiet=True)
                if not res["correct"]:
                    raise BenchError(f"{w} seed {seed}: output check failed")
                sets[label][w].append({k: v["value"] for k, v in res["metrics"].items()})
                log(f"self-check {label} {w} seed {seed}: "
                    f"wall_s {sets[label][w][-1]['wall_s']:.4f}")
    ok = True
    print(f"{'workload':<18}{'metric':<14}{'set':<4}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = {}
            for label in ("A", "B"):
                vals = [r[name] for r in sets[label][w]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                meds[label] = med
                spread_ok = spread <= bound
                ok = ok and spread_ok
                print(f"{w:<18}{name:<14}{label:<4}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                      f"{spread:>9.4f}{bound:>7.2f}  spread {'ok' if spread_ok else 'TOO WIDE'}")
            shift = (meds["B"] - meds["A"]) / meds["A"] if meds["A"] else 0.0
            agree = abs(shift) <= bound
            ok = ok and agree
            print(f"{w:<18}{name:<14}{'A~B':<4}{'':>36}{shift:>+9.4f}{bound:>7.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def record_digest(spec):
    digests = {}
    for w in WORKLOADS:
        res = measure(w, DEFAULT_SEED, 1, False, spec, quiet=True)
        digests[w] = res["report"]["digest"]
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n")
    print(f"recorded {DIGESTS.relative_to(ROOT)}: {digests}")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    try:
        build()
        if args.record_digest:
            record_digest(spec)
            return 0
        if args.self_check:
            return 0 if self_check(workloads, args.seconds, spec) else 1
        results = [measure(w, args.seed, args.seconds, bool(args.trace), spec) for w in workloads]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:  # --workload all: one line for the whole set, names prefixed
        metrics = {f"{w}.{k}": v for w, r in zip(workloads, results)
                   for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
