#!/usr/bin/env python3
"""Host-cost benchmark of the duplexity simulator.

Measure one workload (prints every metric with its unit, then one JSON
line with the result):

    python3 perfbench/run.py --workload dyad_morph --seed 1 --seconds 20 --trace 0

Other commands:

    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl
    python3 perfbench/run.py refresh-reference [--scale full|smoke|all]

Run from the root of a checkout.  The first call builds the simulator
and the measurement binary (perfbench/src) into .bench_build (or
$CARGO_TARGET_DIR); outputs go to .bench_out.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "digests.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
INPUT_SETS = 16
MAX_WORKERS = 4
SETUP_PROCESSES = 9
SETUP_REPS = 9
SETUP_TIMEOUT_S = 120
# A run stops after the first round that ends past --seconds; the margin
# covers that round, set-up and a traced run's replays.
RUN_MARGIN_S = 120
MIN_PAIRS = 10

WORKLOADS = ("dyad_morph", "dyad_nomorph", "tail_mg1", "tail_ggk")
DESIGNS = ("Baseline", "Smt", "SmtPlus", "MorphCore", "MorphCorePlus",
           "DuplexityRepl", "Duplexity")

MODEL_NOTE = (
    "model: unvalidated cycle-level CPU model (the repository holds no "
    "hardware reference), so no error figure is given; simulated "
    "statistics start after the model's warm-up (400000 cycles at full "
    "scale) and the modelled caches start empty at cycle 0")

class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    path = Path(env) if env else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workers():
    """Sweep workers W: every usable CPU, at most MAX_WORKERS so the
    memory footprint stays small on shared hosts."""
    return max(1, min(nproc(), MAX_WORKERS))


def build():
    """Configure (once) and build the measurement binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    bdir = build_dir()
    jobs = str(workers())
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", jobs, "--target", "dpx_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    binary = bdir / "dpx_perfbench"
    if not binary.is_file():
        raise BenchError("build produced no dpx_perfbench")
    return binary


def invoke(binary, args, timeout=SETUP_TIMEOUT_S):
    """Run the measurement binary; returns its JSON document."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"dpx_perfbench {' '.join(args)} timed out") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"dpx_perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("dpx_perfbench printed nothing")
    return json.loads(lines[-1])


# ------------------------------------------------------------- manifest


def source_digest():
    """sha256 over the simulator sources: the identity of the program
    under test, available also where the checkout is not a git repo."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


FINGERPRINT_KEYS = ("hardware_threads", "cpu_model", "compiler", "build_type",
                    "workers", "simd_enabled", "vmath_enabled",
                    "vmath_active", "env", "scale")


def fingerprint(manifest):
    """The host and build identity two result sets must share to be
    compared (revision and seed are what a comparison varies)."""
    return {k: manifest.get(k) for k in FINGERPRINT_KEYS}


# ------------------------------------------------------------ reference


def load_json(path):
    """Parsed JSON file, or None if it is missing or malformed."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def account(doc, reference):
    """Failure accounting: returns (attempted, failed, reasons).

    Every unit of every round is one attempted operation.  It fails on
    an exception or check abort, a queue run that did not converge, or
    a digest that differs from the reference for its input set."""
    scale = doc["manifest"]["scale"]
    input_set = str(doc["manifest"]["input_set"])
    expected = None
    if reference is not None:
        expected = (reference.get("scales", {}).get(scale, {})
                    .get(doc["workload"], {}).get(input_set))
    attempted = failed = 0
    reasons = {}
    for rnd in doc["rounds"]:
        for unit in rnd["units"]:
            attempted += 1
            why = unit["failure"]
            if not why:
                if expected is None:
                    why = "no reference digest for this input set"
                elif expected.get(unit["name"]) != unit["digest"]:
                    why = "digest differs from reference"
            if why:
                failed += 1
                reasons[why] = reasons.get(why, 0) + 1
    return attempted, failed, reasons


# -------------------------------------------------------------- metrics


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """(p, value) for the highest of p75/p90/p95/p99 with at least ten
    samples beyond it, or None."""
    n = len(values)
    ordered = sorted(values)
    best = None
    for p in (75, 90, 95, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = (p, ordered[min(n - 1, int(p / 100.0 * n))])
    return best


def timed_rounds(doc, traced):
    """Rounds after round 0 (the untimed warm-up) with the given
    tracing state."""
    return [r for r in doc["rounds"][1:] if r["traced"] == traced]


def is_dyad(doc):
    return doc["workload"].startswith("dyad_")


def end_to_end(doc, setup_s):
    rounds = timed_rounds(doc, False)
    units = [u for r in rounds for u in r["units"] if not u["failure"]]
    # A unit's simulated work is the same in every round (its digest is
    # checked), so rates use one round's work over the sum of each
    # unit's median time: a unit slowed by a passing host stall does not
    # move them.
    seconds, first = {}, {}
    for u in units:
        seconds.setdefault(u["name"], []).append(u["seconds"])
        first.setdefault(u["name"], u)
    busy = sum(median(v) for v in seconds.values())
    if is_dyad(doc):
        work = sum(u["master_ops"] + u["filler_ops"] + u["lender_ops"]
                   for u in first.values())
        requests = sum(u["requests"] for u in first.values())
    else:
        work = requests = sum(u["completed"] for u in first.values())
    return {
        "setup_s": setup_s,
        "wall_s": median([r["wall_s"] for r in rounds]),
        "sim_mops_per_s": work / busy / 1e6 if busy else 0.0,
        "cell_s_p50": median([u["seconds"] for u in units]),
        "queue_ns_per_req": busy / requests * 1e9 if requests else 0.0,
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(doc):
    """Per-layer metrics of a traced run (0 where the workload does not
    exercise the layer)."""
    traced = timed_rounds(doc, True)
    untraced = timed_rounds(doc, False)
    # Counts come from one full round (round 0 runs only W units).
    full_round = doc["rounds"][1]["units"]
    m = {}
    dyad = is_dyad(doc)
    warm_memo = doc["memo_after_round0"]
    end_memo = doc["memo_after_rounds"]
    full_rounds = len(doc["rounds"]) - 1
    m["core.calibration_s"] = doc["setup_s"] if dyad else 0.0
    m["core.calibration_probes"] = end_memo["probes"] if dyad else 0
    m["core.calibration_wide_hits"] = (
        (end_memo["wide_hits"] - warm_memo["wide_hits"]) // full_rounds
        if dyad else 0)
    for design in DESIGNS:
        m[f"core.cell_s.{design}"] = median(
            [u["seconds"] for r in traced for u in r["units"]
             if u.get("design") == design])

    def total(key):
        return sum(u.get(key, 0) for u in full_round)

    for key in ("master_ops", "filler_ops", "lender_ops", "filler_swaps"):
        m[f"cpu.{key}"] = total(key)
    for key in ("l1_accesses", "l0_accesses", "llc_accesses",
                "dram_accesses", "link_traversals"):
        m[f"mem.{key}"] = total(key)

    replays = doc.get("replays", {})
    for key in ("cpu.process_op_ns", "cpu.hsmt_op_ns", "mem.cache_access_ns",
                "mem.tlb_access_ns", "mem.cache_hit_ratio",
                "mem.tlb_hit_ratio", "branch.predict_ns",
                "branch.mispredict_rate", "workload.fill_op_ns",
                "sim.sample_ns", "sim.stats_add_ns", "sim.sketch_add_ns",
                "sim.slot_calendar_ns", "queueing.assign_ns"):
        m[key] = replays.get(key, 0.0)

    w = doc["manifest"]["workers"]
    m["sim.sweep_efficiency"] = median(
        [sum(u["seconds"] for u in r["units"]) / (w * r["wall_s"])
         for r in traced])
    if dyad:
        for key in ("queueing.run_s", "queueing.idle_ff_ratio",
                    "queueing.requests_to_converge",
                    "queueing.converged_ratio"):
            m[key] = 0.0
    else:
        completed = total("completed")
        m["queueing.run_s"] = median(
            [u["seconds"] for r in traced for u in r["units"]])
        m["queueing.idle_ff_ratio"] = (
            total("idle_fast_forwards") / completed if completed else 0.0)
        m["queueing.requests_to_converge"] = median(
            [u["completed"] for u in full_round])
        m["queueing.converged_ratio"] = (
            sum(1 for u in full_round if u["converged"]) / len(full_round))
    base = median([r["wall_s"] for r in untraced])
    m["bench.trace_overhead_frac"] = (
        median([r["wall_s"] for r in traced]) / base - 1.0 if base else 0.0)
    return m


# ------------------------------------------------------------- commands


def measure_setup(binary, args):
    """Median set-up time over fresh processes (the calibration memo is
    process-global, so a second set-up in one process would be free)."""
    values = []
    for _ in range(SETUP_PROCESSES):
        doc = invoke(binary, ["setup", "--workload", args.workload,
                              "--seed", str(args.seed), "--workers",
                              str(workers()), "--scale", args.scale,
                              "--reps", str(SETUP_REPS)])
        values += doc["setup_s"]
    return median(values)


def load_spec():
    spec = load_json(BENCHMARK_JSON)
    if spec is None:
        raise BenchError(f"cannot read {BENCHMARK_JSON}")
    return spec


def cmd_run(args):
    spec = load_spec()
    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--workers", str(workers()),
                "--scale", args.scale]
    trace_file = None
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        run_args += ["--trace-out", str(trace_file)]
    setup_s = None if args.trace else measure_setup(binary, args)
    doc = invoke(binary, run_args, timeout=args.seconds + RUN_MARGIN_S)

    attempted, failed, reasons = account(doc, load_json(REFERENCE))
    manifest = dict(doc["manifest"])
    manifest.update({"nproc": nproc(),
                     "git_revision": git_revision(),
                     "source_digest": source_digest()})

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"input_set={manifest['input_set']} W={manifest['workers']} "
          f"rounds={len(doc['rounds'])} (round 0: one unit per worker, "
          f"untimed) units/round={doc['units_per_round']} scale={args.scale}")
    print(f"# {MODEL_NOTE}")
    print("# manifest " + json.dumps(manifest, sort_keys=True))
    print(f"failed_frac {failed / attempted:.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    for why, count in sorted(reasons.items()):
        print(f"#   {count} x {why}")
    if doc["memo_after_rounds"]["probes"] != doc["memo_after_setup"]["probes"]:
        print("# warning: calibration probes ran after set-up, so setup_s "
              "misses part of the set-up work")

    section = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        metrics = per_layer(doc)
        for name, value in sorted(metrics.items()):
            print(f"{name:32s} {value:.6g} {unit_of[name]}")
        print("# *_ns, *_ratio and *_rate replay metrics are estimates: each "
              "layer is timed alone on this workload's inputs")
        print(f"# span self times (trace: {trace_file})")
        for name, t in sorted(doc["span_totals"].items()):
            print(f"#   {name:28s} n={t['count']:<5d} total={t['total_s']:.4f}s "
                  f"self={t['self_s']:.4f}s")
        summary = {"workload": args.workload, "seed": args.seed,
                   "span_totals": doc["span_totals"], "metrics": metrics}
        with open(str(trace_file).replace(".json", "-summary.json"), "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    else:
        metrics = end_to_end(doc, setup_s)
        unit_s = [u["seconds"] for r in timed_rounds(doc, False)
                  for u in r["units"] if not u["failure"]]
        for name, value in metrics.items():
            line = f"{name:18s} {value:.6g} {unit_of[name]}"
            if name == "cell_s_p50":
                line += f"  (n={len(unit_s)} units"
                tail = tail_percentile(unit_s)
                if tail:
                    line += f"; p{tail[0]} = {tail[1]:.6g} s"
                line += ")"
            print(line)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of[k]}
                          for k, v in metrics.items()}}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "manifest": manifest,
                  "fingerprint": fingerprint(manifest), **result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def parse_sets(text):
    sets = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        sets.update(range(int(lo), int(hi or lo) + 1))
    if not sets or min(sets) < 0 or max(sets) >= INPUT_SETS:
        raise BenchError(f"input sets must lie in 0-{INPUT_SETS - 1}")
    return sorted(sets)


def unit_digests(doc):
    """{unit: digest} of a run whose every round agreed; raises if any
    unit failed or two rounds disagreed."""
    digests = {}
    for rnd in doc["rounds"]:
        for unit in rnd["units"]:
            if unit["failure"]:
                raise BenchError(f"{doc['workload']} {unit['name']}: "
                                 f"{unit['failure']}")
            if digests.setdefault(unit["name"], unit["digest"]) != unit["digest"]:
                raise BenchError(f"{doc['workload']} {unit['name']}: "
                                 "rounds disagree")
    return digests


def cmd_refresh(args):
    """Recompute the reference digests.  Each input set runs once at one
    worker and once at W workers, and the reference is written only if
    the two agree.  (Every traced run checks its traced rounds against
    the same reference, so traced and untraced digests agree too.)"""
    binary = build()
    scales = ("full", "smoke") if args.scale == "all" else (args.scale,)
    names = args.workloads.split(",") if args.workloads else WORKLOADS
    reference = load_json(REFERENCE) or {}
    reference["format"] = 1
    reference["note"] = ("Bitwise digests of every unit of every workload "
                         "per input set (seed mod 16). Regenerate only "
                         "with: python3 perfbench/run.py refresh-reference")
    reference.setdefault("scales", {})
    for scale in scales:
        for name in names:
            table = reference["scales"].setdefault(scale, {}).setdefault(name, {})
            for s in parse_sets(args.sets):
                common = ["run", "--workload", name, "--seed", str(s),
                          "--scale", scale, "--seconds", "1"]
                serial = unit_digests(invoke(
                    binary, common + ["--workers", "1", "--rounds", "1"],
                    timeout=None))
                parallel = unit_digests(invoke(
                    binary, common + ["--workers", str(workers()),
                                      "--rounds", "1"],
                    timeout=None))
                if serial != parallel:
                    raise BenchError(f"{scale} {name} set {s}: digests differ "
                                     f"between 1 and {workers()} workers")
                table[str(s)] = serial
                log(f"refresh: {scale} {name} set {s}: {len(serial)} units")
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}")
    return 0


# -------------------------------------------------------------- compare


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(base, change, better, bound):
    """Apply the benchmark's rules to one (metric, workload) pair.

    base/change are values of runs on the same inputs, paired as
    (base[i], change[i]).  A gain needs at least MIN_PAIRS pairs, the
    change winning at least 9/10 of them (ties count for neither) and
    the medians differing by more than the parent's interquartile
    range.  A regression is a change median worse than the parent's by
    more than `bound` (a share of the parent's median).  When either side's spread exceeds the bound the
    pair is unresolved, unless every change run beats every parent run.
    """
    if len(base) != len(change):
        raise BenchError(f"{len(base)} parent runs but {len(change)} change "
                         "runs; runs must pair up")
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    base_iqr = bq3 - bq1
    spread = max(base_iqr / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    delta = sign * (cmed - bmed)  # > 0 means the change is better
    all_better = bool(base and change) and (
        min(sign * c for c in change) > max(sign * b for b in base))
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and delta > base_iqr):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif -delta > bound * abs(bmed):
        verdict = "regression"
    else:
        verdict = "no regression"
    return {"base_median": bmed, "base_q1": bq1, "base_q3": bq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "pairs": len(pairs), "change_wins": wins, "spread": spread,
            "verdict": verdict}


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_seed(records, side):
    """{seed: record}; raises if a seed appears twice."""
    table = {}
    for r in records:
        if table.setdefault(r["seed"], r) is not r:
            raise BenchError(f"{side}: {r['workload']} seed {r['seed']} "
                             "appears twice")
    return table


def paired_runs(base, change, workload):
    """The two sides' records paired by seed (the seed picks the
    inputs); raises unless both ran exactly the same seeds."""
    b, c = by_seed(base, "parent"), by_seed(change, "change")
    if set(b) != set(c):
        raise BenchError(f"{workload}: parent and change ran different "
                         f"seeds: {sorted(b)} vs {sorted(c)}")
    seeds = sorted(b)
    return [b[s] for s in seeds], [c[s] for s in seeds]


def compare(base_records, change_records, spec):
    """Per (metric, workload) comparison rows; raises on a fingerprint
    mismatch or on runs that do not pair up."""
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base_records + change_records}
    if len(prints) != 1:
        raise BenchError("refusing to compare results from different hosts or "
                         "builds; fingerprints:\n  " + "\n  ".join(sorted(prints)))

    def untraced(records, workload):
        return [r for r in records if r["workload"] == workload and not r["trace"]]

    workloads = {r["workload"] for r in base_records if not r["trace"]}
    if workloads != {r["workload"] for r in change_records if not r["trace"]}:
        raise BenchError("parent and change ran different workloads")
    rows = []
    for workload in sorted(workloads):
        b, c = paired_runs(untraced(base_records, workload),
                           untraced(change_records, workload), workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare_metric([r["metrics"][name]["value"] for r in b],
                                 [r["metrics"][name]["value"] for r in c],
                                 metric["better"], metric["bound"])
            row.update({"workload": workload, "metric": name,
                        "unit": metric["unit"],
                        "base_failed": sum(r["failed"] for r in b),
                        "change_failed": sum(r["failed"] for r in c)})
            if row["verdict"] == "gain" and row["change_failed"] > row["base_failed"]:
                row["verdict"] = "no gain (more failures than the parent)"
            rows.append(row)
    return rows


def cmd_compare(args):
    spec = load_spec()
    rows = compare(load_records(args.base), load_records(args.change), spec)
    print(f"{'workload':13s} {'metric':17s} {'base median [q1,q3]':34s} "
          f"{'change median [q1,q3]':34s} wins   verdict")
    for r in rows:
        print(f"{r['workload']:13s} {r['metric']:17s} "
              f"{r['base_median']:10.4g} [{r['base_q1']:.4g},{r['base_q3']:.4g}]".ljust(66)
              + f" {r['change_median']:10.4g} [{r['change_q1']:.4g},{r['change_q3']:.4g}]".ljust(35)
              + f" {r['change_wins']:2d}/{r['pairs']:<2d}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


# ----------------------------------------------------------------- main


def main(argv):
    commands = {"compare", "refresh-reference"}
    if argv and argv[0] in commands:
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("base", help="JSONL records of the parent")
            parser.add_argument("change", help="JSONL records of the change")
            return cmd_compare(parser.parse_args(argv[1:]))
        parser.add_argument("--scale", choices=("full", "smoke", "all"),
                            default="all")
        parser.add_argument("--workloads", default="",
                            help="comma-separated subset (default: all)")
        parser.add_argument("--sets", default=f"0-{INPUT_SETS - 1}",
                            help="input sets, e.g. 0-15 or 3,5")
        return cmd_refresh(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="append a result record (JSONL) for "
                        "the compare command")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return cmd_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        log(f"perfbench: {exc}")
        sys.exit(1)
