#!/usr/bin/env python3
"""Campaign benchmark for the UBfuzz reproduction.

    python3 campaignbench/run.py --workload NAME [--seed N] [--seconds S]
                                 [--trace 0|1]
    python3 campaignbench/run.py --workload all      # every workload
    python3 campaignbench/run.py --record            # re-record baseline.json

Run from the repository root. The first run configures and builds the
core library and the benchmark client (campaignbench/CMakeLists.txt)
into .bench_build/; later runs only check that the build is current.

Workloads (closed loops: a worker claims its next unit only after its
previous unit finished; --cap-per-kind 4 throughout):

  ubfuzz   --mode ubfuzz --jobs 1, in-process, no store
  harden   --mode harden --jobs 1
  music    --mode music --jobs 1
  service  --mode ubfuzz --jobs 4 --isolate --store DIR, paused after
           half the units by one process and finished by a second with
           --resume

A run is a batch of small campaigns, each in its own process: a panel
(campaign seed 20240427 and seeds derived from it, the same in every
run) and a share of campaigns whose seeds are drawn from --seed
(default 20240427). Each workload runs a fixed number of units per
measured second, so --seconds sets the batch size, and the same
(seed, seconds) always gives the same campaigns. baseline.json holds
the recorded counters for the panel and for the default and held-out
(7) seeds at the default --seconds; `--record` rewrites it.

--trace 0 prints the end-to-end metrics (tracing off):
  programs_per_s  UB programs (replays included) per wall second of
                  campaign; on service both processes count together
  cpu_s           user+system CPU of the campaign processes and every
                  forked worker (getrusage when the campaign returns)
  peak_rss_mb     largest resident set of a campaign's processes and
                  workers, median over the run's campaigns
  setup_s         launch until the first fresh unit would start (process
                  start, store open; on service also journal recovery and
                  the memo refill of the resumed process), median of
                  several launches; on service both processes, summed
and prints error_rate (failed units over units attempted) on the lines
before the result. error_rate is not a result metric because it is 0
on a healthy build; the result's "failed"/"attempted" carry it.

--trace 1 runs the traced replica (campaignbench/traced.cc), writes its
spans as Chrome trace-event JSON under .bench_build/traces/, derives
every layer's time and self time from that file, and prints the
per-layer metrics. A layer that does not run on a workload reads 0.

Every run checks its result: the accounting invariants
(statsInvariantViolation), a fresh in-process re-run of three
seed-chosen units against their folded deltas, the workload's recorded
counters in baseline.json when the seed and size match, and on service
equality with the uninterrupted ubfuzz campaign. A failed check marks
the run incorrect and counts every unit as failed.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "campaignbench"
CLIENT = BUILD / "campaignbench"
# Journals and set-up stores of this run; per process, so runs in one
# checkout never share them.
WORK_DIR = ROOT / ".bench_build" / ("runs-%d" % os.getpid())
TRACES = ROOT / ".bench_build" / "traces"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 20240427
HELD_OUT_SEED = 7
DEFAULT_SECONDS = 20
CHECK_UNITS = 3
SETUP_LAUNCHES = 25


class Workload:
    """One workload: its campaign flags, the units of each campaign, how
    many units it runs per measured second (sized on a 4-vCPU host so a
    run measures about --seconds), and the share of its campaigns drawn
    from --seed."""

    def __init__(self, name, mode, jobs, units, units_per_s,
                 trace_units_per_s, drawn_share, service=False):
        self.name = name
        self.mode = mode
        self.jobs = jobs
        self.units = units
        self.units_per_s = units_per_s
        self.trace_units_per_s = trace_units_per_s
        self.drawn_share = drawn_share
        self.service = service

    def seeds(self, seed, seconds, trace=False):
        """The campaign seeds of one run: the panel (20240427 and seeds
        derived from it, the same in every run), then the campaigns
        drawn from --seed."""
        rate = self.trace_units_per_s if trace else self.units_per_s
        count = max(2, round(seconds * rate / self.units))
        drawn = max(1, round(count * self.drawn_share))
        panel = [DEFAULT_SEED] + [derive_seed(DEFAULT_SEED, k)
                                  for k in range(1, count - drawn)]
        return panel, [derive_seed(seed, DRAWN_SALT + k)
                       for k in range(drawn)]

    def flags(self, seeds):
        flags = ["--mode", self.mode, "--seed", ",".join(map(str, seeds)),
                 "--units", str(self.units), "--jobs", str(self.jobs)]
        return flags + (["--isolate"] if self.service else [])


def derive_seed(seed, k):
    """The k-th campaign seed derived from @seed (SplitMix64 mix)."""
    mask = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + k * 0xD1B54A32D192ED03) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


# Why runs are batches of small campaigns with a fixed panel:
#  - the units of one campaign draw their programs from overlapping
#    random streams (the generator's SplitMix64 state is linear in the
#    unit index), so their costs are correlated: a run's spread over
#    seeds falls with the number of campaigns more than of units;
#  - unit cost is heavy-tailed (program size): with every campaign
#    drawn from --seed, 20-second runs spread by 10-25% between seeds
#    (harden most), on top of 2-13% between identical runs on a shared
#    4-vCPU host. The panel, the same in every run, keeps the seed's
#    share of that spread small; the drawn share still gives every seed
#    its own programs, and the panel's counters are checked against
#    baseline.json on every run.
DRAWN_SALT = 1 << 20
WORKLOADS = {
    w.name: w for w in [
        Workload("ubfuzz", "ubfuzz", 1, 4, 4.2, 2.0, 0.15),
        Workload("harden", "harden", 1, 2, 1.7, 0.8, 0.05),
        Workload("music", "music", 1, 20, 44.0, 20.0, 0.2),
        Workload("service", "ubfuzz", 4, 16, 8.0, 3.0, 0.15,
                 service=True),
    ]
}

END_TO_END = [("programs_per_s", "1/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]

PER_LAYER = [
    ("generator.s", "s"),
    ("ubgen.profile_s", "s"), ("ubgen.generate_s", "s"),
    ("ubgen.validate_s", "s"), ("ubgen.programs", "count"),
    ("ubgen.valid_ratio", "ratio"),
    ("mutation.s", "s"), ("mutation.mutants", "count"),
    ("mutation.ub_ratio", "ratio"),
    ("ast.print_s", "s"), ("ast.print_bytes", "bytes"),
    ("compiler.lower_s", "s"), ("compiler.lowerings", "count"),
    ("compiler.delta_ratio", "ratio"),
    ("oracle.compile_s", "s"), ("compiler.early_opt_s", "s"),
    ("compiler.specialize_s", "s"), ("ir.key_s", "s"),
    ("compiler.specializations", "count"),
    ("compiler.early_opt_hit_ratio", "ratio"),
    ("oracle.distinct_ratio", "ratio"), ("ir.key_bytes", "bytes"),
    ("oracle.run_s", "s"), ("oracle.trace_runs", "count"),
    ("oracle.selected_ratio", "ratio"),
    ("vm.machine_build_s", "s"), ("vm.classify_s", "s"),
    ("vm.translate_s", "s"), ("vm.executions", "count"),
    ("vm.translation_hit_ratio", "ratio"), ("vm.steps", "count"),
    ("vm.timeouts", "count"),
    ("harden.twin_compile_s", "s"), ("harden.twin_run_s", "s"),
    ("harden.fault_s", "s"), ("harden.fault_runs", "count"),
    ("harden.detect_ratio", "ratio"),
    ("fuzzer.unit_ms_p50", "ms"), ("fuzzer.unit_ms_tail", "ms"),
    ("fuzzer.units", "count"), ("fuzzer.memo_replays", "count"),
    ("orchestrator.idle_s", "s"),
    ("supervisor.overhead_s", "s"), ("supervisor.codec_s", "s"),
    ("supervisor.frame_bytes", "bytes"), ("supervisor.failures", "count"),
    ("campaign.append_s", "s"), ("campaign.journal_bytes", "bytes"),
    ("campaign.replay_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
]

# Per-layer counts that repeat exactly for a given (seed, seconds); the
# traced run checks them against baseline.json.
EXACT_COUNTS = ["ub_programs", "compiler.specializations",
                "oracle.distinct_ratio", "ir.key_bytes", "vm.steps",
                "vm.timeouts", "campaign.journal_bytes"]


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the client; raises on failure, e.g.
    in a directory that holds only the benchmark and not the sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no src/ next to campaignbench/: not a checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


class Child:
    """One finished client process: its JSON and its launch time."""

    def __init__(self, out, launched):
        self.out = out
        self.launched = launched


def launch(args):
    """Run the client to completion; its stderr passes through."""
    launched = time.monotonic()
    done = subprocess.run([str(CLIENT)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise BenchError("client exited %d: %s" % (done.returncode,
                                                   " ".join(args)))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("client printed nothing: " + " ".join(args))
    return Child(json.loads(lines[-1]), launched)


def fresh_dir(name):
    path = WORK_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def median_setup(flags, fresh_store=False, resume=None):
    """Median launch-to-ready time over SETUP_LAUNCHES launches; with
    @fresh_store each launch opens a new journal, with @resume each
    reopens that paused journal."""
    samples = []
    for i in range(SETUP_LAUNCHES):
        extra = []
        if resume is not None:
            extra = ["--store", str(resume), "--resume"]
        elif fresh_store:
            extra = ["--store", str(fresh_dir("setup-%d" % i))]
        child = launch(["setup"] + flags + extra)
        samples.append(child.out["ready_s"] - child.launched)
    return statistics.median(samples)


def load_baseline():
    if BASELINE.is_file():
        return json.loads(BASELINE.read_text())
    return {"workloads": {}}


def recorded(baseline, workload, *path, seconds):
    """The recorded entry at @path for runs of --seconds, or None."""
    entry = baseline["workloads"].get(workload, {})
    for key in path:
        entry = entry.get(key, {})
    return entry if entry.get("seconds") == seconds else None


def stats_digest(stats_list):
    """SHA-256 of every campaign's logical counters, in campaign order."""
    text = json.dumps(stats_list, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def headline(stats_list):
    keys = ["ub_programs", "non_triggering", "no_ub", "selected_pairs",
            "faults_injected", "drift_reports"]
    return {k: sum(s[k] for s in stats_list) for k in keys}


def check_pairs(seed, campaigns, units):
    """CHECK_UNITS seed-chosen (campaign, unit) pairs to re-run."""
    rng = random.Random(seed)
    every = [(k, u) for k in range(campaigns) for u in range(units)]
    return sorted(rng.sample(every, min(CHECK_UNITS, len(every))))


def problems_of(campaigns, complete=True):
    found = []
    for c in campaigns:
        if c["invariant"]:
            found.append("seed %d: accounting invariant: %s"
                         % (c["seed"], c["invariant"]))
        if c["complete"] != complete:
            found.append("seed %d: campaign complete=%s, want %s"
                         % (c["seed"], c["complete"], complete))
    return found


def run_campaign(wl, seed, seconds, baseline):
    """One measured run of @wl: a batch of campaigns, each in its own
    process (two on service: one runs half the units and pauses with
    --max-units, a second resumes from the journal and finishes).
    Returns (metrics, attempted, failed, problems, stats of every
    campaign)."""
    panel, drawn = wl.seeds(seed, seconds)
    seeds = panel + drawn
    checks = check_pairs(seed, len(seeds), wl.units)
    half = wl.units // 2
    problems, children, peaks, stats = [], [], [], []
    setup = 0.0
    for k, cseed in enumerate(seeds):
        flags = wl.flags([cseed])
        units = ",".join("0:%d" % u for ck, u in checks if ck == k)
        check = ["--check", units] if units else []
        if wl.service:
            store = fresh_dir("service-store")
            if k == 0:
                setup += median_setup(flags, fresh_store=True)
            first = launch(["campaign"] + flags +
                           ["--store", str(store), "--max-units", str(half)])
            problems += problems_of(first.out["campaigns"], complete=False)
            if k == 0:
                setup += median_setup(flags, resume=store)
            last = launch(["campaign"] + flags + check +
                          ["--store", str(store), "--resume"])
            replayed = last.out["campaigns"][0]["units_replayed"]
            if replayed != half:
                problems.append("seed %d: resume replayed %d units, want %d"
                                % (cseed, replayed, half))
            procs = [first, last]
        else:
            if k == 0:
                setup = median_setup(flags)
            last = launch(["campaign"] + flags + check)
            procs = [last]
        problems += problems_of(last.out["campaigns"])
        children += procs
        peaks.append(max(ch.out["maxrss_kb"] for ch in procs) / 1024.0)
        stats.append(last.out["campaigns"][0]["stats"])
    walls = [c["wall_s"] for ch in children for c in ch.out["campaigns"]]
    for ch in children:
        if ch.out["check_mismatches"]:
            problems.append("%d re-run unit(s) differ from their folded "
                            "delta" % ch.out["check_mismatches"])
    if sum(ch.out["checked_units"] for ch in children) != len(checks):
        problems.append("re-checked %d units, want %d" % (
            sum(ch.out["checked_units"] for ch in children), len(checks)))

    parts = {"panel": (panel, stats[:len(panel)], ("campaign", "panel")),
             "drawn": (drawn, stats[len(panel):],
                       ("campaign", "drawn", str(seed)))}
    for part, (part_seeds, part_stats, path) in parts.items():
        expect = recorded(baseline, wl.name, *path, seconds=seconds)
        if expect is None and wl.service:
            # The uninterrupted ubfuzz campaigns at the same seed
            # counts, in-process and unmeasured (jobs never changes a
            # logical result). Recorded service counters were checked
            # this way.
            ref = launch(["campaign", "--mode", "ubfuzz", "--seed",
                          ",".join(map(str, part_seeds)), "--units",
                          str(wl.units), "--jobs", str(wl.jobs)])
            expect = {"stats_sha256": stats_digest(
                [c["stats"] for c in ref.out["campaigns"]])}
        if expect is not None and (stats_digest(part_stats) !=
                                   expect["stats_sha256"]):
            problems.append("%s counters differ from the recorded or "
                            "uninterrupted campaigns" % part)

    attempted = len(seeds) * wl.units
    failed = attempted if problems else sum(ch.out["failures"]
                                            for ch in children)
    metrics = {
        "programs_per_s": sum(st["ub_programs"] for st in stats) / sum(walls),
        "cpu_s": sum(ch.out["cpu_s"] for ch in children),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": setup,
    }
    return metrics, attempted, failed, problems, stats


# ---------------------------------------------------------------- traced


def load_spans(path):
    """Complete ("X") events of a Chrome trace file, by id."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    return {e["args"]["id"]: e for e in events if e["ph"] == "X"}


def layer_times(spans):
    """Per span name: total time and self time (span time minus the
    time its child spans cover), in seconds."""
    child_time = {}
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + e["dur"]
    total, self_time = {}, {}
    for sid, e in spans.items():
        name = e["name"]
        total[name] = total.get(name, 0.0) + e["dur"] / 1e6
        self_time[name] = (self_time.get(name, 0.0) +
                           (e["dur"] - child_time.get(sid, 0.0)) / 1e6)
    return total, self_time


def unit_walls(spans):
    """Per unit root ("fuzzer.unit"): its time without probe spans, and
    the time its non-probe child spans cover, in seconds."""
    probe, covered = {}, {}
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        if e["name"] == "bench.probe":
            probe[parent] = probe.get(parent, 0.0) + e["dur"]
        else:
            covered[parent] = covered.get(parent, 0.0) + e["dur"]
    walls, cover = [], []
    for sid, e in spans.items():
        if e["name"] == "fuzzer.unit":
            walls.append((e["dur"] - probe.get(sid, 0.0)) / 1e6)
            cover.append(covered.get(sid, 0.0) / 1e6)
    return walls, cover


def tail(values_ms):
    """The highest percentile with at least ten samples beyond it, and
    that percentile. Below 21 samples that percentile would not reach
    the median, so the tail is then the maximum (p100)."""
    ordered = sorted(values_ms)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def ratio(num, den):
    return num / den if den else 0.0


def run_trace(wl, seed, seconds, baseline):
    panel, drawn = wl.seeds(seed, seconds, trace=True)
    seeds = panel + drawn
    units = len(seeds) * wl.units
    TRACES.mkdir(parents=True, exist_ok=True)
    path = TRACES / ("%s-%d.json" % (wl.name, seed))
    out = launch(["trace"] + wl.flags(seeds) +
                 ["--trace-out", str(path)]).out
    if out["guard_mismatch"]:
        raise BenchError("traced replica does not match the real unit "
                         "loop (%s); refusing to report"
                         % out["guard_mismatch"])
    spans = load_spans(path)
    total, self_time = layer_times(spans)
    walls, cover = unit_walls(spans)
    t = lambda name: total.get(name, 0.0)
    c = out.get("counts", {})
    w = out["work"]
    unit_ms = [x * 1e3 for x in walls]
    tail_ms, tail_pct = tail(unit_ms)
    if wl.service:
        idle = wl.jobs * out["pool_wall_s"] - sum(walls)
        overhead = out["traced_wall_s"] / out["service_wall_s"] - 1.0
        sup_overhead = (t("supervisor.unit") -
                        sum(out["inprocess_unit_ms"]) / 1e3)
    else:
        idle = 0.0
        overhead = sum(walls) / (sum(out["guard_unit_ms"]) / 1e3) - 1.0
        sup_overhead = 0.0
    m = {
        "generator.s": t("generator"),
        "ubgen.profile_s": t("ubgen.profile"),
        "ubgen.generate_s": t("ubgen.generate"),
        "ubgen.validate_s": t("ubgen.validate"),
        "ubgen.programs": c.get("ubgen_programs", 0),
        "ubgen.valid_ratio": ratio(c.get("ubgen_valid", 0),
                                   c.get("ubgen_programs", 0)),
        "mutation.s": t("mutation"),
        "mutation.mutants": c.get("mutants", 0),
        "mutation.ub_ratio": ratio(c.get("mutants_ub", 0),
                                   c.get("mutants", 0)),
        "ast.print_s": t("ast.print"),
        "ast.print_bytes": c.get("print_bytes", 0),
        "compiler.lower_s": t("compiler.lower"),
        "compiler.lowerings": w["lowerings"] + w["delta_lowerings"],
        "compiler.delta_ratio": ratio(
            w["delta_lowerings"], w["delta_lowerings"] + w["delta_fallbacks"]),
        "oracle.compile_s": t("oracle.compile"),
        "compiler.early_opt_s": t("probe.early_opt"),
        "compiler.specialize_s": t("probe.specialize"),
        "ir.key_s": t("probe.key"),
        "compiler.specializations": w["specializations"],
        "compiler.early_opt_hit_ratio": ratio(
            w["early_opt_hits"], w["early_opt_hits"] + w["early_opt_runs"]),
        "oracle.distinct_ratio": ratio(c.get("distinct_binaries", 0),
                                       c.get("plan_binaries", 0)),
        "ir.key_bytes": c.get("key_bytes", 0),
        "oracle.run_s": t("oracle.run"),
        "oracle.trace_runs": w["trace_executions"],
        "oracle.selected_ratio": ratio(c.get("selected_pairs", 0),
                                       c.get("verdict_pairs", 0)),
        "vm.machine_build_s": t("vm.machine_build"),
        "vm.classify_s": t("vm.classify"),
        "vm.translate_s": t("probe.translate"),
        "vm.executions": w["executions"],
        "vm.translation_hit_ratio": ratio(w["translation_hits"],
                                          w["executions"]),
        "vm.steps": c.get("steps", 0),
        "vm.timeouts": c.get("exec_timeouts", 0),
        "harden.twin_compile_s": t("harden.twin_compile"),
        "harden.twin_run_s": t("harden.twin_run"),
        "harden.fault_s": t("harden.fault"),
        "harden.fault_runs": c.get("faults_injected", 0),
        "harden.detect_ratio": ratio(
            c.get("faults_detected", 0),
            c.get("faults_detected", 0) + c.get("faults_sdc", 0)),
        "fuzzer.unit_ms_p50": statistics.median(unit_ms),
        "fuzzer.unit_ms_tail": tail_ms,
        "fuzzer.units": len(unit_ms),
        "fuzzer.memo_replays": w["corpus_skips"],
        "orchestrator.idle_s": idle,
        "supervisor.overhead_s": sup_overhead,
        "supervisor.codec_s": t("probe.encode") + t("probe.decode"),
        "supervisor.frame_bytes": out.get("frame_bytes", 0),
        "supervisor.failures": out.get("failures", 0),
        "campaign.append_s": t("campaign.append"),
        "campaign.journal_bytes": out.get("journal_bytes", 0),
        "campaign.replay_s": t("campaign.replay"),
        "trace.coverage": ratio(sum(cover), sum(walls)),
        "trace.overhead": overhead,
    }
    counts = dict({k: m[k] for k in EXACT_COUNTS if k in m},
                  ub_programs=c.get("ub_programs", 0))
    problems = []
    expect = recorded(baseline, wl.name, "trace", str(seed), seconds=seconds)
    if expect is not None and counts != expect["counts"]:
        problems.append("traced counts differ from baseline.json")
    unit_time = sum(walls)
    shares = {name: s / unit_time for name, s in self_time.items()
              if name != "bench.probe" and not name.startswith("probe.")}
    report = {"units": units, "trace_file": str(path.relative_to(ROOT)),
              "tail_percentile": tail_pct, "counts": counts,
              "self_s": self_time, "shares": shares}
    failed = units if problems else out.get("failures", 0)
    return m, units, failed, problems, report


# ---------------------------------------------------------------- output


def print_end_to_end(name, seed, metrics, attempted, failed, problems):
    print("workload %-8s seed %d, %d units" % (name, seed, attempted))
    for key, unit in END_TO_END:
        print("  %-16s %14.6f %s" % (key, metrics[key], unit))
    print("  %-16s %14.6f (%d of %d units failed)"
          % ("error_rate", failed / attempted, failed, attempted))
    print("  result check     " + ("ok" if not problems else
                                   "FAILED: " + "; ".join(problems)))


def print_layers(name, seed, metrics, report):
    print("workload %-8s seed %d, traced %d units (%s)"
          % (name, seed, report["units"], report["trace_file"]))
    print("  %-28s %12s %9s" % ("span", "self s", "share"))
    for span, s in sorted(report["self_s"].items(), key=lambda kv: -kv[1]):
        share = report["shares"].get(span)
        print("  %-28s %12.6f %9s" % (span, s, "" if share is None
                                       else "%.1f%%" % (100 * share)))
    for key, unit in PER_LAYER:
        print("  %-28s %16.6f %s" % (key, metrics[key], unit))
    print("  fuzzer.unit_ms_tail is p%.1f of %d units"
          % (report["tail_percentile"], metrics["fuzzer.units"]))


def result_line(correct, attempted, failed, metrics, units_of):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]}
                    for k in metrics}})


def run_one(name, seed, seconds, trace, baseline):
    wl = WORKLOADS[name]
    if trace:
        metrics, units, failed, problems, report = run_trace(
            wl, seed, seconds, baseline)
        print_layers(name, seed, metrics, report)
        if problems:
            print("  result check     FAILED: " + "; ".join(problems))
        return not problems, units, failed, metrics, dict(PER_LAYER)
    metrics, units, failed, problems, _ = run_campaign(
        wl, seed, seconds, baseline)
    print_end_to_end(name, seed, metrics, units, failed, problems)
    return not problems, units, failed, metrics, dict(END_TO_END)


def record(seconds):
    """Re-record baseline.json for runs of --seconds: the panel's and the
    default and held-out seeds' campaign counters (service ones checked
    against the uninterrupted campaigns), and their traced exact counts
    and layer shares."""
    baseline = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                "workloads": {}}
    empty = {"workloads": {}}
    for name, wl in WORKLOADS.items():
        entry = {"campaign": {"drawn": {}}, "trace": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            _, _, _, problems, stats = run_campaign(wl, seed, seconds, empty)
            if problems:
                raise BenchError("%s seed %d: %s" % (name, seed, problems))
            panel, drawn = wl.seeds(seed, seconds)
            entry["campaign"]["panel"] = {
                "seconds": seconds, "campaigns": len(panel),
                "stats_sha256": stats_digest(stats[:len(panel)]),
                "totals": headline(stats[:len(panel)])}
            entry["campaign"]["drawn"][str(seed)] = {
                "seconds": seconds, "campaigns": len(drawn),
                "stats_sha256": stats_digest(stats[len(panel):]),
                "totals": headline(stats[len(panel):])}
            _, units, _, problems, report = run_trace(wl, seed, seconds,
                                                      empty)
            entry["trace"][str(seed)] = {
                "seconds": seconds, "units": units,
                "counts": report["counts"],
                "shares": {k: round(v, 4) for k, v in
                           sorted(report["shares"].items(),
                                  key=lambda kv: -kv[1])}}
            log("recorded %s seed %d" % (name, seed))
        baseline["workloads"][name] = entry
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record campaignbench/baseline.json")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    try:
        build()
        if args.record:
            record(args.seconds)
            return 0
        baseline = load_baseline()
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload]
        correct, attempted, failed, metrics, units_of = True, 0, 0, {}, {}
        for name in names:
            ok, n, f, m, u = run_one(name, args.seed, args.seconds,
                                     args.trace, baseline)
            prefix = "" if len(names) == 1 else name + "."
            correct &= ok
            attempted += n
            failed += f
            metrics.update({prefix + k: v for k, v in m.items()})
            units_of.update({prefix + k: v for k, v in u.items()})
        print(result_line(correct, attempted, failed, metrics, units_of))
        return 0
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as err:
        log("campaignbench: %s" % err)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
