#!/usr/bin/env python3
"""One benchmark command for harvest_sim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the program from source into
$CARGO_TARGET_DIR (default .bench_build) with perfbench/CMakeLists.txt,
runs the span self-test, then measures one workload (see README.md):

  --trace 0  untraced runs through the front door (the harvest_sim binary),
             repeated for --seconds; prints the end-to-end metrics.
  --trace 1  one traced layer-by-layer run (traced_run) plus untraced
             front-door runs of the same seed; prints the per-layer metrics
             and writes the spans as Chrome trace-event JSON.

Every run's output is checked: exit status, the paper's shape, byte
identity of every repeat (and of the traced run against the front door),
and that another seed gives another output. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; progress
goes to stderr. Metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

# Each workload is a registered harvest_sim preset plus overrides. Its fleet
# is generated once per run from FLEET_SEED and replayed (--set trace_dir)
# by every measured run, so --seed varies the jobs, reimage-time reads,
# writers and placement draws but not the fleet's size, which would
# otherwise move every host-time metric by 10-30% from seed to seed.
FLEET_SEED = 42
WORKLOADS = {
    "sched_fleet": {
        "scenario": "fleet_sweep",
        "sets": ["fleet_scale=0.3", "per_server_traces=false", "run_durability=false",
                 "scheduling_horizon_seconds=86400", "mean_interarrival_seconds=120"],
        "scale": 1,
        "threads": 4,
    },
    "storage_year": {
        "scenario": "storage_stress",
        "sets": ["run_availability=false"],
        "scale": 4,
        "threads": 4,
    },
    "paper_sweep": {
        "scenario": "fleet_sweep",
        "sets": [],
        "scale": 1,
        "threads": 1,
    },
}
SETUP_SETS = ["run_scheduling=false", "run_durability=false", "run_availability=false"]
# Storage timelines span the presets' reimage_months (12) of 30-day months.
TIMELINE_DAYS = 12 * 30
# Set-up repeats: at least SETUP_MIN_REPS and SETUP_MIN_SECONDS of them, so
# the median of a 40 ms set-up is not one process start's noise.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 40
PROCESS_TIMEOUT_S = 170
TIMING_BLOCK = re.compile(r'^  "timing": \{\n(?:.*\n)*?^  \},\n', re.MULTILINE)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def strip_timing(text):
    """Drops the top-level "timing" block, as tools/strip_timing.sh does."""
    return TIMING_BLOCK.sub("", text, count=1)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(build_dir, "spans_test")], check=True, stdout=sys.stderr)


class Run:
    """One child process: exit status, wall and CPU seconds, peak RSS."""

    def __init__(self, argv, stdout_path=None):
        stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.DEVNULL)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.returncode = -1  # reaped by wait4 above, not by Popen
            if stdout_path:
                stdout.close()
        self.wall_s = time.perf_counter() - start
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
        self.ok = os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class Bench:
    def __init__(self, name, seed, build_dir):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.bin = build_dir
        self.dir = os.path.join(build_dir, "runs", name)
        self.fleet_dir = os.path.join(self.dir, "fleet")
        self.attempted = 0
        self.failed = 0

    def args(self, seed, sets, replay=True):
        spec = self.spec
        argv = [f"--scenario={spec['scenario']}", f"--seed={seed}",
                f"--scale={spec['scale']}", f"--threads={spec['threads']}"]
        for item in spec["sets"] + sets:
            argv += ["--set", item]
        if replay:
            argv += ["--set", f"trace_dir={self.fleet_dir}"]
        return argv

    def check(self, ok, what):
        """Counts one check made; a failed one also counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")
        return ok

    def front_door(self, seed, sets=(), replay=True, extra=()):
        """Runs harvest_sim; returns (Run, timing-stripped JSON text or None)."""
        out = os.path.join(self.dir, "front_door.json")
        run = Run([os.path.join(self.bin, "harvest_sim")] + self.args(seed, list(sets), replay)
                  + list(extra) + [f"--out={out}"])
        text = None
        if run.ok:
            with open(out, encoding="utf-8") as f:
                text = strip_timing(f.read())
        return run, text

    def prepare_fleet(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        run, _ = self.front_door(FLEET_SEED, SETUP_SETS, replay=False,
                                 extra=[f"--dump-traces={self.fleet_dir}"])
        if not run.ok:
            raise RuntimeError("fleet export failed")

    def setup_seconds(self):
        """Median wall time of the workload with its three heavy stages off,
        fleet generation included."""
        walls, outputs = [], set()
        while len(walls) < SETUP_MAX_REPS and (len(walls) < SETUP_MIN_REPS or
                                               sum(walls) < SETUP_MIN_SECONDS):
            run, text = self.front_door(FLEET_SEED, SETUP_SETS, replay=False)
            if not self.check(run.ok, "set-up run exited non-zero"):
                break
            walls.append(run.wall_s)
            outputs.add(text)
        self.check(len(outputs) == 1, "set-up repeats differ")
        return statistics.median(walls) if walls else None

    def check_seed_matters(self):
        texts = []
        for seed in (self.seed, self.seed + 1):
            run, text = self.front_door(seed, SETUP_SETS)
            if self.check(run.ok, f"seed-check run at seed {seed} exited non-zero"):
                texts.append(text)
        if len(texts) == 2:
            self.check(texts[0] != texts[1], "two seeds gave the same output")

    def check_output(self, text):
        """The paper's shape, on one timing-stripped result document: every
        DC ran, YARN-H beats YARN-PT on average at the sweeps' 45%
        utilization, and over the whole durability grid HDFS-H loses no more
        blocks and fails no more reads than HDFS-Stock."""
        result = json.loads(text)
        dcs = result["datacenters"]
        ok = result["seed"] == self.seed and len(dcs) > 0
        improvements = []
        lost = {"HDFS-Stock": 0.0, "HDFS-H": 0.0}
        failed = dict(lost)
        for dc in dcs:
            ok = ok and dc["fleet"]["servers"] > 0
            sched = dc.get("scheduling")
            if sched:
                for mode in ("primary_aware", "history"):
                    run = sched[mode]
                    ok = ok and 0 < run["jobs_completed"] <= run["jobs_arrived"]
                improvements.append(sched["history_improvement_percent"])
            durability = dc.get("durability")
            if durability:
                cells = durability["cells"]
                ok = ok and len(cells) == (len(durability["placement_kinds"]) *
                                           len(durability["replications"]))
                for cell in cells:
                    if cell["placement"] in lost:
                        lost[cell["placement"]] += cell["lost_percent"]
                        failed[cell["placement"]] += cell.get("failed_percent", 0.0)
        if improvements:
            ok = ok and statistics.mean(improvements) > 0
        return (ok and lost["HDFS-H"] <= lost["HDFS-Stock"] and
                failed["HDFS-H"] <= failed["HDFS-Stock"])

    def measure(self, seconds, first=None):
        """Repeats the untraced workload for `seconds` (at least twice when no
        reference output is given); every output must match the first."""
        runs, reference = [], first
        min_runs = 1 if first else 2
        start = time.perf_counter()
        while True:
            run, text = self.front_door(self.seed)
            if not self.check(run.ok, "workload run exited non-zero"):
                return runs, reference
            if reference is None:
                reference = text
                self.check(self.check_output(text), "output fails the paper-shape check")
            else:
                self.check(text == reference, "output differs from the first run")
            runs.append(run)
            elapsed = time.perf_counter() - start
            if len(runs) >= min_runs and elapsed * (len(runs) + 1) / len(runs) > seconds:
                return runs, reference


def sim_server_days(text):
    """Simulated server-days one run advances: servers x horizon over every
    PT and H co-simulation plus every storage grid cell."""
    days = 0.0
    for dc in json.loads(text)["datacenters"]:
        servers = dc["fleet"]["servers"]
        if "scheduling" in dc:
            days += 2 * servers * dc["scheduling"]["horizon_seconds"] / 86400.0
        if "durability" in dc:
            days += len(dc["durability"]["cells"]) * servers * TIMELINE_DAYS
    return days


def fidelity(text):
    """The H-vs-baseline results the paper reports, from one result."""
    improvements, lost, failed = [], [0.0], [0.0]
    for dc in json.loads(text)["datacenters"]:
        if "scheduling" in dc:
            improvements.append(dc["scheduling"]["history_improvement_percent"])
        for cell in dc.get("durability", {}).get("cells", []):
            if cell["placement"] == "HDFS-H":
                lost.append(cell["lost_percent"])
                failed.append(cell.get("failed_percent", 0.0))
    return {"fidelity.h_improvement_pct": statistics.mean(improvements) if improvements else 0.0,
            "fidelity.h_lost_blocks_pct": max(lost),
            "fidelity.h_failed_access_pct": max(failed)}


def end_to_end(bench, seconds):
    setup = bench.setup_seconds()
    bench.check_seed_matters()
    runs, text = bench.measure(seconds)
    if not runs or setup is None:
        return None
    wall = statistics.median(r.wall_s for r in runs)
    log(f"{len(runs)} runs, wall {[round(r.wall_s, 3) for r in runs]}")
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "sim_server_days_per_s": sim_server_days(text) / wall,
    }


def per_layer(bench, seconds):
    bench.check_seed_matters()
    result = os.path.join(bench.dir, "traced.json")
    trace = os.path.join(bench.dir, f"trace.seed{bench.seed}.json")
    layers = os.path.join(bench.dir, "layers.json")
    start = time.perf_counter()
    run = Run([os.path.join(bench.bin, "traced_run")] + bench.args(bench.seed, [])
              + [f"--result={result}", f"--trace-events={trace}"], stdout_path=layers)
    if not bench.check(run.ok, "traced run exited non-zero"):
        return None
    with open(layers, encoding="utf-8") as f:
        metrics = json.loads(f.read().strip().splitlines()[-1])
    with open(result, encoding="utf-8") as f:
        traced_text = strip_timing(f.read())
    bench.check(bench.check_output(traced_text), "traced output fails the paper-shape check")
    runs, _ = bench.measure(seconds - (time.perf_counter() - start), first=traced_text)
    if not runs:
        return None
    metrics["trace.overhead_s"] = run.wall_s - statistics.median(r.wall_s for r in runs)
    metrics.update(fidelity(traced_text))
    log(f"spans written to {trace} (open in https://ui.perfetto.dev)")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("src/driver/pipeline.h") and os.path.isfile("BENCHMARK.json")):
        log("run from the root of a harvest checkout: src/ or BENCHMARK.json is missing")
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    bench = Bench(args.workload, args.seed, build_dir)
    bench.prepare_fleet()
    values = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    if values is None:
        log("no successful run to report")
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"metrics not produced: {missing}")
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError) as error:
        log(f"error: {error}")
        sys.exit(1)
