#!/usr/bin/env python3
"""Paper-regeneration benchmark for jsmt: end to end, then layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run builds the simulator's
`repro` binary and this benchmark's drivers from source into
$CARGO_TARGET_DIR (default `.bench_build`). Each run then
- builds every cell's machine once in a fresh process (`setup_s`);
- runs whole rounds of the workload until `--seconds` would be exceeded
  (at least one), each round in fresh child processes on a fixed load of
  two engine threads or two worker processes;
- checks the outputs (see checks.py) and prints one JSON object as the
  last line of stdout.

`--trace 1` instead runs the workload once untraced, once traced, and once
each with JSMT_NO_TRACE_TIER=1 and JSMT_NO_FASTFWD=1, re-drives cells
through `System`, runs the single-layer probes, writes the spans to
`.perfbench/traces/`, and prints the per-layer metrics. The workloads,
metrics and reference figures are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0x159A55
# A child that runs longer than this is killed with its process group.
CHILD_LIMIT_S = 150

WORKLOADS = {
    # The pairing family: 9 HT-off baselines, 81 co-runs, the prediction's
    # 9 HT-on profiles and Figure 11's 9 self-pairs, on one engine.
    "paper-grid": {"scale": 0.02, "repeats": 1, "rows": 81 + 9},
    # Table 2, Figures 1-7, 10 and 12 and the four ablations: 123
    # simulations giving 83 rows, on one engine.
    "paper-characterize": {"scale": 0.3, "repeats": 1, "rows": 83},
    # `repro --csv --workers 2 --cache-dir D pairing-suite`, cold then warm:
    # 81 rows per pass.
    "grid-workers-cache": {"scale": 0.02, "repeats": 1, "rows": 2 * 81},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "cells_per_s": "cells/s",
              "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "engine.busy_s": "s", "engine.concurrency": "x", "engine.stage_idle_s": "s",
    "engine.longest_cell_s": "s", "engine.baseline_hits": "count",
    "shard.cold_pass_s": "s", "shard.overhead_s": "s",
    "cache.warm_pass_s": "s", "cache.store_ms": "ms", "cache.lookup_ms": "ms",
    "cache.entries": "count",
    "core.setup_ms": "ms", "core.sim_mcycles_per_s.corun": "Mcycles/s",
    "core.sim_mcycles_per_s.single": "Mcycles/s", "core.sim_mcycles_per_s.mt": "Mcycles/s",
    "core.host_ns_per_uop": "ns", "core.sim_cycles": "count", "core.uops_retired": "count",
    "cpu.trace_compiled": "count", "cpu.trace_replayed_cycles": "count",
    "cpu.trace_aborts": "count", "cpu.trace_tier_cost_s": "s", "cpu.fastfwd_saving_s": "s",
    "cpu.probe_ns_per_cycle.single": "ns", "cpu.probe_ns_per_cycle.dual": "ns",
    "cpu.probe_skipped_share": "%",
    "mem.l1d_lookups": "count", "mem.l2_lookups": "count", "mem.tc_lookups": "count",
    "mem.l1d_misses": "count", "mem.l2_misses": "count", "mem.tc_misses": "count",
    "mem.probe_ns_per_access": "ns",
    "workloads.probe_ns_per_uop": "ns", "workloads.uops_generated": "count",
    "jvm.gc_count": "count", "jvm.gc_cycles": "count", "jvm.monitor_contended": "count",
    "jvm.jit_compiles": "count", "jvm.gc_probe_ns_per_uop": "ns",
    "os.context_switches": "count", "os.timer_interrupts": "count", "os.syscalls": "count",
    "os.probe_ns_per_tick": "ns",
    "trace.overhead_pct": "%",
}

# Counters summed over the re-driven cells, keyed by the redrive field.
REDRIVE_COUNTS = {
    "core.sim_cycles": "cycles", "core.uops_retired": "uops",
    "cpu.trace_compiled": "trace_compiled", "cpu.trace_replayed_cycles": "trace_replayed_cycles",
    "cpu.trace_aborts": "trace_aborts",
    "mem.l1d_lookups": "l1d_lookups", "mem.l2_lookups": "l2_lookups",
    "mem.tc_lookups": "tc_lookups", "mem.l1d_misses": "l1d_misses",
    "mem.l2_misses": "l2_misses", "mem.tc_misses": "tc_misses",
    "jvm.gc_count": "gc_count", "jvm.gc_cycles": "gc_cycles",
    "jvm.monitor_contended": "monitor_contended", "jvm.jit_compiles": "jit_compiles",
    "os.context_switches": "context_switches", "os.timer_interrupts": "timer_interrupts",
    "os.syscalls": "syscalls",
}


class Failure(Exception):
    """A step that leaves no result to print."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Tracer:
    """Spans kept in memory and written out when the run ends. Span 1 is
    the whole benchmark run; every other span names the span that caused
    it."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = [{"id": 1, "parent": 0, "name": "benchmark", "start_s": 0.0,
                       "end_s": None, "counts": {}}]

    def span(self, name, start, end, parent=1, **counts):
        sid = len(self.spans) + 1
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start_s": round(start - self.t0, 6),
                           "end_s": round(end - self.t0, 6), "counts": counts})
        return sid

    def write(self, path):
        self.spans[0]["end_s"] = round(time.perf_counter() - self.t0, 6)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(s) + "\n" for s in self.spans))


class Child:
    def __init__(self, code, wall, cpu, rss_mb, start, end):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb
        self.start, self.end = start, end


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("JSMT_")}
    env.update(extra or {})
    return env


def run_child(argv, stdout, stderr, env=None):
    """Run one child in its own process group; wall time, CPU time and
    peak RSS cover it and every descendant it waited for."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env or child_env(),
                             cwd=ROOT, start_new_session=True)
        timer = threading.Timer(CHILD_LIMIT_S, os.killpg, (p.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    return Child(p.returncode, end - start, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0, start, end)


def must(child, what, stderr):
    if child.code != 0:
        tail = Path(stderr).read_text(errors="replace")[-2000:]
        raise Failure(f"{what} exited with {child.code}:\n{tail}")
    return child


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build(traced):
    """Build `repro` and the drivers; a no-op when they are up to date."""
    packages = ["perfbench-e2e"] + (["perfbench-probes"] if traced else [])
    cmds = [["cargo", "build", "--release", "--offline", "--manifest-path",
             str(ROOT / "Cargo.toml"), "-p", "jsmt-bench", "--bin", "repro"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             str(HERE / "Cargo.toml")] + [a for p in packages for a in ("-p", p)]]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if r.returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}\n{r.stderr[-3000:]}")
    rel = target_dir() / "release"
    return {"repro": str(rel / "repro"), "e2e": str(rel / "perfbench-e2e"),
            "probes": str(rel / "perfbench-probes")}


class Run:
    """One benchmark invocation: its scratch directory and parameters."""

    def __init__(self, workload, seed, bins):
        self.w, self.seed, self.bins = workload, seed, bins
        cfg = WORKLOADS[workload]
        self.scale, self.repeats, self.rows = cfg["scale"], cfg["repeats"], cfg["rows"]
        self.dir = ROOT / ".perfbench" / "runs" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.n = 0

    def params(self):
        return ["--scale", str(self.scale), "--repeats", str(self.repeats),
                "--seed", str(self.seed)]

    def fresh(self, name):
        self.n += 1
        d = self.dir / f"{self.n:02d}-{name}"
        d.mkdir()
        return d

    def setup(self):
        d = self.fresh("setup")
        c = must(run_child([self.bins["e2e"], "setup", self.w] + self.params(),
                           d / "out.json", d / "err.txt"), "setup", d / "err.txt")
        return json.loads((d / "out.json").read_text()), c

    def round(self, name, env=None, spans=False):
        """One whole execution of the workload. Returns its directory,
        the children that ran it, and the engine spans when asked."""
        d = self.fresh(name)
        env = child_env(env)
        if self.w == "grid-workers-cache":
            kids = []
            for p in ("cold", "warm"):
                argv = [self.bins["repro"], "--csv", "--workers", "2", "--cache-dir",
                        str(d / "cache")] + self.params() + ["pairing-suite"]
                kids.append(must(run_child(argv, d / f"{p}.csv", d / f"{p}.err", env),
                                 f"repro {p} pass", d / f"{p}.err"))
                if p == "cold":
                    (d / "before.json").write_text(json.dumps(checks.snapshot_dir(d / "cache")))
            return d, kids, []
        cmd = "grid" if self.w == "paper-grid" else "characterize"
        argv = [self.bins["e2e"], cmd] + self.params() + ["--out", str(d)]
        if spans:
            argv += ["--spans", str(d / "spans.jsonl")]
        kid = must(run_child(argv, d / "stdout.txt", d / "stderr.txt", env), cmd, d / "stderr.txt")
        lines = (d / "spans.jsonl").read_text().splitlines() if spans else []
        return d, [kid], [json.loads(x) for x in lines if x]

    def redrive(self, full=False):
        d = self.fresh("redrive")
        argv = [self.bins["e2e"], "redrive", self.w] + self.params() + ["--out", str(d / "cells.jsonl")]
        c = must(run_child(argv + (["--full"] if full else []), d / "stdout.txt", d / "stderr.txt"),
                 "redrive", d / "stderr.txt")
        cells = [json.loads(x) for x in (d / "cells.jsonl").read_text().splitlines() if x]
        return cells, c


def outputs(run, d):
    """The artifacts of one round, as raw bytes by file name."""
    if run.w == "grid-workers-cache":
        return {p: (d / f"{p}.csv").read_bytes() for p in ("cold", "warm")}
    names = (["grid.csv", "fig11.csv", "pairing-suite.txt"] if run.w == "paper-grid"
             else sorted(checks.ROWS))
    return {n: (d / n).read_bytes() for n in names}


def check(run, d, redrive):
    out = outputs(run, d)
    if run.w == "grid-workers-cache":
        before = json.loads((d / "before.json").read_text())
        before = {k: tuple(v) for k, v in before.items()}
        after = checks.snapshot_dir(d / "cache")
        return checks.check_grid_workers_cache(out["cold"].decode(), out["warm"].decode(),
                                               before, after, redrive)
    parsed = {n: (b.decode() if n.endswith(".txt") else checks.read_csv(b.decode()))
              for n, b in out.items()}
    if run.w == "paper-grid":
        return checks.check_paper_grid(parsed, redrive)
    return checks.check_paper_characterize(parsed, redrive)


def delivered(run, d):
    """Result rows a round delivered (CSV data rows)."""
    return sum(len([x for x in b.decode().splitlines() if x]) - 1
               for n, b in outputs(run, d).items() if not n.endswith(".txt"))


def measure(args, bins):
    run = Run(args.workload, args.seed, bins)
    setup, _ = run.setup()
    rounds, first = [], None
    while not rounds or sum(r[1] for r in rounds) + rounds[-1][1] <= args.seconds:
        d, kids, _ = run.round(f"round{len(rounds)}")
        wall = sum(k.wall for k in kids)
        rounds.append((d, wall, sum(k.cpu for k in kids), max(k.rss_mb for k in kids),
                       delivered(run, d)))
        if first is None:
            first = d
        elif outputs(run, d) != outputs(run, first):
            raise Failure(f"round {len(rounds)} output differs from round 1 at the same seed")
    redrive, _ = run.redrive()
    fails = check(run, first, redrive)
    attempted = run.rows * len(rounds)
    failed = attempted - sum(r[4] for r in rounds)
    values = {
        "wall_s": statistics.median(r[1] for r in rounds),
        "cpu_s": statistics.median(r[2] for r in rounds),
        "cells_per_s": statistics.median(r[4] / r[1] for r in rounds),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": max(r[3] for r in rounds),
    }
    shutil.rmtree(run.dir, ignore_errors=True)
    return fails, attempted, failed, {k: (v, END_TO_END[k]) for k, v in values.items()}


def engine_metrics(eng):
    """Layer metrics of the engine from its stage accounting."""
    stages = eng["stages"]
    busy = sum(s["busy_s"] for s in stages)
    wall = sum(s["wall_s"] for s in stages)
    return {
        "engine.busy_s": busy,
        "engine.concurrency": busy / wall if wall else 0.0,
        "engine.stage_idle_s": sum(2 * s["wall_s"] - s["busy_s"] for s in stages),
        "engine.longest_cell_s": max((s["longest_s"] for s in stages), default=0.0),
        "engine.baseline_hits": eng["baseline_hits"],
    }


def traced(args, bins):
    run = Run(args.workload, args.seed, bins)
    tr = Tracer()
    fails = []
    setup, c = run.setup()
    tr.span("setup", c.start, c.end, cells=setup["cells"])
    m = {"core.setup_ms": 1e3 * setup["construct_s"] / setup["cells"]}

    rounds = {}
    for name, env in (("untraced", None), ("traced", None),
                      ("no-trace-tier", {"JSMT_NO_TRACE_TIER": "1"}),
                      ("no-fastfwd", {"JSMT_NO_FASTFWD": "1"})):
        d, kids, espans = run.round(name, env, spans=name == "traced")
        rounds[name] = (d, sum(k.wall for k in kids), kids)
        sid = tr.span(f"round-{name}", kids[0].start, kids[-1].end, cells=delivered(run, d))
        for s in espans:
            tr.span(s["name"], kids[0].start + s["start_s"], kids[0].start + s["end_s"], sid)
        for k, p in zip(kids, ("cold", "warm") if len(kids) == 2 else ()):
            tr.span(f"repro-{p}-pass", k.start, k.end, sid)
        if name != "untraced" and outputs(run, d) != outputs(run, rounds["untraced"][0]):
            fails.append(f"{name} rerun changed the workload's output bytes")
    base_d, base_wall, base_kids = rounds["untraced"]
    m["trace.overhead_pct"] = 100.0 * (rounds["traced"][1] - base_wall) / base_wall
    m["cpu.trace_tier_cost_s"] = base_wall - rounds["no-trace-tier"][1]
    m["cpu.fastfwd_saving_s"] = rounds["no-fastfwd"][1] - base_wall

    cells, c = run.redrive(full=True)
    rid = tr.span("redrive", c.start, c.end, cells=len(cells))
    t = c.start
    for cell in cells:
        end = t + cell["construct_s"] + cell["run_s"]
        tr.span(cell["label"], t, end, rid, cycles=cell["cycles"], uops=cell["uops"])
        t = end
    fails += check(run, base_d, cells)
    for metric, field in REDRIVE_COUNTS.items():
        m[metric] = sum(cell[field] for cell in cells)
    run_s = sum(cell["run_s"] for cell in cells)
    m["core.host_ns_per_uop"] = 1e9 * run_s / max(1, m["core.uops_retired"])
    for kind in ("corun", "single", "mt"):
        ks = [cell for cell in cells if cell["kind"] == kind]
        m[f"core.sim_mcycles_per_s.{kind}"] = (sum(cell["cycles"] for cell in ks)
                                               / sum(cell["run_s"] for cell in ks) / 1e6)

    probe_args = ["--dir", str(run.fresh("probe-cache"))]
    if run.w == "grid-workers-cache":
        # The in-process twin of the worker-process cold pass: the same
        # cells on one engine, for the shard overhead and the engine layer.
        d = run.fresh("in-process")
        cold, warm = base_kids
        inproc = must(run_child([bins["repro"], "--csv", "--jobs", "2"] + run.params()
                                + ["pairing-suite"], d / "grid.csv", d / "err.txt"),
                      "in-process pairing-suite", d / "err.txt")
        tr.span("in-process-pairing-suite", inproc.start, inproc.end)
        if (d / "grid.csv").read_bytes() != (base_d / "cold.csv").read_bytes():
            fails.append("worker-process grid differs from the in-process grid")
        m.update(engine_metrics(engine_from_report((d / "err.txt").read_text())))
        m["shard.cold_pass_s"] = cold.wall
        m["shard.overhead_s"] = cold.wall - m["engine.busy_s"] / 2
        m["cache.warm_pass_s"] = warm.wall
        before = json.loads((base_d / "before.json").read_text())
        m["cache.entries"] = len([n for n in before if n.endswith(".cell")])
        probe_args += ["--rows", str(base_d / "cold.csv")]
    else:
        m.update(engine_metrics(json.loads((base_d / "engine.json").read_text())))
        probe_args += ["--repro", bins["repro"]]
        probe_args += [a for n in outputs(run, base_d) if n.endswith(".csv")
                       for a in ("--rows", str(base_d / n))]

    d = run.fresh("probes")
    c = must(run_child([bins["probes"], run.w] + run.params() + probe_args,
                       d / "out.json", d / "err.txt"), "probes", d / "err.txt")
    probes = json.loads((d / "out.json").read_text())
    tr.span("probes", c.start, c.end, uops=probes["workloads.uops_generated"])
    # The real passes of grid-workers-cache replace the probe's stand-ins.
    m.update({k: v for k, v in probes.items() if k not in m})
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tr.write(ROOT / ".perfbench" / "traces" / f"{run.w}-seed{run.seed}-{stamp}.jsonl")
    failed = run.rows - delivered(run, base_d)
    shutil.rmtree(run.dir, ignore_errors=True)
    missing = sorted(set(PER_LAYER) - set(m))
    if missing:
        raise Failure(f"per-layer metrics not measured: {missing}")
    return fails, run.rows, failed, {k: (m[k], PER_LAYER[k]) for k in PER_LAYER}


def engine_from_report(stderr):
    """The engine's stage accounting from the timing report `repro` prints
    on stderr (`#   <stage> <n> jobs  busy <d>  longest <d>  wall <d> ...`)."""
    eng = {"stages": [], "baseline_hits": 0}
    for line in stderr.splitlines():
        parts = line.split()
        if len(parts) > 9 and parts[0] == "#" and parts[3] == "jobs":
            eng["stages"].append({"busy_s": duration(parts[5]), "longest_s": duration(parts[7]),
                                  "wall_s": duration(parts[9])})
        elif "baseline cache:" in line:
            eng["baseline_hits"] = int(line.split(",")[-1].split()[0])
    return eng


def duration(text):
    """Parse a Rust `Duration` debug string such as `1.26s` or `705.26ms`."""
    for suffix, scale in (("ms", 1e-3), ("µs", 1e-6), ("ns", 1e-9), ("s", 1.0)):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    raise ValueError(f"not a duration: {text}")


def seed(text):
    """A 64-bit simulator seed: decimal or 0x-prefixed hex, taken mod 2^64."""
    return int(text, 16 if text.lower().startswith("0x") else 10) % (1 << 64)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        bins = build(args.trace == 1)
        fails, attempted, failed, metrics = (traced if args.trace else measure)(args, bins)
    except Failure as e:
        log(str(e))
        return 1
    for f in fails:
        log(f"CHECK FAILED: {f}")
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
