//! End-to-end driver of the paper-regeneration benchmark.
//!
//! Runs one workload of the paper suite through the simulator's own entry
//! points: the library dispatcher that `repro` calls, on one shared
//! [`Engine`] with two worker threads, the way `repro all` shares it. The
//! artifacts are written as CSV for the benchmark's output checks. Two
//! side commands use only `System`'s constructors and run methods: `setup`
//! builds every cell's machine once (the workload's set-up cost), and
//! `redrive` re-simulates sampled cells so the checks have a path that is
//! independent of the drivers being measured.
//!
//! ```text
//! perfbench-e2e grid|characterize --scale S --repeats R --seed N --out DIR [--spans FILE]
//! perfbench-e2e setup WORKLOAD    --scale S --repeats R --seed N
//! perfbench-e2e redrive WORKLOAD  --scale S --repeats R --seed N --out FILE [--full]
//! ```
//!
//! `WORKLOAD` is `paper-grid`, `paper-characterize` or `grid-workers-cache`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use jsmt_bench::{render_grid_experiment, run_experiment_on};
use jsmt_core::experiments::{self as exp, Engine, ExperimentCtx, Parallelism};
use jsmt_core::{RunReport, System, SystemConfig};
use jsmt_cpu::Partition;
use jsmt_mem::MemConfig;
use jsmt_perfmon::Event;
use jsmt_workloads::{jvm_config_for, BenchmarkId, WorkloadSpec};

/// Engine threads: the benchmark's load is fixed, whatever the host.
const JOBS: usize = 2;

/// The artifacts of `paper-characterize`, in `repro all` order.
const CHARACTERIZE: [&str; 8] = [
    "table2",
    "fig1",
    "fig10",
    "fig12",
    "ablation-partition",
    "ablation-l1",
    "ablation-prefetch",
    "ablation-jit",
];

struct Args {
    cmd: String,
    workload: Option<String>,
    ctx: ExperimentCtx,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    full: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command")?;
    let mut args = Args {
        cmd,
        workload: None,
        ctx: ExperimentCtx::default(),
        out: None,
        spans: None,
        full: false,
    };
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--scale" => args.ctx.scale = value(&a)?.parse().map_err(|e| format!("{e}"))?,
            "--repeats" => args.ctx.repeats = value(&a)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.ctx.seed = value(&a)?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = Some(value(&a)?.into()),
            "--spans" => args.spans = Some(value(&a)?.into()),
            "--full" => args.full = true,
            w if !w.starts_with('-') && args.workload.is_none() => args.workload = Some(w.into()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(args)
}

/// Spans around the driver calls, kept in memory and written out when the
/// run ends.
struct Spans {
    t0: Instant,
    lines: Vec<String>,
}

impl Spans {
    fn time<T>(spans: &mut Option<Spans>, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        if let Some(s) = spans {
            let begin = start.duration_since(s.t0).as_secs_f64();
            let end = s.t0.elapsed().as_secs_f64();
            s.lines.push(format!(
                "{{\"name\":\"{name}\",\"parent\":\"workload\",\"start_s\":{begin:.6},\"end_s\":{end:.6}}}"
            ));
        }
        out
    }
}

fn write(path: PathBuf, text: &str) {
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("perfbench-e2e: writing {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The engine's own accounting: per-stage busy, longest and wall time,
/// plus the memoized-baseline statistics.
fn engine_json(engine: &Engine) -> String {
    let mut out = String::from("{\"stages\":[");
    for (i, s) in engine.stage_timings().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stage\":\"{}\",\"jobs\":{},\"busy_s\":{:.6},\"longest_s\":{:.6},\"wall_s\":{:.6}}}",
            s.stage,
            s.jobs,
            s.busy.as_secs_f64(),
            s.longest.as_secs_f64(),
            s.wall.as_secs_f64()
        );
    }
    out.push_str("],\"jobs\":[");
    for (i, j) in engine.job_timings().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[\"{}\",{},{:.6}]",
            j.stage,
            j.index,
            j.elapsed.as_secs_f64()
        );
    }
    let b = engine.baseline_stats();
    let _ = write!(
        out,
        "],\"baseline_lookups\":{},\"baseline_hits\":{}}}",
        b.lookups,
        b.hits()
    );
    out
}

/// `paper-grid`: the pairing family on one engine, as `repro all` runs it —
/// one grid pass renders Figures 8 and 9, the §4.2 analysis and the
/// prediction extension, then Figure 11 reuses the engine's baselines.
fn run_grid(args: &Args, out: &std::path::Path, spans: &mut Option<Spans>) {
    let engine = Engine::new(Parallelism::Threads(JOBS));
    let ctx = &args.ctx;
    let (text, csv) = Spans::time(spans, "pairing-suite", || {
        let grid = exp::pair_matrix_on(&engine, ctx);
        (
            render_grid_experiment("pairing-suite", &grid, ctx, false),
            exp::csv_grid(&grid),
        )
    });
    let fig11 = Spans::time(spans, "fig11", || {
        run_experiment_on(&engine, "fig11", ctx, true)
    });
    write(out.join("pairing-suite.txt"), &text);
    write(out.join("grid.csv"), &csv);
    write(out.join("fig11.csv"), &fig11);
    write(out.join("engine.json"), &engine_json(&engine));
}

/// `paper-characterize`: the rest of `repro all` on one engine.
fn run_characterize(args: &Args, out: &std::path::Path, spans: &mut Option<Spans>) {
    let engine = Engine::new(Parallelism::Threads(JOBS));
    for name in CHARACTERIZE {
        let csv = Spans::time(spans, name, || {
            run_experiment_on(&engine, name, &args.ctx, true)
        });
        write(out.join(format!("{name}.csv")), &csv);
    }
    write(out.join("engine.json"), &engine_json(&engine));
}

/// One simulation of a workload: a machine configuration, the processes
/// added to it, and the stopping rule of the driver that runs it.
struct Cell {
    label: String,
    cfg: SystemConfig,
    specs: Vec<WorkloadSpec>,
    relaunch: bool,
    background_jit: Option<bool>,
    /// Completions every process must reach (1 = run to completion).
    completions: u64,
}

impl Cell {
    fn run(label: String, cfg: SystemConfig, spec: WorkloadSpec) -> Cell {
        Cell {
            label,
            cfg,
            specs: vec![spec],
            relaunch: false,
            background_jit: None,
            completions: 1,
        }
    }

    /// The HT-off relaunch baseline the pairing speedups divide by.
    fn solo(id: BenchmarkId, ctx: &ExperimentCtx) -> Cell {
        Cell {
            label: format!("solo/{}", id.name()),
            cfg: SystemConfig::p4(false).with_seed(ctx.seed),
            specs: vec![WorkloadSpec::single(id).with_scale(ctx.scale)],
            relaunch: true,
            background_jit: None,
            completions: ctx.repeats.min(4) + 2,
        }
    }

    /// An HT-on co-run of `a` and `b`, both relaunching.
    fn pair(a: BenchmarkId, b: BenchmarkId, ctx: &ExperimentCtx) -> Cell {
        Cell {
            label: format!("pair/{}+{}", a.name(), b.name()),
            cfg: SystemConfig::p4(true).with_seed(ctx.seed),
            specs: vec![
                WorkloadSpec::single(a).with_scale(ctx.scale),
                WorkloadSpec::single(b).with_scale(ctx.scale),
            ],
            relaunch: true,
            background_jit: None,
            completions: ctx.repeats + 2,
        }
    }

    fn kind(&self) -> &'static str {
        if self.specs.len() > 1 {
            "corun"
        } else if self.specs[0].threads > 1 {
            "mt"
        } else {
            "single"
        }
    }

    fn build(&self) -> System {
        let mut sys = System::new(self.cfg);
        for &spec in &self.specs {
            match self.background_jit {
                Some(bg) => {
                    sys.add_process_with_jvm(spec, jvm_config_for(spec.id).with_background_jit(bg));
                }
                None if self.relaunch => {
                    sys.add_relaunching_process(spec);
                }
                None => {
                    sys.add_process(spec);
                }
            }
        }
        sys
    }
}

fn p4(ht: bool, ctx: &ExperimentCtx) -> SystemConfig {
    SystemConfig::p4(ht).with_seed(ctx.seed)
}

fn single(id: BenchmarkId, threads: usize, ctx: &ExperimentCtx) -> WorkloadSpec {
    WorkloadSpec::threaded(id, threads).with_scale(ctx.scale)
}

/// Every cell the pairing family simulates: the nine HT-off baselines,
/// the 81 co-runs, and (for `paper-grid`) the prediction's HT-on solo
/// profiles and Figure 11's self-pairs.
fn grid_cells(ctx: &ExperimentCtx, whole_family: bool) -> Vec<Cell> {
    let ids = BenchmarkId::SINGLE_THREADED;
    let mut cells: Vec<Cell> = ids.iter().map(|&id| Cell::solo(id, ctx)).collect();
    for &a in &ids {
        for &b in &ids {
            cells.push(Cell::pair(a, b, ctx));
        }
    }
    if whole_family {
        for &id in &ids {
            let label = format!("predict/{}", id.name());
            cells.push(Cell::run(label, p4(true, ctx), single(id, 1, ctx)));
        }
        for &id in &ids {
            cells.push(Cell::pair(id, id, ctx));
        }
    }
    cells
}

/// Every cell of `paper-characterize`, artifact by artifact, with the
/// configuration its driver builds.
fn characterize_cells(ctx: &ExperimentCtx) -> Vec<Cell> {
    let mt = BenchmarkId::MULTITHREADED;
    let st = BenchmarkId::SINGLE_THREADED;
    let mut cells = Vec::new();
    let mt_cell = |cells: &mut Vec<Cell>, art: &str, id: BenchmarkId, t: usize, cfg| {
        let label = format!("{art}/{}/{t}", id.name());
        cells.push(Cell::run(label, cfg, single(id, t, ctx)));
    };
    for &id in &mt {
        for t in [2, 8] {
            mt_cell(&mut cells, "table2", id, t, p4(true, ctx));
        }
    }
    for &id in &mt {
        for ht in [false, true] {
            mt_cell(&mut cells, "fig1", id, 2, p4(ht, ctx));
        }
    }
    for &id in &st {
        for ht in [false, true] {
            let label = format!("fig10/{}/ht={ht}", id.name());
            cells.push(Cell::run(label, p4(ht, ctx), single(id, 1, ctx)));
        }
    }
    for &id in &mt {
        for t in [1, 2, 4, 8, 16] {
            mt_cell(&mut cells, "fig12", id, t, p4(true, ctx));
        }
    }
    for &id in &st {
        let dynamic = p4(true, ctx).with_partition(Partition::Dynamic);
        for (name, cfg) in [
            ("off", p4(false, ctx)),
            ("static", p4(true, ctx)),
            ("dynamic", dynamic),
        ] {
            let label = format!("partition/{}/{name}", id.name());
            cells.push(Cell::run(label, cfg, single(id, 1, ctx)));
        }
    }
    for &id in &mt {
        for kib in [8, 16, 32, 64] {
            let cfg = p4(true, ctx).with_mem(MemConfig::p4(true).with_l1d_kib(kib));
            mt_cell(&mut cells, &format!("l1-{kib}k"), id, 2, cfg);
        }
    }
    for &id in &mt {
        for prefetch in [false, true] {
            let cfg = p4(true, ctx).with_mem(MemConfig::p4(true).with_l2_prefetch(prefetch));
            mt_cell(&mut cells, &format!("prefetch-{prefetch}"), id, 2, cfg);
        }
    }
    for &id in &st {
        for bg in [false, true] {
            let mut cell = Cell::run(
                format!("jit/{}/bg={bg}", id.name()),
                p4(true, ctx),
                single(id, 1, ctx),
            );
            cell.background_jit = Some(bg);
            cells.push(cell);
        }
    }
    cells
}

fn workload_cells(workload: &str, ctx: &ExperimentCtx) -> Vec<Cell> {
    match workload {
        "paper-grid" => grid_cells(ctx, true),
        "grid-workers-cache" => grid_cells(ctx, false),
        "paper-characterize" => characterize_cells(ctx),
        other => {
            eprintln!("perfbench-e2e: unknown workload {other}");
            std::process::exit(2);
        }
    }
}

/// Build every cell's machine once, timing `System::new` plus the process
/// additions, and report the set-up cost.
fn run_setup(workload: &str, ctx: &ExperimentCtx, main_start: Instant) {
    let cells = workload_cells(workload, ctx);
    let mut construct = 0.0;
    for cell in &cells {
        let t = Instant::now();
        let sys = cell.build();
        construct += t.elapsed().as_secs_f64();
        drop(sys);
    }
    println!(
        "{{\"setup_s\":{:.6},\"construct_s\":{construct:.6},\"cells\":{}}}",
        main_start.elapsed().as_secs_f64(),
        cells.len()
    );
}

/// Deterministic sample of `k` distinct items from `n`, drawn from `seed`.
fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut picked = Vec::new();
    while picked.len() < k.min(n) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = ((state >> 33) % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// The paper's execution-time rule, computed here from the raw completion
/// cycles: per-execution durations, dropping the first and the last.
fn trimmed_mean(report: &RunReport, proc: usize) -> f64 {
    let cycles = &report.processes[proc].completion_cycles;
    let mut prev = 0;
    let durations: Vec<u64> = cycles
        .iter()
        .map(|&c| {
            let d = c - prev;
            prev = c;
            d
        })
        .collect();
    let kept = if durations.len() >= 3 {
        &durations[1..durations.len() - 1]
    } else {
        &durations[..]
    };
    kept.iter().sum::<u64>() as f64 / kept.len() as f64
}

/// Re-simulate one cell through `System` and describe it as a JSON object;
/// `extra` appends fields computed from the cell's report.
fn redrive_cell(cell: &Cell, extra: impl FnOnce(&RunReport) -> String) -> (String, RunReport) {
    let t = Instant::now();
    let mut sys = cell.build();
    let construct = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = sys.run_until_completions(cell.completions);
    let run = t.elapsed().as_secs_f64();
    let tr = sys.trace_stats();
    let b = &report.bank;
    let ev = |e: Event| b.total(e);
    let mut json = format!(
        "{{\"label\":\"{}\",\"kind\":\"{}\",\"construct_s\":{construct:.6},\"run_s\":{run:.6},\
         \"cycles\":{},\"instructions\":{},\"uops\":{},\"retire\":[{},{},{},{}],\
         \"trace_compiled\":{},\"trace_replayed_cycles\":{},\"trace_aborts\":{},",
        cell.label,
        cell.kind(),
        report.cycles,
        report.metrics.instructions,
        ev(Event::UopsRetired),
        ev(Event::CyclesRetire0),
        ev(Event::CyclesRetire1),
        ev(Event::CyclesRetire2),
        ev(Event::CyclesRetire3),
        tr.compiled,
        tr.replayed_cycles,
        tr.aborts,
    );
    for (name, e) in [
        ("l1d_lookups", Event::L1dLookups),
        ("l2_lookups", Event::L2Lookups),
        ("tc_lookups", Event::TcLookups),
        ("l1d_misses", Event::L1dMisses),
        ("l2_misses", Event::L2Misses),
        ("tc_misses", Event::TcMisses),
        ("gc_cycles", Event::GcCycles),
        ("monitor_contended", Event::MonitorContended),
        ("context_switches", Event::ContextSwitches),
        ("timer_interrupts", Event::TimerInterrupts),
        ("syscalls", Event::Syscalls),
    ] {
        let _ = write!(json, "\"{name}\":{},", ev(e));
    }
    let gc: u64 = report.processes.iter().map(|p| p.gc_count).sum();
    let jit: u64 = report.processes.iter().map(|p| p.compiles_done).sum();
    let _ = write!(
        json,
        "\"gc_count\":{gc},\"jit_compiles\":{jit}{}}}",
        extra(&report)
    );
    (json, report)
}

/// Re-drive the workload's check cells (and with `full`, the per-layer
/// sample) through `System`, writing one JSON object per line.
fn run_redrive(workload: &str, ctx: &ExperimentCtx, full: bool) -> String {
    let mut lines = Vec::new();
    match workload {
        "paper-grid" | "grid-workers-cache" => {
            // Two co-runs sampled among the eight programs other than
            // MolDyn, whose floor of two timesteps makes it the slowest.
            let ids: Vec<BenchmarkId> = BenchmarkId::SINGLE_THREADED
                .into_iter()
                .filter(|&id| id != BenchmarkId::MolDyn)
                .collect();
            let n = ids.len();
            let mut solos = std::collections::BTreeMap::new();
            let mut solo = |id: BenchmarkId, lines: &mut Vec<String>| -> u64 {
                *solos.entry(id).or_insert_with(|| {
                    let (json, report) = redrive_cell(&Cell::solo(id, ctx), |_| String::new());
                    lines.push(json);
                    trimmed_mean(&report, 0).round() as u64
                })
            };
            if full {
                for id in BenchmarkId::SINGLE_THREADED {
                    solo(id, &mut lines);
                }
            }
            for k in sample(ctx.seed, n * (n - 1), 2) {
                let a = ids[k / (n - 1)];
                let mut j = k % (n - 1);
                if j >= k / (n - 1) {
                    j += 1;
                }
                let b = ids[j];
                let (a_solo, b_solo) = (solo(a, &mut lines), solo(b, &mut lines));
                let recompute = |report: &RunReport| {
                    let sa = a_solo as f64 / trimmed_mean(report, 0);
                    let sb = b_solo as f64 / trimmed_mean(report, 1);
                    format!(
                        ",\"check\":\"pair\",\"a\":\"{}\",\"b\":\"{}\",\"speedup_a\":\"{sa:.4}\",\
                         \"speedup_b\":\"{sb:.4}\",\"combined\":\"{:.4}\"",
                        a.name(),
                        b.name(),
                        sa + sb
                    )
                };
                lines.push(redrive_cell(&Cell::pair(a, b, ctx), recompute).0);
            }
            if full {
                let mt = Cell::run(
                    "mt/MonteCarlo/2".into(),
                    p4(true, ctx),
                    single(BenchmarkId::MonteCarlo, 2, ctx),
                );
                lines.push(redrive_cell(&mt, |_| String::new()).0);
            }
        }
        "paper-characterize" => {
            let st = BenchmarkId::SINGLE_THREADED;
            let mt = BenchmarkId::MULTITHREADED;
            let singles: Vec<BenchmarkId> = if full {
                st.to_vec()
            } else {
                sample(ctx.seed, st.len(), 1)
                    .into_iter()
                    .map(|i| st[i])
                    .collect()
            };
            for id in singles {
                for ht in [false, true] {
                    let cell = Cell::run(
                        format!("fig10/{}/ht={ht}", id.name()),
                        p4(ht, ctx),
                        single(id, 1, ctx),
                    );
                    let extra = format!(
                        ",\"check\":\"fig10\",\"benchmark\":\"{}\",\"ht\":{ht}",
                        id.name()
                    );
                    lines.push(redrive_cell(&cell, |_| extra).0);
                }
            }
            let mt_cells: Vec<(BenchmarkId, usize, bool)> = if full {
                mt.iter()
                    .flat_map(|&id| [(id, 2, false), (id, 2, true), (id, 8, true)])
                    .collect()
            } else {
                let i = sample(ctx.seed ^ 1, mt.len(), 1)[0];
                vec![(mt[i], 2, true)]
            };
            for (id, t, ht) in mt_cells {
                let cell = Cell::run(
                    format!("mt/{}/{t}/ht={ht}", id.name()),
                    p4(ht, ctx),
                    single(id, t, ctx),
                );
                let extra = format!(
                    ",\"check\":\"mt\",\"benchmark\":\"{}\",\"threads\":{t},\"ht\":{ht}",
                    id.name()
                );
                lines.push(redrive_cell(&cell, |_| extra).0);
            }
            if full {
                for id in st {
                    let mut cell = Cell::run(
                        format!("jit/{}/bg=true", id.name()),
                        p4(true, ctx),
                        single(id, 1, ctx),
                    );
                    cell.background_jit = Some(true);
                    lines.push(redrive_cell(&cell, |_| String::new()).0);
                }
                let pair = Cell::pair(BenchmarkId::Compress, BenchmarkId::Db, ctx);
                lines.push(redrive_cell(&pair, |_| String::new()).0);
            }
        }
        other => {
            eprintln!("perfbench-e2e: unknown workload {other}");
            std::process::exit(2);
        }
    }
    lines.join("\n") + "\n"
}

fn main() {
    let main_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            std::process::exit(2);
        }
    };
    let out = || {
        args.out.clone().unwrap_or_else(|| {
            eprintln!("perfbench-e2e: --out is required");
            std::process::exit(2);
        })
    };
    let workload = || {
        args.workload.clone().unwrap_or_else(|| {
            eprintln!("perfbench-e2e: missing workload");
            std::process::exit(2);
        })
    };
    let mut spans = args.spans.as_ref().map(|_| Spans {
        t0: main_start,
        lines: Vec::new(),
    });
    match args.cmd.as_str() {
        "grid" => run_grid(&args, &out(), &mut spans),
        "characterize" => run_characterize(&args, &out(), &mut spans),
        "setup" => run_setup(&workload(), &args.ctx, main_start),
        "redrive" => write(out(), &run_redrive(&workload(), &args.ctx, args.full)),
        other => {
            eprintln!("perfbench-e2e: unknown command {other}");
            std::process::exit(2);
        }
    }
    if let (Some(path), Some(s)) = (&args.spans, spans) {
        write(path.clone(), &(s.lines.join("\n") + "\n"));
    }
}
