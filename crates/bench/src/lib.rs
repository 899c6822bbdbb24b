//! # jsmt-bench
//!
//! The reproduction harness: the `repro` binary regenerates every table
//! and figure of the paper's evaluation, and the Criterion benches under
//! `benches/` measure the simulator's own component throughput plus each
//! experiment's cost.
//!
//! ```text
//! repro [--quick|--full] [--scale X] [--repeats N] <experiment>
//! experiments: table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!              fig10 fig11 fig12 pairing-analysis ablation-partition
//!              ablation-l1 all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;
use std::time::Duration;

use jsmt_core::bisect::{bisect_divergence, render_bisect, Variant};
use jsmt_core::experiments::{self as exp, Engine, ExperimentCtx, MpkiKind, Parallelism};
use jsmt_core::{ErrorKind, JsmtError, SystemConfig};
use jsmt_workloads::BenchmarkId;

/// All experiment names, in paper order. `pairing-suite` renders
/// Figures 8, 9 and the offline analysis from a single grid pass;
/// `bisect-divergence` is the differential-replay debugging tool.
pub const EXPERIMENTS: [&str; 22] = [
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "pairing-analysis",
    "pairing-suite",
    "pairing-prediction",
    "ablation-partition",
    "ablation-l1",
    "ablation-prefetch",
    "ablation-jit",
    "bisect-divergence",
    "litmus",
];

/// Default litmus seed-sweep width (`--seeds`): wide enough that every
/// shape exercises its contended and wait-heavy interleavings.
pub const DEFAULT_LITMUS_SEEDS: u64 = 64;

/// The experiments that run the pairing grid: the ones `--workers` and
/// `--cache-dir` apply to.
pub const GRID_EXPERIMENTS: [&str; 5] = [
    "fig8",
    "fig9",
    "pairing-analysis",
    "pairing-suite",
    "pairing-prediction",
];

/// Parameters of a `bisect-divergence` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectOpts {
    /// Variant A (default `fastfwd`).
    pub a: Variant,
    /// Variant B (default `no-fastfwd`).
    pub b: Variant,
    /// Benchmark to replay (default compress).
    pub bench: BenchmarkId,
    /// Cycles to compare before concluding "no divergence".
    pub horizon: u64,
    /// Checkpoint-compare spacing during the lockstep scan.
    pub stride: u64,
}

impl Default for BisectOpts {
    fn default() -> Self {
        BisectOpts {
            a: Variant::FastForward,
            b: Variant::NoFastForward,
            bench: BenchmarkId::Compress,
            horizon: 200_000,
            stride: 20_000,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Experiment name (one of [`EXPERIMENTS`], `all`, or
    /// `replay-crash`).
    pub experiment: String,
    /// Experiment parameters.
    pub ctx: ExperimentCtx,
    /// Emit machine-readable CSV instead of the paper-style rendering.
    pub csv: bool,
    /// Worker count from `--jobs N` (`None` = resolve from `JSMT_JOBS`
    /// or the host core count at run time).
    pub jobs: Option<usize>,
    /// `bisect-divergence` parameters.
    pub bisect: BisectOpts,
    /// Supervisor policy of every pairing-grid and litmus cell
    /// (`--retries`, `--deadline-secs`, `--livelock-cycles`,
    /// `--cell-checkpoint-every`, `--bundle-dir`, `--backoff-ms`,
    /// `--backoff-cap-ms`).
    pub supervise: exp::SupervisorCfg,
    /// `--manifest PATH`: where to write the failure-manifest CSV.
    pub manifest: Option<String>,
    /// `--faults SPEC`: fault plan to arm (overrides `JSMT_FAULTS`).
    pub faults: Option<String>,
    /// Crash-bundle path of the `replay-crash` subcommand.
    pub bundle: Option<String>,
    /// Seeds per litmus shape (`--seeds N`, litmus only).
    pub seeds: u64,
    /// `--workers N`: compute the pairing grid in N worker *processes*
    /// (`None` = on the engine's threads).
    pub workers: Option<usize>,
    /// `--cache-dir PATH`: persistent result-cache directory (overrides
    /// the `JSMT_CACHE` environment variable).
    pub cache_dir: Option<String>,
    /// `--shard-worker`: run as a shard worker serving requests on
    /// stdin (internal; spawned by the `--workers` dispatcher).
    pub shard_worker: bool,
}

impl Cli {
    /// Resolve the parallelism this invocation asked for.
    pub fn parallelism(&self) -> Parallelism {
        match self.jobs {
            Some(0) | Some(1) => Parallelism::Serial,
            Some(n) => Parallelism::Threads(n),
            None => Parallelism::from_env(),
        }
    }
}

fn cli_err(msg: impl Into<String>) -> JsmtError {
    JsmtError::new(ErrorKind::Cli, msg)
}

/// Parse arguments (without the program name).
///
/// # Errors
///
/// Returns [`ErrorKind::Cli`] on unknown flags, experiments, or
/// malformed values, and [`ErrorKind::Config`] when the experiment
/// parameters are out of range (non-finite scale, zero repeats).
pub fn parse_args(args: &[String]) -> Result<Cli, JsmtError> {
    let mut ctx = ExperimentCtx::default();
    let mut experiment: Option<String> = None;
    let mut csv = false;
    let mut jobs = None;
    let mut bisect = BisectOpts::default();
    let mut supervise = exp::SupervisorCfg::default();
    let mut manifest: Option<String> = None;
    let mut faults: Option<String> = None;
    let mut bundle: Option<String> = None;
    let mut seeds = DEFAULT_LITMUS_SEEDS;
    let mut workers: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut shard_worker = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => ctx = ExperimentCtx::quick(),
            "--full" => ctx = ExperimentCtx::full(),
            "--csv" => csv = true,
            "--shard-worker" => shard_worker = true,
            "--workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--workers needs a value"))?;
                workers = Some(
                    v.parse::<usize>()
                        .map_err(|e| cli_err(format!("bad --workers: {e}")))?
                        .max(1),
                );
            }
            "--cache-dir" => {
                cache_dir = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--cache-dir needs a path"))?
                        .clone(),
                );
            }
            "--backoff-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--backoff-ms needs a value"))?;
                supervise.backoff_base = Duration::from_millis(
                    v.parse::<u64>()
                        .map_err(|e| cli_err(format!("bad --backoff-ms: {e}")))?,
                );
            }
            "--backoff-cap-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--backoff-cap-ms needs a value"))?;
                supervise.backoff_cap = Duration::from_millis(
                    v.parse::<u64>()
                        .map_err(|e| cli_err(format!("bad --backoff-cap-ms: {e}")))?,
                );
            }
            "--jobs" => {
                let v = it.next().ok_or_else(|| cli_err("--jobs needs a value"))?;
                jobs = Some(
                    v.parse::<usize>()
                        .map_err(|e| cli_err(format!("bad --jobs: {e}")))?,
                );
            }
            "--retries" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--retries needs a value"))?;
                supervise.retries = v
                    .parse::<u32>()
                    .map_err(|e| cli_err(format!("bad --retries: {e}")))?;
            }
            "--deadline-secs" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--deadline-secs needs a value"))?;
                let secs = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --deadline-secs: {e}")))?;
                supervise.deadline = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--livelock-cycles" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--livelock-cycles needs a value"))?;
                supervise.livelock_cycles = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --livelock-cycles: {e}")))?;
            }
            "--cell-checkpoint-every" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--cell-checkpoint-every needs a value"))?;
                supervise.checkpoint_every = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --cell-checkpoint-every: {e}")))?;
            }
            "--bundle-dir" => {
                supervise.bundle_dir = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--bundle-dir needs a path"))?
                        .into(),
                );
            }
            "--manifest" => {
                manifest = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--manifest needs a path"))?
                        .clone(),
                );
            }
            "--faults" => {
                faults = Some(
                    it.next()
                        .ok_or_else(|| cli_err("--faults needs a spec"))?
                        .clone(),
                );
            }
            "--a" | "--b" => {
                let flag = arg.as_str();
                let v = it
                    .next()
                    .ok_or_else(|| cli_err(format!("{flag} needs a variant")))?;
                let variant = Variant::parse(v).ok_or_else(|| {
                    cli_err(format!(
                        "bad {flag} '{v}' (fastfwd | no-fastfwd | trace-tier | no-trace-tier | seed=N)"
                    ))
                })?;
                if flag == "--a" {
                    bisect.a = variant;
                } else {
                    bisect.b = variant;
                }
            }
            "--bench" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--bench needs a benchmark name"))?;
                bisect.bench = BenchmarkId::parse(v)
                    .ok_or_else(|| cli_err(format!("unknown benchmark '{v}'")))?;
            }
            "--horizon" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--horizon needs a value"))?;
                bisect.horizon = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --horizon: {e}")))?;
            }
            "--stride" => {
                let v = it.next().ok_or_else(|| cli_err("--stride needs a value"))?;
                bisect.stride = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --stride: {e}")))?
                    .max(1);
            }
            "--scale" => {
                let v = it.next().ok_or_else(|| cli_err("--scale needs a value"))?;
                ctx.scale = v
                    .parse::<f64>()
                    .map_err(|e| cli_err(format!("bad --scale: {e}")))?;
            }
            "--repeats" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--repeats needs a value"))?;
                ctx.repeats = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --repeats: {e}")))?;
            }
            "--seed" => {
                let v = it.next().ok_or_else(|| cli_err("--seed needs a value"))?;
                ctx.seed = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --seed: {e}")))?;
            }
            "--seeds" => {
                let v = it.next().ok_or_else(|| cli_err("--seeds needs a value"))?;
                seeds = v
                    .parse::<u64>()
                    .map_err(|e| cli_err(format!("bad --seeds: {e}")))?
                    .max(1);
            }
            name if !name.starts_with('-') => match &experiment {
                None => experiment = Some(name.to_string()),
                Some(cmd) if cmd == "replay-crash" && bundle.is_none() => {
                    bundle = Some(name.to_string());
                }
                Some(_) => return Err(cli_err(format!("unexpected extra argument: {name}"))),
            },
            other => return Err(cli_err(format!("unknown flag: {other}"))),
        }
    }
    supervise.backoff_cap = supervise.backoff_cap.max(supervise.backoff_base);
    // `--shard-worker` is a service mode: no experiment argument, and
    // no driver flags to cross-validate (the dispatcher builds the
    // worker command line itself).
    if shard_worker {
        if experiment.is_some() {
            return Err(cli_err("--shard-worker takes no experiment argument"));
        }
        if !ctx.scale.is_finite() || ctx.scale <= 0.0 || ctx.repeats == 0 {
            return Err(JsmtError::new(
                ErrorKind::Config,
                "shard worker needs a valid --scale/--repeats",
            ));
        }
        return Ok(Cli {
            experiment: "shard-worker".to_string(),
            ctx,
            csv,
            jobs,
            bisect,
            supervise,
            manifest,
            faults,
            bundle: None,
            seeds,
            workers: None,
            cache_dir,
            shard_worker: true,
        });
    }
    let experiment = experiment.ok_or_else(|| cli_err(usage()))?;
    if experiment == "replay-crash" {
        if bundle.is_none() {
            return Err(cli_err("replay-crash needs a bundle path"));
        }
    } else if experiment != "all" && !EXPERIMENTS.contains(&experiment.as_str()) {
        return Err(cli_err(format!(
            "unknown experiment '{experiment}'\n{}",
            usage()
        )));
    }
    if workers.is_some() && !GRID_EXPERIMENTS.contains(&experiment.as_str()) {
        return Err(cli_err(format!(
            "--workers only applies to the pairing-grid experiments ({})",
            GRID_EXPERIMENTS.join(" ")
        )));
    }
    if csv && experiment == "all" {
        return Err(cli_err(
            "--csv does not apply to 'all'; run each experiment with --csv instead",
        ));
    }
    if !ctx.scale.is_finite() || ctx.scale <= 0.0 {
        return Err(JsmtError::new(
            ErrorKind::Config,
            format!(
                "--scale must be a finite positive number, got {}",
                ctx.scale
            ),
        ));
    }
    if ctx.repeats == 0 {
        return Err(JsmtError::new(
            ErrorKind::Config,
            "--repeats must be at least 1",
        ));
    }
    Ok(Cli {
        experiment,
        ctx,
        csv,
        jobs,
        bisect,
        supervise,
        manifest,
        faults,
        bundle,
        seeds,
        workers,
        cache_dir,
        shard_worker: false,
    })
}

/// The usage string.
pub fn usage() -> String {
    format!(
        "usage: repro [--quick|--full] [--csv] [--scale X] [--repeats N] [--seed S] [--jobs N]\n\
         \x20            [--workers N] [--cache-dir DIR] [--retries N] [--deadline-secs N]\n\
         \x20            [--livelock-cycles N] [--cell-checkpoint-every N] [--bundle-dir DIR]\n\
         \x20            [--manifest PATH] [--faults SPEC] [--backoff-ms N] [--backoff-cap-ms N]\n\
         \x20            [--seeds N] <experiment>\n\
         \x20      repro replay-crash <bundle.crash>\n\
         experiments: {} all\n\
         --jobs N fans independent simulations over N worker threads (0/1 = serial;\n\
         default: JSMT_JOBS or all cores). Results are bit-identical at any job count.\n\
         The pairing-grid experiments ({}) and litmus run every cell under the\n\
         supervisor: a panicking, livelocked or over-deadline cell is isolated, retried\n\
         --retries times (default 1) with deterministic seeded backoff\n\
         (--backoff-ms/--backoff-cap-ms), and on final failure recorded in the --manifest\n\
         CSV with a crash-repro bundle in --bundle-dir; surviving cells render as CSV and\n\
         the run exits 3. --faults SPEC (or JSMT_FAULTS) arms the deterministic\n\
         fault-injection plan, e.g. 'panic,component=system,cycle=5000,scope=pair-grid/db+jack'.\n\
         --workers N computes the pairing grid in N worker *processes*: a worker dying\n\
         (kill, abort, OOM) loses at most its in-flight cell, which is reassigned under\n\
         the same retry policy. Output is bit-identical to a serial run at any worker count.\n\
         --cache-dir DIR (or JSMT_CACHE) attaches the persistent result cache to the\n\
         pairing grid: every finished cell is stored as it completes, content-addressed\n\
         and sealed; a rerun verifies every entry, quarantines corrupt ones (healing by\n\
         recompute), and simulates only what is missing. It is how a killed or partly\n\
         failed grid resumes: rerun the same command with the same --cache-dir.\n\
         replay-crash <bundle.crash> re-executes a recorded failure deterministically\n\
         and exits 0 when it reproduces.\n\
         litmus [--seeds N] sweeps the sync-bound litmus shapes (message passing,\n\
         store buffer, lock handoff, barrier convoy, wait/notify ping-pong) over N\n\
         seeds each (default 64) and checks every observed interleaving against the\n\
         shape's allowed-outcome table; a forbidden outcome is a failed cell.\n\
         bisect-divergence [--a V] [--b V] [--bench NAME] [--horizon N] [--stride N]\n\
         replays two variants (fastfwd | no-fastfwd | trace-tier | no-trace-tier | seed=N)\n\
         in lockstep and reports\n\
         the first cycle at which their machine states diverge.",
        EXPERIMENTS.join(" "),
        GRID_EXPERIMENTS.join(" ")
    )
}

/// Run one experiment serially and return its rendered output.
pub fn run_experiment(name: &str, ctx: &ExperimentCtx) -> String {
    run_experiment_fmt(name, ctx, false)
}

/// Run one experiment serially, rendering either the paper-style
/// artifact or CSV.
pub fn run_experiment_fmt(name: &str, ctx: &ExperimentCtx, csv: bool) -> String {
    run_experiment_on(&Engine::serial(), name, ctx, csv)
}

/// Run one experiment on `engine`, rendering either the paper-style
/// artifact or CSV. The rendered bytes are bit-identical for every
/// [`Parallelism`] setting (enforced by `tests/engine_determinism.rs`).
pub fn run_experiment_on(engine: &Engine, name: &str, ctx: &ExperimentCtx, csv: bool) -> String {
    match name {
        "table2" => {
            let pts = exp::characterize_mt_on(engine, &[2, 8], &[true], ctx);
            if csv {
                exp::csv_mt(&pts)
            } else {
                exp::render_table2(&pts)
            }
        }
        "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" => {
            let pts = exp::characterize_mt_on(engine, &[2], &[false, true], ctx);
            if csv {
                exp::csv_mt(&pts)
            } else {
                render_mt_figure(name, &pts)
            }
        }
        "fig8" | "fig9" | "pairing-analysis" | "pairing-suite" | "pairing-prediction" => {
            let grid = exp::pair_matrix_on(engine, ctx);
            render_grid_experiment(name, &grid, ctx, csv)
        }
        "bisect-divergence" => run_bisect(&BisectOpts::default(), ctx),
        "fig10" => {
            let pts = exp::fig10_single_thread_impact_on(engine, ctx);
            if csv {
                exp::csv_single(&pts)
            } else {
                exp::render_fig10(&pts)
            }
        }
        "fig11" => {
            let pts = exp::fig11_self_pairs_on(engine, ctx);
            if csv {
                let mut c = jsmt_report::Csv::new(vec!["benchmark".into(), "combined".into()]);
                for (id, v) in &pts {
                    c.row(vec![id.name().into(), format!("{v:.4}")]);
                }
                c.render()
            } else {
                exp::render_fig11(&pts)
            }
        }
        "fig12" => {
            let pts = exp::fig12_ipc_vs_threads_on(engine, &[1, 2, 4, 8, 16], ctx);
            if csv {
                exp::csv_threads(&pts)
            } else {
                exp::render_fig12(&pts)
            }
        }
        "ablation-partition" => {
            let pts = exp::ablation_partition_on(engine, ctx);
            if csv {
                exp::csv_partition(&pts)
            } else {
                exp::render_ablation_partition(&pts)
            }
        }
        "ablation-l1" => {
            let pts = exp::ablation_l1_on(engine, &[8, 16, 32, 64], ctx);
            if csv {
                exp::csv_l1(&pts)
            } else {
                exp::render_ablation_l1(&pts)
            }
        }
        "ablation-prefetch" => {
            let pts = exp::ablation_prefetch_on(engine, ctx);
            if csv {
                exp::csv_prefetch(&pts)
            } else {
                exp::render_ablation_prefetch(&pts)
            }
        }
        "ablation-jit" => {
            let pts = exp::ablation_jit_on(engine, ctx);
            if csv {
                exp::csv_jit(&pts)
            } else {
                exp::render_ablation_jit(&pts)
            }
        }
        "litmus" => {
            run_litmus(
                engine,
                ctx,
                DEFAULT_LITMUS_SEEDS,
                csv,
                &exp::SupervisorCfg::default(),
            )
            .output
        }
        other => panic!("unknown experiment {other} (validated at parse time)"),
    }
}

/// Run the litmus interleaving sweep: every shape over `seeds` seeds,
/// each cell under the supervisor. A cell whose outcome leaves its
/// allowed table is a failed cell (with a replayable crash bundle when
/// `cfg.bundle_dir` is set); surviving cells render normally. The output
/// is bit-identical at any job count, exec-tier setting, and
/// fast-forward setting.
pub fn run_litmus(
    engine: &Engine,
    ctx: &ExperimentCtx,
    seeds: u64,
    csv: bool,
    cfg: &exp::SupervisorCfg,
) -> SupervisedOutcome {
    let sl = exp::litmus_sweeps(engine, seeds, ctx, cfg);
    let manifest = exp::manifest_csv(&sl.failures);
    let output = if sl.failures.is_empty() && !csv {
        exp::render_litmus(&sl.sweeps)
    } else {
        // Partial (or machine-readable) results: surviving rows only,
        // byte-identical to the corresponding rows of a clean run.
        exp::csv_litmus(&sl.sweeps)
    };
    SupervisedOutcome {
        output,
        manifest,
        failures: sl.failures,
    }
}

/// Render one of the pairing-grid experiments from a measured grid.
pub fn render_grid_experiment(
    name: &str,
    grid: &exp::PairGrid,
    ctx: &ExperimentCtx,
    csv: bool,
) -> String {
    if csv {
        return exp::csv_grid(grid);
    }
    match name {
        "fig8" => exp::render_fig8(grid),
        "fig9" => exp::render_fig9(grid),
        "pairing-analysis" => exp::render_pairing_analysis(grid),
        "pairing-prediction" => exp::render_pairing_prediction(grid, ctx),
        _ => format!(
            "{}\n{}\n{}\n{}",
            exp::render_fig8(grid),
            exp::render_fig9(grid),
            exp::render_pairing_analysis(grid),
            exp::render_pairing_prediction(grid, ctx)
        ),
    }
}

/// Outcome of a pairing-grid or litmus run.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// Rendered experiment output: the normal rendering when every cell
    /// survived, otherwise the partial-results CSV (healthy rows only,
    /// byte-identical to the corresponding rows of a clean run).
    pub output: String,
    /// Failure manifest CSV (header only when the run was clean).
    pub manifest: String,
    /// Per-cell failure records, in grid order.
    pub failures: Vec<exp::CellFailure>,
}

/// Run a pairing-grid experiment through the grid executor on
/// `transport`: cells that panic, livelock, overrun the deadline or lose
/// their worker are retried per `cfg` and then reported in the manifest
/// instead of aborting the grid. A complete grid renders byte-identically
/// to [`run_experiment_on`] on any transport; a partial one degrades to
/// the CSV of the surviving cells.
///
/// # Errors
///
/// Returns a typed [`JsmtError`] only for transport faults (no worker
/// process could be started, a worker broke the protocol).
pub fn run_grid(
    engine: &Engine,
    transport: exp::Transport<'_>,
    name: &str,
    ctx: &ExperimentCtx,
    csv: bool,
    cfg: &exp::SupervisorCfg,
) -> Result<SupervisedOutcome, JsmtError> {
    let sg = exp::pair_grid(engine, transport, ctx, cfg)?;
    let manifest = sg.manifest_csv();
    Ok(if sg.is_complete() {
        let grid = sg.into_grid();
        SupervisedOutcome {
            output: render_grid_experiment(name, &grid, ctx, csv),
            manifest,
            failures: Vec::new(),
        }
    } else {
        // The paper-style renderings need every cell; degrade to the
        // machine-readable partial CSV so surviving work is not lost.
        SupervisedOutcome {
            output: sg.csv(),
            manifest,
            failures: sg.failures,
        }
    })
}

/// Resolve the persistent result-cache directory: the `--cache-dir`
/// flag wins over the `JSMT_CACHE` environment variable; neither means
/// no cache.
///
/// # Errors
///
/// Returns a typed [`JsmtError`] when the directory cannot be created.
pub fn resolve_cache(
    flag: Option<&str>,
) -> Result<Option<std::sync::Arc<jsmt_cache::Cache>>, JsmtError> {
    let dir = flag
        .map(str::to_string)
        .or_else(|| std::env::var("JSMT_CACHE").ok().filter(|s| !s.is_empty()));
    match dir {
        Some(dir) => {
            let cache = jsmt_cache::Cache::open(&dir)
                .map_err(|e| JsmtError::from(e).context(format!("opening result cache '{dir}'")))?;
            Ok(Some(std::sync::Arc::new(cache)))
        }
        None => Ok(None),
    }
}

/// The worker fleet for `--workers N`: this binary in `--shard-worker`
/// mode with the same context and fault plan.
///
/// # Errors
///
/// Returns a typed [`JsmtError`] when the current executable path
/// cannot be determined.
pub fn shard_cfg(cli: &Cli) -> Result<exp::ShardCfg, JsmtError> {
    let exe = std::env::current_exe()
        .map_err(|e| JsmtError::from(e).context("locating the worker binary"))?;
    let mut argv = vec![
        exe.display().to_string(),
        "--shard-worker".to_string(),
        "--scale".to_string(),
        cli.ctx.scale.to_string(),
        "--repeats".to_string(),
        cli.ctx.repeats.to_string(),
        "--seed".to_string(),
        cli.ctx.seed.to_string(),
        "--livelock-cycles".to_string(),
        cli.supervise.livelock_cycles.to_string(),
    ];
    // Workers arm the same fault plan as the parent (flag beats env,
    // like the parent's own resolution).
    if let Some(spec) = cli
        .faults
        .clone()
        .or_else(|| std::env::var("JSMT_FAULTS").ok().filter(|s| !s.is_empty()))
    {
        argv.push("--faults".to_string());
        argv.push(spec);
    }
    Ok(exp::ShardCfg {
        workers: cli.workers.unwrap_or(2),
        worker_argv: argv,
    })
}

/// Replay a crash-repro bundle and render a human-readable report.
/// Returns the report text and whether the recorded failure reproduced.
///
/// # Errors
///
/// Returns a typed [`JsmtError`] when the bundle cannot be read,
/// decoded, or describes a cell this binary cannot reconstruct.
pub fn run_replay_crash(path: &Path) -> Result<(String, bool), JsmtError> {
    let bundle = exp::CrashBundle::load(path)?;
    let mut out = bundle.summary();
    let report = bundle.replay()?;
    match &report.observed {
        Some(f) => {
            out.push_str(&format!("replay observed: {f}\n"));
        }
        None => out.push_str("replay observed: cell completed without failing\n"),
    }
    out.push_str(if report.reproduced {
        "verdict: REPRODUCED\n"
    } else {
        "verdict: NOT REPRODUCED\n"
    });
    Ok((out, report.reproduced))
}

/// Run the differential-replay bisection with the paper machine as the
/// base configuration.
pub fn run_bisect(opts: &BisectOpts, ctx: &ExperimentCtx) -> String {
    let base = SystemConfig::p4(true).with_seed(ctx.seed);
    match bisect_divergence(
        opts.bench,
        ctx.scale,
        base,
        opts.a,
        opts.b,
        opts.horizon,
        opts.stride,
    ) {
        Ok(outcome) => render_bisect(&outcome),
        Err(e) => format!("bisect failed: {e}\n"),
    }
}

/// Render one of the shared-data multithreaded figures from
/// already-measured points (used by `all` to avoid re-running).
pub fn render_mt_figure(name: &str, pts: &[exp::MtPoint]) -> String {
    match name {
        "fig1" => exp::render_fig1(pts),
        "fig2" => exp::render_fig2(pts),
        "fig3" => exp::render_fig_mpki(pts, MpkiKind::TraceCache),
        "fig4" => exp::render_fig_mpki(pts, MpkiKind::L1d),
        "fig5" => exp::render_fig_mpki(pts, MpkiKind::L2),
        "fig6" => exp::render_fig_mpki(pts, MpkiKind::Itlb),
        "fig7" => exp::render_fig_mpki(pts, MpkiKind::BtbRatio),
        other => panic!("not a shared multithreaded figure: {other}"),
    }
}

/// Run every experiment serially, sharing measurement passes where the
/// paper's figures share data.
pub fn run_all(ctx: &ExperimentCtx) -> String {
    run_all_on(&Engine::serial(), ctx)
}

/// Run every experiment on `engine`, sharing measurement passes where
/// the paper's figures share data (and solo baselines across the
/// pairing grid and Figure 11 via the engine's cache).
pub fn run_all_on(engine: &Engine, ctx: &ExperimentCtx) -> String {
    let mut out = String::new();
    let mut emit = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };

    // Table 2 (2 and 8 threads, HT on).
    emit(run_experiment_on(engine, "table2", ctx, false));
    // Figures 1-7 share one characterization pass.
    let pts = exp::characterize_mt_on(engine, &[2], &[false, true], ctx);
    for fig in ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"] {
        emit(render_mt_figure(fig, &pts));
    }
    // Figures 8-9 + offline analysis share the pairing grid.
    let grid = exp::pair_matrix_on(engine, ctx);
    emit(exp::render_fig8(&grid));
    emit(exp::render_fig9(&grid));
    emit(exp::render_pairing_analysis(&grid));
    emit(exp::render_pairing_prediction(&grid, ctx));
    // The rest.
    emit(run_experiment_on(engine, "fig10", ctx, false));
    emit(run_experiment_on(engine, "fig11", ctx, false));
    emit(run_experiment_on(engine, "fig12", ctx, false));
    emit(run_experiment_on(engine, "ablation-partition", ctx, false));
    emit(run_experiment_on(engine, "ablation-l1", ctx, false));
    emit(run_experiment_on(engine, "ablation-prefetch", ctx, false));
    emit(run_experiment_on(engine, "ablation-jit", ctx, false));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_experiment_and_flags() {
        let cli = parse_args(&s(&["--quick", "fig3"])).unwrap();
        assert_eq!(cli.experiment, "fig3");
        assert_eq!(cli.ctx, ExperimentCtx::quick());

        let cli = parse_args(&s(&["--scale", "0.7", "--repeats", "9", "table2"])).unwrap();
        assert_eq!(cli.ctx.scale, 0.7);
        assert_eq!(cli.ctx.repeats, 9);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&s(&["fig99"])).is_err());
        assert!(parse_args(&s(&["--scale"])).is_err());
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["--bogus", "fig1"])).is_err());
        assert!(parse_args(&s(&["fig1", "fig2"])).is_err());
    }

    #[test]
    fn jobs_flag_maps_to_parallelism() {
        let cli = parse_args(&s(&["--jobs", "4", "fig1"])).unwrap();
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.parallelism(), Parallelism::Threads(4));
        // 0 and 1 both mean serial.
        for v in ["0", "1"] {
            let cli = parse_args(&s(&["--jobs", v, "fig1"])).unwrap();
            assert_eq!(cli.parallelism(), Parallelism::Serial);
        }
        assert!(parse_args(&s(&["--jobs", "x", "fig1"])).is_err());
        assert!(parse_args(&s(&["--jobs"])).is_err());
    }

    #[test]
    fn all_is_accepted() {
        let cli = parse_args(&s(&["all"])).unwrap();
        assert_eq!(cli.experiment, "all");
    }

    #[test]
    fn removed_modes_and_csv_all_are_rejected() {
        // One executor, with the result cache as its only persistence:
        // the flags of the old execution modes are unknown now.
        for flags in [
            &["--supervised"][..],
            &["--checkpoint", "grid.ck"],
            &["--resume", "grid.ck"],
            &["--checkpoint-every", "3"],
        ] {
            let mut args = s(flags);
            args.push("fig8".into());
            let err = parse_args(&args).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Cli, "{flags:?}");
        }
        // `all` has no CSV form: refuse instead of ignoring the flag.
        let err = parse_args(&s(&["--csv", "all"])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cli);
        assert!(parse_args(&s(&["all", "--csv"])).is_err());
    }

    #[test]
    fn bisect_flags_parse() {
        let cli = parse_args(&s(&["bisect-divergence"])).unwrap();
        assert_eq!(cli.bisect, BisectOpts::default());

        let cli = parse_args(&s(&[
            "--a",
            "seed=3",
            "--b",
            "seed=4",
            "--bench",
            "jess",
            "--horizon",
            "9000",
            "--stride",
            "100",
            "bisect-divergence",
        ]))
        .unwrap();
        assert_eq!(cli.bisect.a, Variant::Seed(3));
        assert_eq!(cli.bisect.b, Variant::Seed(4));
        assert_eq!(cli.bisect.bench, BenchmarkId::Jess);
        assert_eq!(cli.bisect.horizon, 9000);
        assert_eq!(cli.bisect.stride, 100);

        assert!(parse_args(&s(&["--a", "bogus", "bisect-divergence"])).is_err());
        assert!(parse_args(&s(&["--bench", "nosuch", "bisect-divergence"])).is_err());
    }

    #[test]
    fn every_experiment_name_is_routable() {
        for e in EXPERIMENTS {
            assert!(parse_args(&s(&[e])).is_ok(), "{e}");
        }
    }

    #[test]
    fn supervised_flags_parse() {
        let cli = parse_args(&s(&[
            "--retries",
            "2",
            "--deadline-secs",
            "30",
            "--livelock-cycles",
            "500000",
            "--cell-checkpoint-every",
            "10000",
            "--bundle-dir",
            "crashes",
            "--manifest",
            "failures.csv",
            "--faults",
            "panic,component=gc,cycle=100",
            "fig8",
        ]))
        .unwrap();
        assert_eq!(cli.supervise.retries, 2);
        assert_eq!(cli.supervise.deadline, Some(Duration::from_secs(30)));
        assert_eq!(cli.supervise.livelock_cycles, 500_000);
        assert_eq!(cli.supervise.checkpoint_every, 10_000);
        assert_eq!(cli.supervise.bundle_dir, Some("crashes".into()));
        assert_eq!(cli.manifest.as_deref(), Some("failures.csv"));
        assert_eq!(cli.faults.as_deref(), Some("panic,component=gc,cycle=100"));
        // No deadline unless one is asked for.
        assert_eq!(parse_args(&s(&["fig8"])).unwrap().supervise.deadline, None);
    }

    #[test]
    fn shard_and_cache_flags_parse() {
        let cli = parse_args(&s(&[
            "--workers",
            "4",
            "--cache-dir",
            "cells",
            "--retries",
            "2",
            "--backoff-ms",
            "10",
            "--backoff-cap-ms",
            "80",
            "fig8",
        ]))
        .unwrap();
        assert_eq!(cli.workers, Some(4));
        assert_eq!(cli.cache_dir.as_deref(), Some("cells"));
        assert!(!cli.shard_worker);
        assert_eq!(cli.supervise.retries, 2);
        assert_eq!(cli.supervise.backoff_base, Duration::from_millis(10));
        assert_eq!(cli.supervise.backoff_cap, Duration::from_millis(80));
        let scfg = shard_cfg(&cli).unwrap();
        assert_eq!(scfg.workers, 4);
        assert!(scfg.worker_argv.contains(&"--shard-worker".to_string()));
        assert!(scfg.worker_argv.contains(&"--seed".to_string()));
        // Workers never open the cache: the executor in the parent owns it.
        assert!(!scfg.worker_argv.contains(&"--cache-dir".to_string()));

        // Zero workers clamps to one; garbage is rejected.
        assert_eq!(
            parse_args(&s(&["--workers", "0", "fig8"])).unwrap().workers,
            Some(1)
        );
        assert!(parse_args(&s(&["--workers", "x", "fig8"])).is_err());
        // Worker processes are a transport of the pairing grid only.
        assert!(parse_args(&s(&["--workers", "2", "fig1"])).is_err());
        assert!(parse_args(&s(&["--workers", "2", "litmus"])).is_err());

        // A cap below the base is raised to it.
        let cli = parse_args(&s(&[
            "--backoff-ms",
            "50",
            "--backoff-cap-ms",
            "10",
            "fig8",
        ]))
        .unwrap();
        assert_eq!(cli.supervise.backoff_cap, Duration::from_millis(50));
    }

    #[test]
    fn shard_worker_mode_parses_standalone() {
        let cli = parse_args(&s(&[
            "--shard-worker",
            "--scale",
            "0.05",
            "--repeats",
            "3",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(cli.shard_worker);
        assert_eq!(cli.ctx.scale, 0.05);
        assert_eq!(cli.ctx.seed, 7);
        // No experiment argument is accepted in worker mode.
        assert!(parse_args(&s(&["--shard-worker", "fig8"])).is_err());
        assert!(parse_args(&s(&["--shard-worker", "--scale", "0"])).is_err());
    }

    #[test]
    fn litmus_flags_parse() {
        let cli = parse_args(&s(&["litmus"])).unwrap();
        assert_eq!(cli.experiment, "litmus");
        assert_eq!(cli.seeds, DEFAULT_LITMUS_SEEDS);

        let cli = parse_args(&s(&["--seeds", "12", "litmus"])).unwrap();
        assert_eq!(cli.seeds, 12);
        // Zero is clamped to one, garbage rejected.
        assert_eq!(
            parse_args(&s(&["--seeds", "0", "litmus"])).unwrap().seeds,
            1
        );
        assert!(parse_args(&s(&["--seeds", "x", "litmus"])).is_err());
        assert!(parse_args(&s(&["--seeds"])).is_err());

        // The supervisor's flags apply to the litmus sweep.
        let cli = parse_args(&s(&["--retries", "0", "--manifest", "m.csv", "litmus"])).unwrap();
        assert_eq!(cli.supervise.retries, 0);
        assert_eq!(cli.manifest.as_deref(), Some("m.csv"));
    }

    #[test]
    fn replay_crash_takes_a_bundle_path() {
        let cli = parse_args(&s(&["replay-crash", "crashes/pair-grid-db+jack.crash"])).unwrap();
        assert_eq!(cli.experiment, "replay-crash");
        assert_eq!(
            cli.bundle.as_deref(),
            Some("crashes/pair-grid-db+jack.crash")
        );
        // The bundle path is mandatory, and only one is accepted.
        assert!(parse_args(&s(&["replay-crash"])).is_err());
        assert!(parse_args(&s(&["replay-crash", "a.crash", "b.crash"])).is_err());
    }

    #[test]
    fn out_of_range_parameters_are_config_errors() {
        for bad in [
            &["--scale", "0", "fig1"][..],
            &["--scale", "-1.5", "fig1"],
            &["--scale", "inf", "fig1"],
            &["--scale", "NaN", "fig1"],
            &["--repeats", "0", "fig1"],
        ] {
            let err = parse_args(&s(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Config, "{bad:?}");
        }
        // Unknown flags stay CLI errors.
        let err = parse_args(&s(&["--bogus", "fig1"])).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cli);
    }
}
