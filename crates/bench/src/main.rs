//! The `repro` binary: regenerate any table or figure of the paper.
//!
//! Exit codes: 0 = success, 1 = runtime error (or a `replay-crash`
//! that did not reproduce), 2 = usage error, 3 = a pairing-grid or
//! litmus run completed with failed cells (partial results were
//! emitted).

use jsmt_bench::{
    parse_args, resolve_cache, run_all_on, run_bisect, run_experiment_on, run_grid, run_litmus,
    run_replay_crash, shard_cfg, usage, Cli, GRID_EXPERIMENTS,
};
use jsmt_core::experiments::{Engine, Transport};
use jsmt_core::JsmtError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    match run(&cli) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Arm the fault plan requested by `--faults` or `JSMT_FAULTS` (flag
/// wins). Returns whether a plan is active.
fn arm_faults(cli: &Cli) -> Result<bool, JsmtError> {
    let spec = cli
        .faults
        .clone()
        .or_else(|| std::env::var("JSMT_FAULTS").ok().filter(|s| !s.is_empty()));
    match spec {
        Some(spec) => {
            jsmt_faults::install_spec(&spec).map_err(|e| {
                JsmtError::new(
                    jsmt_core::ErrorKind::Config,
                    format!("bad fault spec {spec:?}: {e}"),
                )
            })?;
            eprintln!("# jsmt repro: fault plan armed: {spec}");
            Ok(true)
        }
        None => Ok(false),
    }
}

fn run(cli: &Cli) -> Result<i32, JsmtError> {
    if cli.experiment == "replay-crash" {
        let path = cli.bundle.as_deref().expect("validated at parse time");
        let (report, reproduced) = run_replay_crash(std::path::Path::new(path))?;
        print!("{report}");
        return Ok(if reproduced { 0 } else { 1 });
    }

    if cli.shard_worker {
        // Service mode: arm faults, serve shard requests on stdin until
        // the dispatcher says exit.
        arm_faults(cli)?;
        jsmt_core::experiments::shard_worker_main(&cli.ctx, cli.supervise.livelock_cycles)?;
        return Ok(0);
    }

    let faults_armed = arm_faults(cli)?;
    let mut engine = Engine::new(cli.parallelism());
    // The persistent result cache serves the pairing grid on either
    // transport; other experiments have no cacheable cells yet.
    let grid = GRID_EXPERIMENTS.contains(&cli.experiment.as_str());
    let cache = if grid {
        resolve_cache(cli.cache_dir.as_deref())?
    } else {
        None
    };
    if let Some(cache) = &cache {
        engine.set_result_cache(std::sync::Arc::clone(cache));
    }
    eprintln!(
        "# jsmt repro: experiment={} scale={} repeats={} seed={:#x} parallelism={:?}",
        cli.experiment,
        cli.ctx.scale,
        cli.ctx.repeats,
        cli.ctx.seed,
        engine.parallelism()
    );

    let mut exit = 0;
    let out = if cli.experiment == "all" {
        run_all_on(&engine, &cli.ctx)
    } else if cli.experiment == "bisect-divergence" {
        run_bisect(&cli.bisect, &cli.ctx)
    } else if grid || cli.experiment == "litmus" {
        let outcome = if grid {
            let shard = cli.workers.map(|_| shard_cfg(cli)).transpose()?;
            let transport = match &shard {
                Some(shard) => {
                    eprintln!(
                        "# jsmt repro: dispatching over {} worker process(es)",
                        shard.workers
                    );
                    Transport::Processes(shard)
                }
                None => Transport::Threads,
            };
            run_grid(
                &engine,
                transport,
                &cli.experiment,
                &cli.ctx,
                cli.csv,
                &cli.supervise,
            )?
        } else {
            run_litmus(&engine, &cli.ctx, cli.seeds, cli.csv, &cli.supervise)
        };
        if let Some(path) = &cli.manifest {
            std::fs::write(path, &outcome.manifest).map_err(|e| {
                JsmtError::from(e).context(format!("writing failure manifest '{path}'"))
            })?;
        }
        for f in &outcome.failures {
            eprintln!("# cell failed: {f}");
        }
        if !outcome.failures.is_empty() {
            eprintln!(
                "# jsmt repro: {} cell(s) failed; emitting partial results",
                outcome.failures.len()
            );
            exit = 3;
        }
        outcome.output
    } else {
        run_experiment_on(&engine, &cli.experiment, &cli.ctx, cli.csv)
    };
    println!("{out}");
    // Per-stage timing + baseline-cache stats, so the --jobs speedup is
    // observable without external tooling.
    eprint!("{}", engine.timing_report());
    // Cache hit/miss/store/quarantine accounting. The executor does
    // every lookup and store in this process, whatever the transport.
    if let Some(cache) = &cache {
        eprintln!("{}", cache.report());
    }
    if faults_armed {
        jsmt_faults::clear();
    }
    Ok(exit)
}
