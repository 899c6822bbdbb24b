//! The parallel experiment engine.
//!
//! Every figure in the paper is a grid of *independent* whole-system
//! simulations (the 9×9 pairing matrix, the ablation sweeps, the
//! IPC-vs-thread-count curves). Each simulation is a [`Cell`], a pure
//! function of its value, so the grid can be fanned across a worker pool
//! with **no effect on the results**: the engine collects outputs by job
//! index, which makes the assembled result independent of worker
//! scheduling and therefore bit-identical to a serial run (enforced by
//! `tests/engine_determinism.rs`).
//!
//! The engine also keeps one memo of cells ([`Engine::report`]): a cell
//! several artifacts request (Table 2's rows and Figure 12's, the grid's
//! diagonal and Figure 11) is simulated exactly once per engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use jsmt_workloads::BenchmarkId;

use super::{baseline_cycles, Cell, ExperimentCtx};
use crate::RunReport;

/// How an experiment's independent jobs are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run jobs one after another on the calling thread.
    Serial,
    /// Fan jobs across a fixed pool of `n` worker threads.
    Threads(usize),
}

impl Parallelism {
    /// The default for the `repro` CLI: `JSMT_JOBS` if set (0 or 1 means
    /// serial), otherwise one worker per available core. An unparseable
    /// `JSMT_JOBS` is *not* silently swallowed: it warns on stderr and
    /// falls back to the core count, so a typo degrades loudly instead
    /// of mysteriously changing the worker count.
    pub fn from_env() -> Self {
        let parsed = match std::env::var("JSMT_JOBS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) => Some(n),
                Err(_) => {
                    eprintln!(
                        "warning: JSMT_JOBS={v:?} is not a number of workers; \
                         using one worker per available core"
                    );
                    None
                }
            },
            Err(_) => None,
        };
        match parsed {
            Some(0) | Some(1) => Parallelism::Serial,
            Some(n) => Parallelism::Threads(n),
            None => Parallelism::Threads(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        }
    }

    /// Number of worker threads this setting uses.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Wall-clock cost of one job, for the CLI's speedup report.
#[derive(Debug, Clone)]
pub struct JobTiming {
    /// Stage the job belongs to (e.g. `"pair-grid"`).
    pub stage: String,
    /// Index of the job within its stage's submission order.
    pub index: usize,
    /// Time spent computing the job.
    pub elapsed: Duration,
}

/// Aggregated timing of one `Engine::run` call.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Stage label.
    pub stage: String,
    /// Number of jobs in the stage.
    pub jobs: usize,
    /// Sum of per-job compute time (serial-equivalent cost).
    pub busy: Duration,
    /// Longest single job.
    pub longest: Duration,
    /// Wall-clock time of the whole stage.
    pub wall: Duration,
}

impl StageTiming {
    /// Mean number of jobs in flight (`busy / wall`). On an idle
    /// multi-core host this approximates the speedup over serial; under
    /// CPU contention per-job elapsed time includes preemption, so it
    /// overstates it — compare `wall` across `--jobs` settings for a
    /// true speedup measurement.
    pub fn concurrency(&self) -> f64 {
        self.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Request statistics of the engine's cell memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Cell requests.
    pub lookups: u64,
    /// Requests that simulated their cell (the first request per cell).
    pub misses: u64,
}

impl MemoStats {
    /// Requests answered from the memo.
    pub fn hits(&self) -> u64 {
        self.lookups - self.misses
    }
}

/// A memo slot: filled once with the cell's report.
type Slot = Arc<OnceLock<Arc<RunReport>>>;

/// Finished cells. Concurrent first requests for a cell serialize on its
/// slot's [`OnceLock`], so it is simulated once however many workers race
/// for it. Cells are found by key and compared whole, so two cells whose
/// keys collide still get a slot each.
#[derive(Default)]
struct Memo {
    slots: Mutex<HashMap<u64, Vec<(Cell, Slot)>>>,
    lookups: AtomicU64,
    misses: AtomicU64,
}

impl Memo {
    fn report(&self, cell: &Cell) -> Arc<RunReport> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let key = cell.key();
        let slot = {
            let mut slots = self.slots.lock().expect("cell memo poisoned");
            let bucket = slots.entry(key).or_default();
            match bucket.iter().find(|(c, _)| c == cell) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    bucket.push((cell.clone(), Arc::clone(&slot)));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            Arc::new(cell.simulate())
        }))
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The deterministic job-runner shared by every experiment driver.
pub struct Engine {
    par: Parallelism,
    memo: Memo,
    /// Optional persistent result cache (`--cache-dir` / `JSMT_CACHE`),
    /// consulted and filled by the grid executor.
    result_cache: Option<Arc<jsmt_cache::Cache>>,
    job_timings: Mutex<Vec<JobTiming>>,
    stage_timings: Mutex<Vec<StageTiming>>,
}

impl Engine {
    /// An engine with the given parallelism.
    pub fn new(par: Parallelism) -> Self {
        Engine {
            par,
            memo: Memo::default(),
            result_cache: None,
            job_timings: Mutex::new(Vec::new()),
            stage_timings: Mutex::new(Vec::new()),
        }
    }

    /// A strictly serial engine (the reference execution order).
    pub fn serial() -> Self {
        Engine::new(Parallelism::Serial)
    }

    /// An engine configured from `JSMT_JOBS` / the host core count.
    pub fn from_env() -> Self {
        Engine::new(Parallelism::from_env())
    }

    /// The engine's parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Attach a persistent result cache: the grid executor
    /// ([`super::pair_grid`]) looks every cell up there before dispatch
    /// and stores each computed one. A cached cell is byte-identical to a
    /// simulated one, so attaching a cache never changes output.
    pub fn set_result_cache(&mut self, cache: Arc<jsmt_cache::Cache>) {
        self.result_cache = Some(cache);
    }

    /// The attached persistent result cache, if any.
    pub fn result_cache(&self) -> Option<&jsmt_cache::Cache> {
        self.result_cache.as_deref()
    }

    /// Run one stage of independent jobs and return their outputs in
    /// submission order, regardless of worker scheduling.
    ///
    /// `f` must be a pure function of its job (all jsmt simulations
    /// are); under that contract the output vector is bit-identical for
    /// every [`Parallelism`] setting.
    pub fn run<I, O, F>(&self, stage: &str, jobs: Vec<I>, f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        let stage_start = Instant::now();
        let n = jobs.len();
        let workers = self.par.workers().min(n.max(1));
        let mut elapsed = vec![Duration::ZERO; n];
        let mut out: Vec<Option<O>> = Vec::with_capacity(n);

        if workers <= 1 {
            for (index, job) in jobs.iter().enumerate() {
                let t0 = Instant::now();
                out.push(Some(f(job)));
                elapsed[index] = t0.elapsed();
            }
        } else {
            out.extend((0..n).map(|_| None));
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Duration, O)>();
            let jobs = &jobs;
            let f = &f;
            let next = &next;
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let t0 = Instant::now();
                        let result = f(&jobs[index]);
                        if tx.send((index, t0.elapsed(), result)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (index, took, result) in rx {
                    out[index] = Some(result);
                    elapsed[index] = took;
                }
            });
        }

        self.record_stage(stage, stage_start, &elapsed);
        out.into_iter()
            .map(|o| o.expect("every job index was collected"))
            .collect()
    }

    /// Record a stage that started at `start`, with each job's time in job
    /// order: both transports account their stages here.
    pub(crate) fn record_stage(&self, stage: &str, start: Instant, elapsed: &[Duration]) {
        self.job_timings
            .lock()
            .expect("timings poisoned")
            .extend(
                elapsed
                    .iter()
                    .enumerate()
                    .map(|(index, &elapsed)| JobTiming {
                        stage: stage.into(),
                        index,
                        elapsed,
                    }),
            );
        self.stage_timings
            .lock()
            .expect("timings poisoned")
            .push(StageTiming {
                stage: stage.into(),
                jobs: elapsed.len(),
                busy: elapsed.iter().sum(),
                longest: elapsed.iter().copied().max().unwrap_or_default(),
                wall: start.elapsed(),
            });
    }

    /// The report of `cell`: simulated on the calling thread at the first
    /// request, served from the memo at every later one.
    pub fn report(&self, cell: &Cell) -> Arc<RunReport> {
        self.memo.report(cell)
    }

    /// [`super::solo_baseline_cycles`] as a projection of the memoized
    /// [`Cell::solo_baseline`].
    pub fn solo_baseline(&self, id: BenchmarkId, ctx: &ExperimentCtx) -> u64 {
        baseline_cycles(&self.report(&Cell::solo_baseline(id, ctx)))
    }

    /// Cell-memo statistics so far (the name predates the memo; it counts
    /// every cell request).
    pub fn baseline_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Per-job timings accumulated so far (submission order per stage).
    pub fn job_timings(&self) -> Vec<JobTiming> {
        self.job_timings.lock().expect("timings poisoned").clone()
    }

    /// Per-stage timing summaries accumulated so far.
    pub fn stage_timings(&self) -> Vec<StageTiming> {
        self.stage_timings.lock().expect("timings poisoned").clone()
    }

    /// Human-readable timing report for the CLI (one line per stage).
    pub fn timing_report(&self) -> String {
        let stages = self.stage_timings();
        if stages.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "# engine: {:?} ({} workers)\n",
            self.par,
            self.par.workers()
        );
        for s in &stages {
            out.push_str(&format!(
                "#   {:<16} {:>4} jobs  busy {:>8.2?}  longest {:>8.2?}  wall {:>8.2?}  concurrency {:.2}x\n",
                s.stage, s.jobs, s.busy, s.longest, s.wall, s.concurrency()
            ));
        }
        let b = self.baseline_stats();
        if b.lookups > 0 {
            out.push_str(&format!(
                "#   baseline cache: {} lookups, {} simulated, {} hits\n",
                b.lookups,
                b.misses,
                b.hits()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_follow_submission_order_not_schedule() {
        let jobs: Vec<u64> = (0..64).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(8),
        ] {
            let engine = Engine::new(par);
            let got = engine.run("square", jobs.clone(), |&x| {
                // Make early jobs finish last so collection order and
                // submission order disagree under parallelism.
                if x < 8 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                x * x
            });
            assert_eq!(
                got,
                jobs.iter().map(|x| x * x).collect::<Vec<_>>(),
                "{par:?}"
            );
        }
    }

    #[test]
    fn empty_stage_is_fine() {
        let engine = Engine::new(Parallelism::Threads(4));
        let got: Vec<u64> = engine.run("empty", Vec::<u64>::new(), |&x| x);
        assert!(got.is_empty());
        assert_eq!(engine.stage_timings()[0].jobs, 0);
    }

    #[test]
    fn parallelism_workers_floor_at_one() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
    }

    fn ctx() -> ExperimentCtx {
        ExperimentCtx {
            scale: 0.01,
            repeats: 2,
            seed: 7,
        }
    }

    #[test]
    fn baseline_cache_hits_and_misses_are_counted() {
        let ctx = ctx();
        let engine = Engine::serial();
        let a = engine.solo_baseline(BenchmarkId::Compress, &ctx);
        let b = engine.solo_baseline(BenchmarkId::Compress, &ctx);
        assert_eq!(a, b);
        assert_eq!(
            engine.baseline_stats(),
            MemoStats {
                lookups: 2,
                misses: 1
            }
        );
        // A different cell is a fresh miss…
        engine.solo_baseline(BenchmarkId::Db, &ctx);
        assert_eq!(engine.baseline_stats().misses, 2);
        // …and so is a different scale…
        let ctx2 = ExperimentCtx { scale: 0.02, ..ctx };
        engine.solo_baseline(BenchmarkId::Compress, &ctx2);
        // …while the same cell requested as a cell is a hit.
        let report = engine.report(&Cell::solo_baseline(BenchmarkId::Db, &ctx));
        assert_eq!(
            baseline_cycles(&report),
            engine.solo_baseline(BenchmarkId::Db, &ctx)
        );
        let s = engine.baseline_stats();
        assert_eq!((s.lookups, s.misses, s.hits()), (6, 3, 3));
    }

    #[test]
    fn cached_baseline_equals_uncached() {
        let ctx = ctx();
        let engine = Engine::new(Parallelism::Threads(4));
        let cells = vec![
            Cell::solo_baseline(BenchmarkId::Compress, &ctx),
            Cell::solo_baseline(BenchmarkId::Db, &ctx),
        ];
        let reports = engine.run("solo-baselines", cells.clone(), |cell| engine.report(cell));
        for (cell, report) in cells.iter().zip(&reports) {
            let direct = cell.simulate();
            assert_eq!(report.cycles, direct.cycles);
            assert_eq!(report.bank, direct.bank);
        }
        assert_eq!(
            engine.solo_baseline(BenchmarkId::Compress, &ctx),
            super::super::solo_baseline_cycles(BenchmarkId::Compress, &ctx)
        );
        assert_eq!(engine.baseline_stats().misses, 2);
    }

    #[test]
    fn concurrent_requests_simulate_once_per_key() {
        let ctx = ctx();
        let engine = Engine::new(Parallelism::Threads(8));
        // 32 jobs all demanding the same two cells: the per-cell
        // OnceLock must collapse them to one simulation each.
        let jobs: Vec<usize> = (0..32).collect();
        let vals = engine.run("hammer", jobs, |&i| {
            let id = if i % 2 == 0 {
                BenchmarkId::Compress
            } else {
                BenchmarkId::Db
            };
            engine.solo_baseline(id, &ctx)
        });
        assert!(vals.iter().step_by(2).all(|&v| v == vals[0]));
        assert!(vals.iter().skip(1).step_by(2).all(|&v| v == vals[1]));
        let s = engine.baseline_stats();
        assert_eq!(s.lookups, 32);
        assert_eq!(s.misses, 2, "each distinct cell simulated exactly once");
    }

    #[test]
    fn jsmt_jobs_parsing() {
        // from_env reads the real environment; exercise the mapping via
        // the documented contract instead of mutating the process env.
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        let p = Parallelism::from_env();
        assert!(p.workers() >= 1);
    }
}
