//! The grid executor: the one driver of the §4.2 pairing grid.
//!
//! The grid is nine HT-off solo baselines (stage `solo-baselines`)
//! followed by 81 HT-on co-runs over them (stage `pair-grid`).
//! [`pair_grid`] runs both stages on either [`Transport`], and it alone
//! does the jobs around the cells:
//!
//! * it looks up every cell in the engine's persistent result cache
//!   (when one is attached) before anything is dispatched;
//! * it stores each computed cell as its result arrives, so a killed run
//!   keeps every finished cell and a rerun with the same `--cache-dir`
//!   computes only the cells it lacks;
//! * it cancels the co-runs whose baseline failed, without dispatching
//!   them;
//! * it orders the failures (solo cells, then pair cells, each by grid
//!   index) and assembles the [`SupervisedGrid`].
//!
//! A transport only computes cells, always under supervision: the
//! engine's threads run each one under [`Engine::run_supervised`] and
//! request its [`Cell`] from the engine's memo, the worker processes
//! behind `repro --workers N` simulate it under the same machinery in
//! their own address space (see [`super::shard`]). Retries, deadline
//! and backoff come from one [`SupervisorCfg`] on either transport. A
//! cell is a pure function of its inputs, so the grid is bit-identical
//! whatever the transport, the worker count, or the share of cells the
//! cache served.

use std::collections::BTreeMap;

use jsmt_cache::{Cache, CacheKey};
use jsmt_workloads::BenchmarkId;

use super::pairing::{pair_outcome, PairGrid, PairOutcome};
use super::rescache;
use super::shard::{Pool, ShardCfg};
use super::supervise::{manifest_csv, CellFailure, FailureKind, SupervisorCfg};
use super::{baseline_cycles, Cell, Engine, ExperimentCtx};
use crate::error::JsmtError;
use crate::RunReport;

/// Stage of the nine solo baselines; fault scopes and crash bundles
/// name its cells `solo-baselines/<bench>`.
pub(crate) const SOLO_STAGE: &str = "solo-baselines";
/// Stage of the 81 co-runs (`pair-grid/<a>+<b>`).
pub(crate) const PAIR_STAGE: &str = "pair-grid";

/// Where the executor computes the cells the cache does not hold.
#[derive(Debug, Clone, Copy)]
pub enum Transport<'a> {
    /// The engine's own worker threads.
    Threads,
    /// Worker processes speaking the shard protocol (`repro --workers N`).
    Processes(&'a ShardCfg),
}

/// One unit of grid work: a [`Cell`] and the value read off its report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Job {
    /// The HT-off solo baseline of one benchmark.
    Solo(BenchmarkId),
    /// The HT-on co-run of `a` with `b`, over their solo baselines.
    Pair {
        a: BenchmarkId,
        b: BenchmarkId,
        a_solo: u64,
        b_solo: u64,
    },
}

/// The computed value of a [`Job`].
#[derive(Debug, Clone)]
pub(crate) enum Value {
    /// A solo baseline, in cycles.
    Solo(u64),
    /// A co-run's outcome.
    Pair(PairOutcome),
}

impl Job {
    /// The job's label within its stage (`jess`, `compress+db`).
    pub(crate) fn label(&self) -> String {
        match self {
            Job::Solo(id) => id.name().to_string(),
            Job::Pair { a, b, .. } => format!("{}+{}", a.name(), b.name()),
        }
    }

    /// The request tail of the shard protocol: `solo <bench>` or
    /// `pair <a> <b> <a_solo> <b_solo>`.
    pub(crate) fn spec(&self) -> String {
        match self {
            Job::Solo(id) => format!("solo {}", id.name()),
            Job::Pair {
                a,
                b,
                a_solo,
                b_solo,
            } => format!("pair {} {} {a_solo} {b_solo}", a.name(), b.name()),
        }
    }

    /// Inverse of [`Job::spec`], over the request's tokens; `None` when
    /// they are malformed.
    pub(crate) fn parse(spec: &[&str]) -> Option<Job> {
        match spec {
            ["solo", name] => Some(Job::Solo(BenchmarkId::parse(name)?)),
            ["pair", a, b, a_solo, b_solo] => Some(Job::Pair {
                a: BenchmarkId::parse(a)?,
                b: BenchmarkId::parse(b)?,
                a_solo: a_solo.parse().ok()?,
                b_solo: b_solo.parse().ok()?,
            }),
            _ => None,
        }
    }

    /// The simulation the job reads its value from.
    pub(crate) fn cell(&self, ctx: &ExperimentCtx) -> Cell {
        match *self {
            Job::Solo(id) => Cell::solo_baseline(id, ctx),
            Job::Pair { a, b, .. } => Cell::corun(a, b, ctx),
        }
    }

    /// The job's value, read off its cell's report.
    pub(crate) fn value(&self, report: &RunReport) -> Value {
        match *self {
            Job::Solo(_) => Value::Solo(baseline_cycles(report)),
            Job::Pair { a_solo, b_solo, .. } => Value::Pair(pair_outcome(report, a_solo, b_solo)),
        }
    }

    /// The job's persistent-cache key: its cell's key, and for a co-run
    /// also the two baselines its speedups divide by.
    pub(crate) fn key(&self, ctx: &ExperimentCtx) -> CacheKey {
        let baselines = match *self {
            Job::Solo(_) => Vec::new(),
            Job::Pair { a_solo, b_solo, .. } => vec![a_solo, b_solo],
        };
        rescache::key(self.label(), self.cell(ctx).key(), &baselines, ctx.seed)
    }

    /// Decode value bytes (a cache entry or a worker's reply) as this
    /// job's value; `None` when they do not decode or describe another
    /// job's programs.
    pub(crate) fn decode(&self, bytes: &[u8]) -> Option<Value> {
        match *self {
            Job::Solo(_) => rescache::decode_solo(bytes).map(Value::Solo),
            Job::Pair { a, b, .. } => rescache::decode_pair(bytes)
                .filter(|o| o.a == a && o.b == b)
                .map(Value::Pair),
        }
    }
}

impl Value {
    /// The value's bytes, as cached and as sent over the shard protocol.
    pub(crate) fn encode(&self) -> Vec<u8> {
        match self {
            Value::Solo(cycles) => rescache::encode_solo(*cycles),
            Value::Pair(o) => rescache::encode_pair(o),
        }
    }
}

/// Called with each computed job as its result arrives.
pub(crate) type OnValue<'a> = dyn Fn(&Job, &Value) + Sync + 'a;

/// A pairing grid as the executor leaves it: the finished cells plus
/// the failures that exhausted their attempts. A grid with no failures
/// converts to a plain [`PairGrid`] via [`SupervisedGrid::into_grid`].
#[derive(Debug)]
pub struct SupervisedGrid {
    /// Benchmarks in row/column order.
    pub benchmarks: Vec<BenchmarkId>,
    /// Finished cells by flat index `i * n + j`.
    pub cells: BTreeMap<usize, PairOutcome>,
    /// Cells (or solo baselines) that failed, solo cells first, each
    /// stage by index.
    pub failures: Vec<CellFailure>,
}

impl SupervisedGrid {
    /// Whether every cell completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.cells.len() == self.benchmarks.len().pow(2)
    }

    /// The grid's CSV, with failed cells omitted. Its rows are
    /// byte-identical to the same rows of [`super::csv_grid`] over a
    /// complete grid, so plotting scripts need no changes for partial
    /// grids.
    pub fn csv(&self) -> String {
        super::csv_out::csv_pairs(self.cells.values())
    }

    /// The machine-readable failure manifest ([`manifest_csv`]).
    pub fn manifest_csv(&self) -> String {
        manifest_csv(&self.failures)
    }

    /// Convert a complete grid into a plain [`PairGrid`].
    ///
    /// # Panics
    ///
    /// When the grid is incomplete — check [`SupervisedGrid::is_complete`]
    /// first.
    pub fn into_grid(self) -> PairGrid {
        assert!(
            self.is_complete(),
            "cannot assemble a PairGrid from a partial grid ({} of {} cells); first failure: {}",
            self.cells.len(),
            self.benchmarks.len().pow(2),
            self.failures
                .first()
                .map_or_else(|| "none".to_string(), ToString::to_string)
        );
        let n = self.benchmarks.len();
        let mut it = self.cells.into_values();
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            outcomes.push(it.by_ref().take(n).collect());
        }
        PairGrid {
            benchmarks: self.benchmarks,
            outcomes,
        }
    }
}

/// Run the pairing grid on `transport`: the nine solo baselines, then
/// the 81 co-runs over the baselines the first stage returned. On the
/// thread transport every cell goes through the engine's memo.
///
/// A failed cell never takes the grid down: it becomes a
/// [`CellFailure`], its row is missing from the result, and the co-runs
/// over a failed baseline are cancelled (kind `cancelled`, component
/// `dependency`) without being dispatched.
///
/// # Errors
///
/// Only for transport faults: no worker process could be started, or a
/// worker broke the protocol. The thread transport never errs.
pub fn pair_grid(
    engine: &Engine,
    transport: Transport<'_>,
    ctx: &ExperimentCtx,
    cfg: &SupervisorCfg,
) -> Result<SupervisedGrid, JsmtError> {
    let benchmarks = BenchmarkId::SINGLE_THREADED.to_vec();
    let n = benchmarks.len();
    let mut exec = Executor {
        engine,
        ctx,
        cfg,
        cache: engine.result_cache(),
        pool: match transport {
            Transport::Threads => None,
            Transport::Processes(shard) => Some(Pool::new(shard)?),
        },
        failures: Vec::new(),
    };

    let solos: Vec<(usize, Job)> = benchmarks
        .iter()
        .enumerate()
        .map(|(i, &id)| (i, Job::Solo(id)))
        .collect();
    let solo: Vec<Option<u64>> = exec
        .stage(SOLO_STAGE, &solos)?
        .into_iter()
        .map(|value| match value {
            Some(Value::Solo(cycles)) => Some(cycles),
            _ => None,
        })
        .collect();

    let mut pairs: Vec<(usize, Job)> = Vec::with_capacity(n * n);
    for (i, &a) in benchmarks.iter().enumerate() {
        for (j, &b) in benchmarks.iter().enumerate() {
            let index = i * n + j;
            if let (Some(a_solo), Some(b_solo)) = (solo[i], solo[j]) {
                pairs.push((
                    index,
                    Job::Pair {
                        a,
                        b,
                        a_solo,
                        b_solo,
                    },
                ));
            } else {
                exec.failures.push(CellFailure {
                    stage: PAIR_STAGE.to_string(),
                    label: format!("{}+{}", a.name(), b.name()),
                    index,
                    kind: FailureKind::Cancelled,
                    component: "dependency".to_string(),
                    cycle: 0,
                    message: "solo baseline unavailable; pair cell not dispatched".to_string(),
                    attempts: 0,
                    backoff_ms: Vec::new(),
                    bundle: None,
                });
            }
        }
    }
    let mut cells = BTreeMap::new();
    for ((index, _), value) in pairs.iter().zip(exec.stage(PAIR_STAGE, &pairs)?) {
        if let Some(Value::Pair(o)) = value {
            cells.insert(*index, o);
        }
    }
    if let Some(pool) = exec.pool.as_mut() {
        pool.shutdown();
    }

    let mut failures = exec.failures;
    failures.sort_by_key(|f| (f.stage != SOLO_STAGE, f.index));
    Ok(SupervisedGrid {
        benchmarks,
        cells,
        failures,
    })
}

/// One grid run in progress.
struct Executor<'a> {
    engine: &'a Engine,
    ctx: &'a ExperimentCtx,
    cfg: &'a SupervisorCfg,
    cache: Option<&'a Cache>,
    /// The worker fleet when the transport is [`Transport::Processes`].
    pool: Option<Pool<'a>>,
    failures: Vec<CellFailure>,
}

impl Executor<'_> {
    /// Run one stage of `(grid index, job)` pairs: serve what the cache
    /// holds, compute the rest on the transport, and store each computed
    /// value as it arrives. Returns the jobs' values in order; a failed
    /// job's is `None` and its record joins `self.failures`.
    fn stage(
        &mut self,
        stage: &str,
        jobs: &[(usize, Job)],
    ) -> Result<Vec<Option<Value>>, JsmtError> {
        let mut values: Vec<Option<Value>> = jobs.iter().map(|(_, j)| self.lookup(j)).collect();
        let pending: Vec<(usize, Job)> = jobs
            .iter()
            .zip(&values)
            .filter(|(_, v)| v.is_none())
            .map(|(job, _)| *job)
            .collect();
        let (ctx, cache) = (self.ctx, self.cache);
        let store = |job: &Job, value: &Value| {
            if let Some(cache) = cache {
                cache.store(&job.key(ctx), &value.encode());
            }
        };
        let results = match self.pool.as_mut() {
            None => on_threads(self.engine, stage, ctx, self.cfg, &pending, &store),
            Some(pool) => pool.run_stage(self.engine, stage, ctx, self.cfg, &pending, &store)?,
        };
        let mut results = results.into_iter();
        for value in values.iter_mut().filter(|v| v.is_none()) {
            match results.next().expect("one result per dispatched cell") {
                Ok(v) => *value = Some(v),
                Err(f) => self.failures.push(f),
            }
        }
        Ok(values)
    }

    /// The job's verified cache entry, if the cache holds one. An entry
    /// that does not decode is recomputed and overwritten, the same
    /// heal-by-recompute policy the cache applies to a bad seal.
    fn lookup(&self, job: &Job) -> Option<Value> {
        let cache = self.cache?;
        let key = job.key(self.ctx);
        let value = job.decode(&cache.lookup(&key)?);
        if value.is_none() {
            eprintln!("# cache: undecodable value for {key}; recomputing");
        }
        value
    }
}

/// The thread transport: each job runs under [`Engine::run_supervised`]
/// on the engine's workers and requests its cell from the engine's memo.
fn on_threads(
    engine: &Engine,
    stage: &str,
    ctx: &ExperimentCtx,
    cfg: &SupervisorCfg,
    jobs: &[(usize, Job)],
    on_value: &OnValue<'_>,
) -> Vec<Result<Value, CellFailure>> {
    let jobs = jobs
        .iter()
        .map(|&(index, job)| (index, job.label(), job))
        .collect();
    engine.run_supervised_at(stage, cfg, ctx, jobs, |job| {
        let value = job.value(&engine.report(&job.cell(ctx)));
        on_value(job, &value);
        value
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_specs_round_trip() {
        let jobs = [
            Job::Solo(BenchmarkId::Jess),
            Job::Pair {
                a: BenchmarkId::Compress,
                b: BenchmarkId::Db,
                a_solo: 12_345,
                b_solo: 67_890,
            },
        ];
        for job in jobs {
            let spec = job.spec();
            let tokens: Vec<&str> = spec.split_whitespace().collect();
            assert_eq!(Job::parse(&tokens), Some(job), "{spec}");
        }
        assert_eq!(Job::parse(&["solo", "not-a-benchmark"]), None);
        assert_eq!(Job::parse(&["pair", "db"]), None);
        assert_eq!(Job::parse(&["pair", "db", "jess", "1", "x"]), None);
    }

    #[test]
    fn pair_values_decode_only_for_their_own_cell() {
        let o = PairOutcome {
            a: BenchmarkId::Jess,
            b: BenchmarkId::Jack,
            speedup_a: 0.7,
            speedup_b: 0.6,
            combined: 1.3,
            tc_mpki: 4.5,
            completions: (3, 4),
        };
        let bytes = Value::Pair(o).encode();
        let job = |a, b| Job::Pair {
            a,
            b,
            a_solo: 1,
            b_solo: 1,
        };
        assert!(job(BenchmarkId::Jess, BenchmarkId::Jack)
            .decode(&bytes)
            .is_some());
        assert!(job(BenchmarkId::Jack, BenchmarkId::Jess)
            .decode(&bytes)
            .is_none());
        assert!(Job::Solo(BenchmarkId::Jess).decode(&bytes).is_none());
    }
}
