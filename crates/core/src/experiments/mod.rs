//! Experiment drivers: one module per group of tables/figures.
//!
//! Every driver is a pure function of an [`ExperimentCtx`] (scale,
//! repetition count, seed): it lists the [`Cell`]s it measures, requests
//! their reports from an [`Engine`], and derives structured points from
//! them. Each has a `render_*` companion that prints the paper-style
//! table/figure. The `repro` binary in `jsmt-bench` is a thin CLI over
//! these functions.

mod ablations;
mod bundle;
mod cell;
mod csv_out;
mod engine;
mod grid;
mod litmus;
mod mt;
mod pairing;
mod rescache;
mod shard;
mod single;
pub mod supervise;
mod threadcount;

pub use ablations::{
    ablation_jit_on, ablation_l1_on, ablation_partition_on, ablation_prefetch_on,
    render_ablation_jit, render_ablation_l1, render_ablation_partition, render_ablation_prefetch,
    JitPoint, L1Point, PartitionPoint, PrefetchPoint,
};
pub use bundle::{CrashBundle, ReplayReport, KIND_BUNDLE};
pub use cell::{Cell, Launch};
pub use csv_out::{
    csv_grid, csv_jit, csv_l1, csv_litmus, csv_mt, csv_partition, csv_prefetch, csv_single,
    csv_threads,
};
pub use engine::{Engine, JobTiming, MemoStats, Parallelism, StageTiming};
pub use grid::{pair_grid, SupervisedGrid, Transport};
pub use litmus::{
    allowed_outcomes, check_label, forbidden_example, litmus_cell, litmus_sweeps, render_litmus,
    LitmusPoint, LitmusSweep, SupervisedLitmus, LITMUS_CORRUPT_TARGET,
};
pub use mt::{
    characterize_mt_on, gc_cycle_fraction, render_fig1, render_fig2, render_fig_mpki,
    render_table2, MpkiKind, MtPoint,
};
pub use pairing::{
    pair_matrix_on, pairing_analysis, pairing_prediction, render_fig8, render_fig9,
    render_pairing_analysis, render_pairing_prediction, run_pair, tc_misses, PairGrid, PairOutcome,
    PairingAnalysis, PairingPrediction,
};
pub use shard::{shard_worker_main, ShardCfg};
pub use single::{
    fig10_single_thread_impact_on, fig11_self_pairs_on, render_fig10, render_fig11, SinglePoint,
};
pub use supervise::{backoff_schedule, manifest_csv, CellFailure, FailureKind, SupervisorCfg};
pub use threadcount::{fig12_ipc_vs_threads_on, render_fig12, ThreadPoint};

use crate::{RunReport, SystemConfig};
use jsmt_workloads::{BenchmarkId, WorkloadSpec};

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentCtx {
    /// Workload scale factor (1.0 = the scaled paper inputs).
    pub scale: f64,
    /// Minimum completed executions per program in multiprogrammed runs
    /// (the paper repeats each benchmark at least 12 times and drops the
    /// first and last).
    pub repeats: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        ExperimentCtx {
            scale: 0.3,
            repeats: 6,
            seed: 0x15_9A55,
        }
    }
}

impl ExperimentCtx {
    /// A fast smoke-test configuration (used by unit tests and
    /// `repro --quick`).
    pub fn quick() -> Self {
        ExperimentCtx {
            scale: 0.05,
            repeats: 3,
            seed: 0x15_9A55,
        }
    }

    /// The paper-faithful configuration (`repro --full`): full scaled
    /// inputs and the paper's 12-repetition rule.
    pub fn full() -> Self {
        ExperimentCtx {
            scale: 1.0,
            repeats: 12,
            seed: 0x15_9A55,
        }
    }

    /// The paper's machine with Hyper-Threading `ht`, under this
    /// context's seed.
    pub fn machine(&self, ht: bool) -> SystemConfig {
        SystemConfig::p4(ht).with_seed(self.seed)
    }

    /// `threads` threads of `id` at this context's scale.
    pub fn workload(&self, id: BenchmarkId, threads: usize) -> WorkloadSpec {
        WorkloadSpec::threaded(id, threads).with_scale(self.scale)
    }
}

/// Solo execution time (cycles) of a single-threaded benchmark on the
/// HT-disabled machine — the `A_S`/`B_S` baseline in the paper's combined
/// speedup definition.
///
/// Measured with the same re-launch-and-trim methodology as the co-runs
/// (repeat, drop first and last, average): the paper's wall-clock runs
/// are long enough that JVM/cache warm-up is negligible, but at
/// simulation scale the cold first execution would otherwise bias every
/// speedup upward.
pub fn solo_baseline_cycles(id: BenchmarkId, ctx: &ExperimentCtx) -> u64 {
    baseline_cycles(&Cell::solo_baseline(id, ctx).simulate())
}

/// The trimmed mean execution time a [`Cell::solo_baseline`] measures.
pub(crate) fn baseline_cycles(report: &RunReport) -> u64 {
    report.processes[0].mean_duration().round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_run_completes() {
        let ctx = ExperimentCtx::quick();
        let cold = Cell::once(ctx.machine(false), ctx.workload(BenchmarkId::Mpegaudio, 1));
        let r = cold.simulate();
        assert_eq!(r.processes[0].completions, 1);
        let warm = solo_baseline_cycles(BenchmarkId::Mpegaudio, &ctx);
        assert!(warm > 0);
        assert!(
            warm <= r.cycles,
            "warm baseline ({warm}) should not exceed the cold run ({})",
            r.cycles
        );
    }
}
