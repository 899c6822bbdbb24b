//! Design-choice ablations motivated by the paper's discussion:
//!
//! * **Dynamic partitioning** (§4.3): "The hardware solution is to allow
//!   the resources to be shared dynamically instead of partitioning them
//!   statically" — we run Figure 10's workloads under that proposal.
//! * **Larger L1** (§1): "incorporating larger L1 cache may be effective
//!   to alleviate memory latency" — we sweep the L1D size under the
//!   multithreaded workloads.

use jsmt_cpu::Partition;
use jsmt_mem::MemConfig;
use jsmt_report::Table;
use jsmt_stats::pct_change;
use jsmt_workloads::{jvm_config_for, BenchmarkId};

use super::{Cell, Engine, ExperimentCtx};

/// One benchmark under the three partitioning regimes.
#[derive(Debug, Clone, Copy)]
pub struct PartitionPoint {
    /// The benchmark (run single-threaded, HT on).
    pub id: BenchmarkId,
    /// Execution time with HT disabled (the no-SMT baseline).
    pub cycles_ht_off: u64,
    /// Execution time under the P4's static partition.
    pub cycles_static: u64,
    /// Execution time under the paper's proposed dynamic partition.
    pub cycles_dynamic: u64,
}

/// The §4.3 ablation on `engine`: each single-threaded benchmark under
/// the three partitioning regimes, one cell each.
pub fn ablation_partition_on(engine: &Engine, ctx: &ExperimentCtx) -> Vec<PartitionPoint> {
    let ids = BenchmarkId::SINGLE_THREADED;
    let regimes = [
        ctx.machine(false),
        ctx.machine(true),
        ctx.machine(true).with_partition(Partition::Dynamic),
    ];
    let cells = ids
        .iter()
        .flat_map(|&id| regimes.map(|cfg| Cell::once(cfg, ctx.workload(id, 1))))
        .collect();
    let reports = engine.run("ablation-partition", cells, |cell| engine.report(cell));
    ids.iter()
        .zip(reports.chunks(3))
        .map(|(&id, r)| PartitionPoint {
            id,
            cycles_ht_off: r[0].cycles,
            cycles_static: r[1].cycles,
            cycles_dynamic: r[2].cycles,
        })
        .collect()
}

/// Render the partitioning ablation.
pub fn render_ablation_partition(points: &[PartitionPoint]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "HT-off".into(),
        "HT-on static".into(),
        "HT-on dynamic".into(),
        "static vs off".into(),
        "dynamic vs off".into(),
    ])
    .with_title("Ablation (§4.3): static vs. dynamic resource partitioning, single-threaded");
    for p in points {
        t.row(vec![
            p.id.name().to_string(),
            format!("{}", p.cycles_ht_off),
            format!("{}", p.cycles_static),
            format!("{}", p.cycles_dynamic),
            format!(
                "{:+.2}%",
                pct_change(p.cycles_ht_off as f64, p.cycles_static as f64)
            ),
            format!(
                "{:+.2}%",
                pct_change(p.cycles_ht_off as f64, p.cycles_dynamic as f64)
            ),
        ]);
    }
    t.render()
}

/// One benchmark at one L1D size.
#[derive(Debug, Clone, Copy)]
pub struct L1Point {
    /// The benchmark (2 threads, HT on).
    pub id: BenchmarkId,
    /// L1D capacity in KiB.
    pub l1d_kib: usize,
    /// Machine IPC.
    pub ipc: f64,
    /// L1D misses per kilo-instruction.
    pub l1d_mpki: f64,
}

/// The §1 larger-L1 ablation on `engine`: the multithreaded benchmarks
/// (2 threads, HT on) at each L1D size, one cell per
/// `(benchmark, L1D size)`.
pub fn ablation_l1_on(engine: &Engine, sizes_kib: &[usize], ctx: &ExperimentCtx) -> Vec<L1Point> {
    let points: Vec<(BenchmarkId, usize)> = BenchmarkId::MULTITHREADED
        .iter()
        .flat_map(|&id| sizes_kib.iter().map(move |&kib| (id, kib)))
        .collect();
    engine.run("ablation-l1", points, |&(id, l1d_kib)| {
        let mem = MemConfig::p4(true).with_l1d_kib(l1d_kib);
        let r = engine.report(&Cell::once(
            ctx.machine(true).with_mem(mem),
            ctx.workload(id, 2),
        ));
        L1Point {
            id,
            l1d_kib,
            ipc: r.metrics.ipc,
            l1d_mpki: r.metrics.l1d_mpki,
        }
    })
}

/// Render the L1 ablation.
pub fn render_ablation_l1(points: &[L1Point]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "L1D KiB".into(),
        "IPC".into(),
        "L1D MPKI".into(),
    ])
    .with_title("Ablation (§1): larger L1 data cache, multithreaded benchmarks (2 threads, HT on)");
    for p in points {
        t.row(vec![
            p.id.name().to_string(),
            format!("{}", p.l1d_kib),
            format!("{:.3}", p.ipc),
            format!("{:.1}", p.l1d_mpki),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_l1_reduces_misses() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 3,
            seed: 1,
        };
        let pts = ablation_l1_on(&Engine::serial(), &[8, 64], &ctx);
        let mol8 = pts
            .iter()
            .find(|p| p.id == BenchmarkId::MolDyn && p.l1d_kib == 8)
            .unwrap();
        let mol64 = pts
            .iter()
            .find(|p| p.id == BenchmarkId::MolDyn && p.l1d_kib == 64)
            .unwrap();
        assert!(
            mol64.l1d_mpki < mol8.l1d_mpki,
            "8x larger L1D must reduce MPKI: {} vs {}",
            mol8.l1d_mpki,
            mol64.l1d_mpki
        );
    }

    #[test]
    fn dynamic_partition_not_slower_than_static() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 3,
            seed: 1,
        };
        let run = |cfg| {
            Cell::once(cfg, ctx.workload(BenchmarkId::Db, 1))
                .simulate()
                .cycles
        };
        let stat = run(ctx.machine(true));
        let dynp = run(ctx.machine(true).with_partition(Partition::Dynamic));
        assert!(
            dynp <= stat + stat / 20,
            "dynamic ({dynp}) should not lose to static ({stat})"
        );
    }
}

/// One benchmark with the L2 streaming prefetcher off vs. on.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchPoint {
    /// The benchmark (2 threads, HT on).
    pub id: BenchmarkId,
    /// IPC without the prefetcher (the baseline reproduction).
    pub ipc_off: f64,
    /// IPC with the prefetcher.
    pub ipc_on: f64,
    /// L2 MPKI without the prefetcher.
    pub l2_mpki_off: f64,
    /// L2 MPKI with the prefetcher.
    pub l2_mpki_on: f64,
}

/// Extension ablation on `engine`: the P4's L2 streaming prefetcher (the
/// baseline reproduction models it off; this measures what it buys the
/// multithreaded Java workloads). One cell per benchmark and setting.
pub fn ablation_prefetch_on(engine: &Engine, ctx: &ExperimentCtx) -> Vec<PrefetchPoint> {
    let ids = BenchmarkId::MULTITHREADED;
    let cells = ids
        .iter()
        .flat_map(|&id| {
            [false, true].map(|prefetch| {
                let cfg = ctx
                    .machine(true)
                    .with_mem(MemConfig::p4(true).with_l2_prefetch(prefetch));
                Cell::once(cfg, ctx.workload(id, 2))
            })
        })
        .collect();
    let reports = engine.run("ablation-prefetch", cells, |cell| engine.report(cell));
    ids.iter()
        .zip(reports.chunks(2))
        .map(|(&id, r)| PrefetchPoint {
            id,
            ipc_off: r[0].metrics.ipc,
            ipc_on: r[1].metrics.ipc,
            l2_mpki_off: r[0].metrics.l2_mpki,
            l2_mpki_on: r[1].metrics.l2_mpki,
        })
        .collect()
}

/// Render the prefetcher ablation.
pub fn render_ablation_prefetch(points: &[PrefetchPoint]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "IPC (no pf)".into(),
        "IPC (pf)".into(),
        "L2 MPKI (no pf)".into(),
        "L2 MPKI (pf)".into(),
    ])
    .with_title("Ablation (extension): L2 streaming prefetcher, 2 threads, HT on");
    for p in points {
        t.row(vec![
            p.id.name().to_string(),
            format!("{:.3}", p.ipc_off),
            format!("{:.3}", p.ipc_on),
            format!("{:.1}", p.l2_mpki_off),
            format!("{:.1}", p.l2_mpki_on),
        ]);
    }
    t.render()
}

/// One benchmark with instant (synchronous) vs. background JIT.
#[derive(Debug, Clone, Copy)]
pub struct JitPoint {
    /// The benchmark (single-threaded — the interesting case: the
    /// compiler thread lands on the sibling context).
    pub id: BenchmarkId,
    /// Execution time with instant compilation (the baseline model).
    pub cycles_instant: u64,
    /// Execution time with the background compiler thread.
    pub cycles_background: u64,
    /// Methods compiled by the background thread.
    pub compiles: u64,
}

/// Extension ablation on `engine`: background JIT compilation. The
/// paper's introduction stresses that the JVM's helper threads make even
/// single-threaded Java multithreaded; this measures the compiler
/// thread's effect on the HT machine (it occupies the sibling context
/// and extends the interpreted warm-up window). One cell per benchmark
/// and compiler mode.
pub fn ablation_jit_on(engine: &Engine, ctx: &ExperimentCtx) -> Vec<JitPoint> {
    let ids = BenchmarkId::SINGLE_THREADED;
    let cells = ids
        .iter()
        .flat_map(|&id| {
            [false, true].map(|background| {
                let jvm = jvm_config_for(id).with_background_jit(background);
                Cell::once_with_jvm(ctx.machine(true), ctx.workload(id, 1), jvm)
            })
        })
        .collect();
    let reports = engine.run("ablation-jit", cells, |cell| engine.report(cell));
    ids.iter()
        .zip(reports.chunks(2))
        .map(|(&id, r)| JitPoint {
            id,
            cycles_instant: r[0].cycles,
            cycles_background: r[1].cycles,
            compiles: r[1].processes[0].compiles_done,
        })
        .collect()
}

/// Render the background-JIT ablation.
pub fn render_ablation_jit(points: &[JitPoint]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "instant JIT".into(),
        "background JIT".into(),
        "change".into(),
        "methods compiled".into(),
    ])
    .with_title("Ablation (extension): background JIT compiler thread, single-threaded, HT on");
    for p in points {
        t.row(vec![
            p.id.name().to_string(),
            format!("{}", p.cycles_instant),
            format!("{}", p.cycles_background),
            format!(
                "{:+.2}%",
                pct_change(p.cycles_instant as f64, p.cycles_background as f64)
            ),
            format!("{}", p.compiles),
        ]);
    }
    t.render()
}
