//! §4.4 — impact of the software thread count on the 2-context machine:
//! Figure 12.

use jsmt_report::Table;
use jsmt_workloads::BenchmarkId;

use super::{Cell, Engine, ExperimentCtx};

/// IPC of one benchmark at one thread count (HT enabled).
#[derive(Debug, Clone, Copy)]
pub struct ThreadPoint {
    /// The benchmark.
    pub id: BenchmarkId,
    /// Software threads (multiplexed onto the two contexts when > 2).
    pub threads: usize,
    /// Machine IPC.
    pub ipc: f64,
    /// L1D misses per kilo-instruction (the paper explains MolDyn's
    /// 4-thread IPC drop with "substantially increased L1 data cache
    /// misses").
    pub l1d_mpki: f64,
}

/// The paper's Figure 12 sweep on `engine`: the thread counts in
/// `threads_list` on the HT machine, one cell per `(benchmark, threads)`.
pub fn fig12_ipc_vs_threads_on(
    engine: &Engine,
    threads_list: &[usize],
    ctx: &ExperimentCtx,
) -> Vec<ThreadPoint> {
    let points: Vec<(BenchmarkId, usize)> = BenchmarkId::MULTITHREADED
        .iter()
        .flat_map(|&id| threads_list.iter().map(move |&threads| (id, threads)))
        .collect();
    engine.run("fig12-threads", points, |&(id, threads)| {
        let r = engine.report(&Cell::once(ctx.machine(true), ctx.workload(id, threads)));
        ThreadPoint {
            id,
            threads,
            ipc: r.metrics.ipc,
            l1d_mpki: r.metrics.l1d_mpki,
        }
    })
}

/// Render Figure 12 as an IPC-vs-threads table with the L1D column that
/// explains the MolDyn anomaly.
pub fn render_fig12(points: &[ThreadPoint]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "Threads".into(),
        "IPC".into(),
        "L1D MPKI".into(),
    ])
    .with_title("Figure 12. IPC vs. the number of threads (HT enabled)");
    for p in points {
        t.row(vec![
            p.id.name().to_string(),
            format!("{}", p.threads),
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
    fn sweep_produces_a_point_per_cell() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 3,
            seed: 1,
        };
        let pts = fig12_ipc_vs_threads_on(&Engine::serial(), &[1, 2], &ctx);
        assert_eq!(pts.len(), BenchmarkId::MULTITHREADED.len() * 2);
        let rendered = render_fig12(&pts);
        assert!(rendered.contains("MolDyn"));
        assert!(rendered.contains("PseudoJBB"));
    }

    #[test]
    fn two_threads_beat_one_for_parallel_kernels() {
        let ctx = ExperimentCtx {
            scale: 0.03,
            repeats: 3,
            seed: 1,
        };
        let run = |threads| {
            Cell::once(
                ctx.machine(true),
                ctx.workload(BenchmarkId::MonteCarlo, threads),
            )
            .simulate()
            .metrics
            .ipc
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two > one,
            "1→2 threads must raise IPC: {one:.3} vs {two:.3}"
        );
    }
}
