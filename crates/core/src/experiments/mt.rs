//! §4.1 — detailed characterization of the multithreaded benchmarks:
//! Table 2 and Figures 1–7.

use std::sync::Arc;

use jsmt_perfmon::Event;
use jsmt_report::{fmt_num, fmt_pct, series_chart, Table};
use jsmt_workloads::BenchmarkId;

use super::{Cell, Engine, ExperimentCtx};
use crate::RunReport;

/// One measured configuration of a multithreaded benchmark.
#[derive(Debug, Clone)]
pub struct MtPoint {
    /// The benchmark.
    pub id: BenchmarkId,
    /// Software threads.
    pub threads: usize,
    /// Hyper-Threading enabled.
    pub ht: bool,
    /// The full run report.
    pub report: Arc<RunReport>,
}

impl MtPoint {
    /// Paper-style label, e.g. `MolDyn02`.
    pub fn label(&self) -> String {
        format!("{}{:02}", self.id.name(), self.threads)
    }
}

/// Run the four multithreaded benchmarks at the given thread counts and
/// HT settings on `engine` (the data source shared by Table 2 and
/// Figures 1–7): one cell per `(benchmark, threads, ht)`, in nested-loop
/// order.
pub fn characterize_mt_on(
    engine: &Engine,
    threads_list: &[usize],
    ht_list: &[bool],
    ctx: &ExperimentCtx,
) -> Vec<MtPoint> {
    let points: Vec<(BenchmarkId, usize, bool)> = BenchmarkId::MULTITHREADED
        .iter()
        .flat_map(|&id| {
            threads_list
                .iter()
                .flat_map(move |&threads| ht_list.iter().map(move |&ht| (id, threads, ht)))
        })
        .collect();
    engine.run("characterize-mt", points, |&(id, threads, ht)| MtPoint {
        id,
        threads,
        ht,
        report: engine.report(&Cell::once(ctx.machine(ht), ctx.workload(id, threads))),
    })
}

/// Render Table 2: CPI, OS-cycle % and dual-thread-mode % for the
/// multithreaded benchmarks on the HT-enabled machine.
pub fn render_table2(points: &[MtPoint]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "Thread #".into(),
        "CPI".into(),
        "OS cycle %".into(),
        "CPU DT mode %".into(),
    ])
    .with_title(
        "Table 2. Characterization of multithreaded benchmarks on Hyper-Threading processor",
    );
    for p in points.iter().filter(|p| p.ht) {
        let m = &p.report.metrics;
        t.row(vec![
            p.id.name().to_string(),
            format!("{}", p.threads),
            fmt_num(m.cpi),
            fmt_pct(m.os_cycle_fraction),
            fmt_pct(m.dual_thread_fraction),
        ]);
    }
    t.render()
}

/// Render Figure 1: IPC with HT disabled vs enabled.
pub fn render_fig1(points: &[MtPoint]) -> String {
    let rows = paired_rows(points, |p| p.report.metrics.ipc);
    series_chart(
        "Figure 1. IPCs of multithreaded benchmarks on Pentium 4 processors",
        &["HT-disabled", "HT-enabled"],
        &rows,
    )
}

/// Render Figure 2: the retirement profile (fraction of cycles retiring
/// 0/1/2/3 µops), HT off vs on.
pub fn render_fig2(points: &[MtPoint]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "HT".into(),
        "0 uops".into(),
        "1 uop".into(),
        "2 uops".into(),
        "3 uops".into(),
    ])
    .with_title("Figure 2. Instruction retirement profile");
    for p in points {
        let r = &p.report.metrics.retirement;
        t.row(vec![
            p.label(),
            if p.ht { "on" } else { "off" }.into(),
            fmt_pct(r.retire0),
            fmt_pct(r.retire1),
            fmt_pct(r.retire2),
            fmt_pct(r.retire3),
        ]);
    }
    t.render()
}

/// Which per-kilo-instruction miss metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpkiKind {
    /// Figure 3: trace cache misses per 1,000 instructions.
    TraceCache,
    /// Figure 4: L1 data cache misses per 1,000 instructions.
    L1d,
    /// Figure 5: L2 misses per 1,000 instructions.
    L2,
    /// Figure 6: ITLB misses per 1,000 instructions.
    Itlb,
    /// Figure 7: BTB miss *ratio* (not per-KI).
    BtbRatio,
}

impl MpkiKind {
    /// The figure's title line.
    pub fn title(self) -> &'static str {
        match self {
            MpkiKind::TraceCache => "Figure 3. Trace cache misses per 1,000 instructions",
            MpkiKind::L1d => "Figure 4. L1 data cache misses per 1,000 instructions",
            MpkiKind::L2 => "Figure 5. L2 cache misses per 1,000 instructions",
            MpkiKind::Itlb => "Figure 6. Instruction TLB (ITLB) misses per 1,000 instructions",
            MpkiKind::BtbRatio => "Figure 7. BTB miss ratios",
        }
    }

    /// Extract the metric from a point.
    pub fn value(self, p: &MtPoint) -> f64 {
        let m = &p.report.metrics;
        match self {
            MpkiKind::TraceCache => m.tc_mpki,
            MpkiKind::L1d => m.l1d_mpki,
            MpkiKind::L2 => m.l2_mpki,
            MpkiKind::Itlb => m.itlb_mpki,
            MpkiKind::BtbRatio => m.btb_miss_ratio,
        }
    }
}

/// Render Figures 3–7 (pick the metric with `kind`).
pub fn render_fig_mpki(points: &[MtPoint], kind: MpkiKind) -> String {
    let rows = paired_rows(points, |p| kind.value(p));
    series_chart(kind.title(), &["HT-disabled", "HT-enabled"], &rows)
}

/// Group points into (label, [off, on]) rows for the two-series figures.
fn paired_rows(points: &[MtPoint], f: impl Fn(&MtPoint) -> f64) -> Vec<(String, Vec<f64>)> {
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut keys: Vec<(BenchmarkId, usize)> = Vec::new();
    for p in points {
        let key = (p.id, p.threads);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for (id, threads) in keys {
        let find = |ht: bool| {
            points
                .iter()
                .find(|p| p.id == id && p.threads == threads && p.ht == ht)
                .map(&f)
        };
        if let (Some(off), Some(on)) = (find(false), find(true)) {
            rows.push((format!("{}{:02}", id.name(), threads), vec![off, on]));
        }
    }
    rows
}

/// The `GcCycles`-based share of execution attributed to the collector —
/// used by the narrative sections of the report.
pub fn gc_cycle_fraction(report: &RunReport) -> f64 {
    let active = report.bank.total(Event::ActiveCycles).max(1);
    report.bank.total(Event::GcCycles) as f64 / active as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<MtPoint> {
        let ctx = ExperimentCtx {
            scale: 0.02,
            ..ExperimentCtx::quick()
        };
        let id = BenchmarkId::MonteCarlo;
        [false, true]
            .into_iter()
            .map(|ht| MtPoint {
                id,
                threads: 2,
                ht,
                report: Arc::new(Cell::once(ctx.machine(ht), ctx.workload(id, 2)).simulate()),
            })
            .collect()
    }

    #[test]
    fn renders_contain_labels_and_values() {
        let pts = points();
        let t2 = render_table2(&pts);
        assert!(t2.contains("MonteCarlo"));
        assert!(t2.contains("CPI"));
        let f1 = render_fig1(&pts);
        assert!(f1.contains("HT-enabled"));
        assert!(f1.contains("MonteCarlo02"));
        let f2 = render_fig2(&pts);
        assert!(f2.contains("0 uops"));
        for kind in [
            MpkiKind::TraceCache,
            MpkiKind::L1d,
            MpkiKind::L2,
            MpkiKind::Itlb,
            MpkiKind::BtbRatio,
        ] {
            let s = render_fig_mpki(&pts, kind);
            assert!(s.contains("Figure"), "{kind:?}");
        }
    }

    #[test]
    fn labels_match_paper_style() {
        let pts = points();
        assert_eq!(pts[0].label(), "MonteCarlo02");
    }
}
