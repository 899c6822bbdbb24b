//! CSV exports for external plotting of every artifact.

use jsmt_report::Csv;

use super::{
    JitPoint, L1Point, LitmusSweep, MtPoint, PairGrid, PairOutcome, PartitionPoint, PrefetchPoint,
    SinglePoint, ThreadPoint,
};

/// CSV of the multithreaded characterization (Table 2 / Figures 1–7 data).
pub fn csv_mt(points: &[MtPoint]) -> String {
    let mut c = Csv::new(vec![
        "benchmark".into(),
        "threads".into(),
        "ht".into(),
        "cycles".into(),
        "instructions".into(),
        "ipc".into(),
        "cpi".into(),
        "os_pct".into(),
        "dt_pct".into(),
        "tc_mpki".into(),
        "l1d_mpki".into(),
        "l2_mpki".into(),
        "itlb_mpki".into(),
        "btb_miss_ratio".into(),
        "retire0".into(),
        "retire1".into(),
        "retire2".into(),
        "retire3".into(),
    ]);
    for p in points {
        let m = &p.report.metrics;
        c.row(vec![
            p.id.name().into(),
            p.threads.to_string(),
            p.ht.to_string(),
            p.report.cycles.to_string(),
            m.instructions.to_string(),
            format!("{:.4}", m.ipc),
            format!("{:.4}", m.cpi),
            format!("{:.4}", m.os_cycle_fraction),
            format!("{:.4}", m.dual_thread_fraction),
            format!("{:.3}", m.tc_mpki),
            format!("{:.3}", m.l1d_mpki),
            format!("{:.3}", m.l2_mpki),
            format!("{:.4}", m.itlb_mpki),
            format!("{:.4}", m.btb_miss_ratio),
            format!("{:.4}", m.retirement.retire0),
            format!("{:.4}", m.retirement.retire1),
            format!("{:.4}", m.retirement.retire2),
            format!("{:.4}", m.retirement.retire3),
        ]);
    }
    c.render()
}

/// CSV of the 9×9 pairing grid (Figures 8–9 data).
pub fn csv_grid(grid: &PairGrid) -> String {
    csv_pairs(grid.outcomes.iter().flatten())
}

/// The pairing-grid CSV over any run of co-run outcomes: a partial grid
/// renders exactly the rows a complete one would have for its cells.
pub(crate) fn csv_pairs<'a>(outcomes: impl IntoIterator<Item = &'a PairOutcome>) -> String {
    let mut c = Csv::new(vec![
        "a".into(),
        "b".into(),
        "speedup_a".into(),
        "speedup_b".into(),
        "combined".into(),
        "pair_tc_mpki".into(),
    ]);
    for o in outcomes {
        c.row(vec![
            o.a.name().into(),
            o.b.name().into(),
            format!("{:.4}", o.speedup_a),
            format!("{:.4}", o.speedup_b),
            format!("{:.4}", o.combined),
            format!("{:.3}", o.tc_mpki),
        ]);
    }
    c.render()
}

/// CSV of Figure 10's single-threaded HT impact.
pub fn csv_single(points: &[SinglePoint]) -> String {
    let mut c = Csv::new(vec![
        "benchmark".into(),
        "cycles_ht_off".into(),
        "cycles_ht_on".into(),
        "slowdown_pct".into(),
    ]);
    for p in points {
        c.row(vec![
            p.id.name().into(),
            p.cycles_ht_off.to_string(),
            p.cycles_ht_on.to_string(),
            format!("{:.3}", p.slowdown_pct()),
        ]);
    }
    c.render()
}

/// CSV of Figure 12's thread sweep.
pub fn csv_threads(points: &[ThreadPoint]) -> String {
    let mut c = Csv::new(vec![
        "benchmark".into(),
        "threads".into(),
        "ipc".into(),
        "l1d_mpki".into(),
    ]);
    for p in points {
        c.row(vec![
            p.id.name().into(),
            p.threads.to_string(),
            format!("{:.4}", p.ipc),
            format!("{:.3}", p.l1d_mpki),
        ]);
    }
    c.render()
}

/// CSV of the partitioning ablation.
pub fn csv_partition(points: &[PartitionPoint]) -> String {
    let mut c = Csv::new(vec![
        "benchmark".into(),
        "cycles_ht_off".into(),
        "cycles_static".into(),
        "cycles_dynamic".into(),
    ]);
    for p in points {
        c.row(vec![
            p.id.name().into(),
            p.cycles_ht_off.to_string(),
            p.cycles_static.to_string(),
            p.cycles_dynamic.to_string(),
        ]);
    }
    c.render()
}

/// CSV of the L1 ablation.
pub fn csv_l1(points: &[L1Point]) -> String {
    let mut c = Csv::new(vec![
        "benchmark".into(),
        "l1d_kib".into(),
        "ipc".into(),
        "l1d_mpki".into(),
    ]);
    for p in points {
        c.row(vec![
            p.id.name().into(),
            p.l1d_kib.to_string(),
            format!("{:.4}", p.ipc),
            format!("{:.3}", p.l1d_mpki),
        ]);
    }
    c.render()
}

/// CSV of the prefetcher ablation.
pub fn csv_prefetch(points: &[PrefetchPoint]) -> String {
    let mut c = Csv::new(vec![
        "benchmark".into(),
        "ipc_off".into(),
        "ipc_on".into(),
        "l2_mpki_off".into(),
        "l2_mpki_on".into(),
    ]);
    for p in points {
        c.row(vec![
            p.id.name().into(),
            format!("{:.4}", p.ipc_off),
            format!("{:.4}", p.ipc_on),
            format!("{:.3}", p.l2_mpki_off),
            format!("{:.3}", p.l2_mpki_on),
        ]);
    }
    c.render()
}

/// CSV of the litmus sweeps: one row per (shape, seed) with the observed
/// label and the sync counters it was produced under. This is the
/// bit-identity surface the CI litmus matrix diffs across worker counts
/// and exec tiers, and the golden file blessed in `tests/golden/`.
pub fn csv_litmus(sweeps: &[LitmusSweep]) -> String {
    let mut c = Csv::new(vec![
        "shape".into(),
        "seed".into(),
        "label".into(),
        "ok".into(),
        "cycles".into(),
        "blocks".into(),
        "wakes".into(),
        "waits".into(),
        "notifies".into(),
        "contended".into(),
    ]);
    for s in sweeps {
        for p in &s.points {
            c.row(vec![
                p.shape.name().into(),
                p.seed.to_string(),
                p.label.clone(),
                super::check_label(p.shape, &p.label).is_ok().to_string(),
                p.cycles.to_string(),
                p.blocks.to_string(),
                p.wakes.to_string(),
                p.waits.to_string(),
                p.notifies.to_string(),
                p.contended.to_string(),
            ]);
        }
    }
    c.render()
}

/// CSV of the background-JIT ablation.
pub fn csv_jit(points: &[JitPoint]) -> String {
    let mut c = Csv::new(vec![
        "benchmark".into(),
        "cycles_instant".into(),
        "cycles_background".into(),
        "compiles".into(),
    ]);
    for p in points {
        c.row(vec![
            p.id.name().into(),
            p.cycles_instant.to_string(),
            p.cycles_background.to_string(),
            p.compiles.to_string(),
        ]);
    }
    c.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{ExperimentCtx, SinglePoint};
    use jsmt_workloads::BenchmarkId;

    #[test]
    fn single_csv_shape() {
        let pts = [SinglePoint {
            id: BenchmarkId::Db,
            cycles_ht_off: 100,
            cycles_ht_on: 110,
        }];
        let s = csv_single(&pts);
        let mut lines = s.lines();
        assert_eq!(
            lines.next().unwrap(),
            "benchmark,cycles_ht_off,cycles_ht_on,slowdown_pct"
        );
        assert!(lines.next().unwrap().starts_with("db,100,110,10.000"));
        let _ = ExperimentCtx::quick();
    }
}
