//! §4.3 — impact of static partitioning on single-threaded programs:
//! Figures 10 and 11.

use jsmt_report::{bar_chart, Table};
use jsmt_stats::pct_change;
use jsmt_workloads::BenchmarkId;

use super::pairing::pair_outcome;
use super::{Cell, Engine, ExperimentCtx};

/// One single-threaded benchmark measured with HT off and on.
#[derive(Debug, Clone, Copy)]
pub struct SinglePoint {
    /// The benchmark.
    pub id: BenchmarkId,
    /// Execution time with Hyper-Threading disabled (cycles).
    pub cycles_ht_off: u64,
    /// Execution time with Hyper-Threading enabled (cycles).
    pub cycles_ht_on: u64,
}

impl SinglePoint {
    /// Percent increase in execution time from enabling HT (positive =
    /// slower, the paper's Figure 10 quantity).
    pub fn slowdown_pct(&self) -> f64 {
        pct_change(self.cycles_ht_off as f64, self.cycles_ht_on as f64)
    }
}

/// Figure 10 on `engine`: each single-threaded benchmark run alone with
/// HT disabled and enabled, one cell each.
pub fn fig10_single_thread_impact_on(engine: &Engine, ctx: &ExperimentCtx) -> Vec<SinglePoint> {
    let ids = BenchmarkId::SINGLE_THREADED;
    let cells = ids
        .iter()
        .flat_map(|&id| [false, true].map(|ht| Cell::once(ctx.machine(ht), ctx.workload(id, 1))))
        .collect();
    let reports = engine.run("fig10-single", cells, |cell| engine.report(cell));
    ids.iter()
        .zip(reports.chunks(2))
        .map(|(&id, r)| SinglePoint {
            id,
            cycles_ht_off: r[0].cycles,
            cycles_ht_on: r[1].cycles,
        })
        .collect()
}

/// Render Figure 10.
pub fn render_fig10(points: &[SinglePoint]) -> String {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "HT-off cycles".into(),
        "HT-on cycles".into(),
        "Exec time change".into(),
    ])
    .with_title("Figure 10. Impact of Hyper-Threading technology on single-threaded Java programs");
    let mut slower = 0;
    for p in points {
        let d = p.slowdown_pct();
        if d > 0.0 {
            slower += 1;
        }
        t.row(vec![
            p.id.name().to_string(),
            format!("{}", p.cycles_ht_off),
            format!("{}", p.cycles_ht_on),
            format!("{d:+.2}%"),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\n{slower} of {} benchmarks have increased execution times with HT on\n",
        points.len()
    ));
    out
}

/// Figure 11 on `engine`: the combined speedup of two identical copies
/// of each single-threaded benchmark running simultaneously on the HT
/// machine. One job per benchmark requests its solo baseline and its
/// self co-run, both shared with the pairing grid when one engine runs
/// both.
pub fn fig11_self_pairs_on(engine: &Engine, ctx: &ExperimentCtx) -> Vec<(BenchmarkId, f64)> {
    engine.run(
        "fig11-self-pairs",
        BenchmarkId::SINGLE_THREADED.to_vec(),
        |&id| {
            let solo = engine.solo_baseline(id, ctx);
            let report = engine.report(&Cell::corun(id, id, ctx));
            (id, pair_outcome(&report, solo, solo).combined)
        },
    )
}

/// Render Figure 11.
pub fn render_fig11(points: &[(BenchmarkId, f64)]) -> String {
    let entries: Vec<(String, f64)> = points
        .iter()
        .map(|(id, c)| (id.name().to_string(), *c))
        .collect();
    let mut out = bar_chart(
        "Figure 11. Impact of Hyper-Threading technology on multi-programmed programs\n(combined speedup of two identical copies; 1.0 = perfect time sharing, 2.0 = perfect SMP)",
        &entries,
    );
    let below: Vec<&str> = points
        .iter()
        .filter(|(_, c)| *c < 1.05)
        .map(|(id, _)| id.name())
        .collect();
    if !below.is_empty() {
        out.push_str(&format!("\nnear-or-below unity: {}\n", below.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_math() {
        let p = SinglePoint {
            id: BenchmarkId::Compress,
            cycles_ht_off: 100,
            cycles_ht_on: 162,
        };
        assert!((p.slowdown_pct() - 62.0).abs() < 1e-12);
    }

    #[test]
    fn fig10_single_benchmark_shape() {
        // One benchmark only, to stay fast: HT on must not be *faster*
        // given static partitioning plus helper threads.
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 3,
            seed: 1,
        };
        let run = |ht| {
            Cell::once(ctx.machine(ht), ctx.workload(BenchmarkId::Db, 1))
                .simulate()
                .cycles
        };
        let (off, on) = (run(false), run(true));
        let p = SinglePoint {
            id: BenchmarkId::Db,
            cycles_ht_off: off,
            cycles_ht_on: on,
        };
        assert!(
            p.slowdown_pct() > -8.0,
            "HT-on should not massively speed up a single thread: {:.2}%",
            p.slowdown_pct()
        );
        let rendered = render_fig10(&[p]);
        assert!(rendered.contains("db"));
    }
}
