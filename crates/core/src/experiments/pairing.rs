//! §4.2 — multiprogrammed pairing: Figures 8 and 9 and the paper's
//! offline trace-cache analysis.

use jsmt_perfmon::Event;
use jsmt_report::{box_chart, heat_map, Table};
use jsmt_stats::{mean, pearson, BoxSummary};
use jsmt_workloads::{BenchmarkId, WorkloadSpec};

use super::{Engine, ExperimentCtx};
use crate::{System, SystemConfig};

/// Result of running one A+B multiprogrammed pair on the HT machine.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Program A.
    pub a: BenchmarkId,
    /// Program B.
    pub b: BenchmarkId,
    /// `A_S / A_H` — A's share of the combined speedup.
    pub speedup_a: f64,
    /// `B_S / B_H` — B's share.
    pub speedup_b: f64,
    /// The combined speedup `C_AB`.
    pub combined: f64,
    /// Machine trace-cache MPKI during the co-run (for the offline
    /// analysis).
    pub tc_mpki: f64,
    /// Completions of (A, B) during the co-run.
    pub completions: (u64, u64),
}

/// Run the pair A+B with the paper's re-launch methodology: both programs
/// repeat until each has at least `ctx.repeats` completions, completion
/// times drop the first and last run, and the combined speedup is
/// computed against the HT-disabled solo baselines.
pub fn run_pair(
    a: BenchmarkId,
    b: BenchmarkId,
    a_solo: u64,
    b_solo: u64,
    ctx: &ExperimentCtx,
) -> PairOutcome {
    let mut sys = System::new(SystemConfig::p4(true).with_seed(ctx.seed));
    sys.add_relaunching_process(WorkloadSpec::single(a).with_scale(ctx.scale));
    sys.add_relaunching_process(WorkloadSpec::single(b).with_scale(ctx.scale));
    // +2 so that dropping first and last still leaves `repeats` samples.
    let report = sys.run_until_completions(ctx.repeats + 2);
    let a_h = report.processes[0].mean_duration();
    let b_h = report.processes[1].mean_duration();
    let speedup_a = a_solo as f64 / a_h;
    let speedup_b = b_solo as f64 / b_h;
    PairOutcome {
        a,
        b,
        speedup_a,
        speedup_b,
        combined: speedup_a + speedup_b,
        tc_mpki: report.metrics.tc_mpki,
        completions: (
            report.processes[0].completions,
            report.processes[1].completions,
        ),
    }
}

/// The full 9×9 cross product of the single-threaded benchmarks
/// (Figure 8's data, Figure 9's matrix).
#[derive(Debug, Clone)]
pub struct PairGrid {
    /// Benchmarks in row/column order.
    pub benchmarks: Vec<BenchmarkId>,
    /// `outcomes[i][j]` is the run of `benchmarks[i]` with
    /// `benchmarks[j]`.
    pub outcomes: Vec<Vec<PairOutcome>>,
}

impl PairGrid {
    /// Combined speedups of row `i` across all partners.
    pub fn row_combined(&self, i: usize) -> Vec<f64> {
        self.outcomes[i].iter().map(|o| o.combined).collect()
    }

    /// `matrix[i][j]` = row benchmark i's *own* speedup share
    /// (`A_S / A_H`) when paired with column j — the per-program view in
    /// the style of Bulpin & Pratt's color maps (reference 3 in the paper).
    pub fn share_matrix(&self) -> Vec<Vec<f64>> {
        self.outcomes
            .iter()
            .map(|row| row.iter().map(|o| o.speedup_a).collect())
            .collect()
    }

    /// Count of combinations with a combined slowdown (`C_AB < 1`).
    pub fn slowdown_count(&self) -> usize {
        self.outcomes
            .iter()
            .flatten()
            .filter(|o| o.combined < 1.0)
            .count()
    }

    /// Mean absolute asymmetry `|C_ij - C_ji|` (the paper's reflective
    /// symmetry check).
    pub fn asymmetry(&self) -> f64 {
        let n = self.benchmarks.len();
        let mut diffs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                diffs.push((self.outcomes[i][j].combined - self.outcomes[j][i].combined).abs());
            }
        }
        mean(&diffs)
    }
}

/// Run the full cross product of the nine single-threaded benchmarks
/// serially (reference execution; see [`pair_matrix_on`]).
pub fn pair_matrix(ctx: &ExperimentCtx) -> PairGrid {
    pair_matrix_on(&Engine::serial(), ctx)
}

/// Run the full cross product on `engine`'s threads through the grid
/// executor ([`super::pair_grid`]): one stage computing the nine solo
/// baselines (each simulated exactly once via the engine's memo), then
/// one stage of N² co-run cells, collected by cell index so the grid is
/// bit-identical for every [`super::Parallelism`] setting.
///
/// # Panics
///
/// When a cell still fails after the default supervisor's retry; the
/// message names the first failure. Callers that want partial grids use
/// [`super::pair_grid`] directly.
pub fn pair_matrix_on(engine: &Engine, ctx: &ExperimentCtx) -> PairGrid {
    super::pair_grid(
        engine,
        super::Transport::Threads,
        ctx,
        &super::SupervisorCfg::default(),
    )
    .expect("the thread transport has no dispatch faults")
    .into_grid()
}

/// Render Figure 8: the box-chart distribution of combined speedups per
/// benchmark (each box summarizes the benchmark's nine pairings).
pub fn render_fig8(grid: &PairGrid) -> String {
    let entries: Vec<(String, BoxSummary)> = grid
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let samples = grid.row_combined(i);
            (
                b.name().to_string(),
                BoxSummary::from_samples(&samples).expect("nonempty row"),
            )
        })
        .collect();
    let lo = entries
        .iter()
        .map(|(_, s)| s.min)
        .fold(f64::INFINITY, f64::min)
        - 0.05;
    let hi = entries
        .iter()
        .map(|(_, s)| s.max)
        .fold(f64::NEG_INFINITY, f64::max)
        + 0.05;
    let mut out = box_chart(
        "Figure 8. Distribution of combined speedup for multiprogrammed Java benchmarks",
        &entries,
        lo,
        hi,
    );
    out.push_str(&format!(
        "\n{} of {} combinations show a combined slowdown (C_AB < 1); mean |C_ij - C_ji| = {:.3}\n",
        grid.slowdown_count(),
        grid.benchmarks.len() * grid.benchmarks.len(),
        grid.asymmetry()
    ));
    out
}

/// Render Figure 9: the combined-speedup color map.
pub fn render_fig9(grid: &PairGrid) -> String {
    let labels: Vec<String> = grid
        .benchmarks
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    let matrix: Vec<Vec<f64>> = grid
        .outcomes
        .iter()
        .map(|row| row.iter().map(|o| o.combined).collect())
        .collect();
    heat_map("Figure 9. Combined speedup color map", &labels, &matrix)
}

/// The paper's offline analysis (§4.2, technical report, reference 11):
/// correlate each pair's
/// trace-cache MPKI with its combined speedup. A strongly negative
/// correlation is the paper's finding that "trace cache miss rate can be
/// used to effectively predict the potential pairing performance".
#[derive(Debug, Clone, Copy)]
pub struct PairingAnalysis {
    /// Pearson correlation of (pair TC MPKI, combined speedup).
    pub tc_corr: f64,
    /// Mean combined speedup of pairs involving a bad partner.
    pub bad_partner_mean: f64,
    /// Mean combined speedup of the remaining pairs.
    pub other_mean: f64,
}

/// Run the offline analysis over a measured grid.
pub fn pairing_analysis(grid: &PairGrid) -> PairingAnalysis {
    let mut tc = Vec::new();
    let mut sp = Vec::new();
    let mut bad = Vec::new();
    let mut other = Vec::new();
    for row in &grid.outcomes {
        for o in row {
            tc.push(o.tc_mpki);
            sp.push(o.combined);
            if o.a.is_bad_partner() || o.b.is_bad_partner() {
                bad.push(o.combined);
            } else {
                other.push(o.combined);
            }
        }
    }
    PairingAnalysis {
        tc_corr: pearson(&tc, &sp),
        bad_partner_mean: mean(&bad),
        other_mean: mean(&other),
    }
}

/// Render the offline analysis summary.
pub fn render_pairing_analysis(grid: &PairGrid) -> String {
    let a = pairing_analysis(grid);
    let mut t = Table::new(vec!["Statistic".into(), "Value".into()])
        .with_title("Offline pairing analysis (§4.2, tech report [11])");
    t.row(vec![
        "corr(TC MPKI, combined speedup)".into(),
        format!("{:.3}", a.tc_corr),
    ]);
    t.row(vec![
        "mean C_AB, pairs with jack/javac/jess".into(),
        format!("{:.3}", a.bad_partner_mean),
    ]);
    t.row(vec![
        "mean C_AB, other pairs".into(),
        format!("{:.3}", a.other_mean),
    ]);
    t.render()
}

/// Machine-level sanity metric used in tests: total trace-cache misses of
/// a report.
pub fn tc_misses(report: &crate::RunReport) -> u64 {
    report.bank.total(Event::TcMisses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::solo_baseline_cycles;

    #[test]
    fn pair_runs_and_produces_positive_speedups() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 3,
            seed: 1,
        };
        let a_solo = solo_baseline_cycles(BenchmarkId::Mpegaudio, &ctx);
        let b_solo = solo_baseline_cycles(BenchmarkId::Compress, &ctx);
        let o = run_pair(
            BenchmarkId::Mpegaudio,
            BenchmarkId::Compress,
            a_solo,
            b_solo,
            &ctx,
        );
        assert!(
            o.speedup_a > 0.1 && o.speedup_a < 1.5,
            "a share {}",
            o.speedup_a
        );
        assert!(
            o.speedup_b > 0.1 && o.speedup_b < 1.5,
            "b share {}",
            o.speedup_b
        );
        assert!(
            o.combined > 0.5 && o.combined < 2.5,
            "combined {}",
            o.combined
        );
        assert!(o.completions.0 >= 5 && o.completions.1 >= 5);
    }
}

/// The paper's concluding claim, made executable: "trace cache miss rate
/// can be used to effectively predict the potential pairing performance."
/// We build the predictor the claim implies — score every pair by the sum
/// of the two programs' *solo* trace-cache MPKI (measured alone on the HT
/// machine, no co-run needed) — and validate it against the measured grid.
#[derive(Debug, Clone)]
pub struct PairingPrediction {
    /// Solo HT-on trace-cache MPKI per benchmark (the predictor's only
    /// input), in grid order.
    pub solo_tc_mpki: Vec<f64>,
    /// Spearman rank correlation between predicted badness (solo TC sum)
    /// and measured combined speedup. Strongly negative = the predictor
    /// ranks pairs correctly.
    pub rank_corr: f64,
    /// Fraction of the measured worst-quartile pairs that the predictor
    /// also places in its worst quartile (top-k overlap).
    pub worst_quartile_hit_rate: f64,
}

/// Build and validate the solo-profile pairing predictor against a
/// measured grid.
pub fn pairing_prediction(grid: &PairGrid, ctx: &ExperimentCtx) -> PairingPrediction {
    use jsmt_workloads::WorkloadSpec;
    // Solo HT-on profiles: one short run per benchmark.
    let solo_tc_mpki: Vec<f64> = grid
        .benchmarks
        .iter()
        .map(|&b| {
            let spec = WorkloadSpec::single(b).with_scale(ctx.scale);
            super::solo_run(spec, true, ctx.seed).metrics.tc_mpki
        })
        .collect();

    let n = grid.benchmarks.len();
    let mut scores = Vec::with_capacity(n * n);
    let mut measured = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            scores.push(solo_tc_mpki[i] + solo_tc_mpki[j]);
            measured.push(grid.outcomes[i][j].combined);
        }
    }
    let rank_corr = jsmt_stats::spearman(&scores, &measured);

    // Worst-quartile overlap.
    let k = (scores.len() / 4).max(1);
    let top_k = |xs: &[f64], largest: bool| -> std::collections::HashSet<usize> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("no NaNs"));
        if largest {
            idx.reverse();
        }
        idx.into_iter().take(k).collect()
    };
    let predicted_worst = top_k(&scores, true); // highest TC sum
    let measured_worst = top_k(&measured, false); // lowest combined speedup
    let hits = predicted_worst.intersection(&measured_worst).count();
    PairingPrediction {
        solo_tc_mpki,
        rank_corr,
        worst_quartile_hit_rate: hits as f64 / k as f64,
    }
}

/// Render the predictor validation.
pub fn render_pairing_prediction(grid: &PairGrid, ctx: &ExperimentCtx) -> String {
    let p = pairing_prediction(grid, ctx);
    let mut t = Table::new(vec!["Benchmark".into(), "solo TC MPKI (HT on)".into()]).with_title(
        "Extension: predict pairing from solo trace-cache profiles (paper's conclusion)",
    );
    for (b, tc) in grid.benchmarks.iter().zip(&p.solo_tc_mpki) {
        t.row(vec![b.name().to_string(), format!("{tc:.2}")]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nSpearman(predicted badness, measured C_AB) = {:.3}\n\
         worst-quartile hit rate = {:.0}%\n\
         (prediction uses only per-program solo runs — no co-run needed)\n",
        p.rank_corr,
        p.worst_quartile_hit_rate * 100.0
    ));
    out
}
