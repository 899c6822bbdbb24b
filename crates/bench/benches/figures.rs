//! One Criterion bench per table/figure of the paper: measures the cost
//! of regenerating each artifact at smoke scale. `cargo bench -p
//! jsmt-bench --bench figures` doubles as an end-to-end exercise of every
//! experiment driver.

use criterion::{criterion_group, criterion_main, Criterion};
use jsmt_bench::run_experiment_on;
use jsmt_core::experiments::{Engine, ExperimentCtx};

/// Tiny inputs: these benches track harness cost, not paper numbers.
fn ctx() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.02,
        repeats: 2,
        seed: 0x15_9A55,
    }
}

fn bench_tables_and_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("repro");
    g.sample_size(10);
    // Everything except the 81-pair grid experiments, which get a
    // dedicated group below.
    for name in [
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig10",
        "fig11",
        "fig12",
        "ablation-partition",
        "ablation-l1",
    ] {
        g.bench_function(name, |b| {
            b.iter(|| run_experiment_on(&Engine::serial(), name, &ctx(), false).len())
        });
    }
    g.finish();
}

fn bench_pair_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("repro-grid");
    g.sample_size(10);
    // One representative pair instead of the 81-pair sweep per iteration.
    g.bench_function("one_pair", |b| {
        b.iter(|| {
            let c = ctx();
            let a = jsmt_workloads::BenchmarkId::Compress;
            let p = jsmt_workloads::BenchmarkId::Db;
            let a_solo = jsmt_core::experiments::solo_baseline_cycles(a, &c);
            let p_solo = jsmt_core::experiments::solo_baseline_cycles(p, &c);
            jsmt_core::experiments::run_pair(a, p, a_solo, p_solo, &c).combined
        })
    });
    g.finish();
}

criterion_group!(benches, bench_tables_and_figures, bench_pair_grid);
criterion_main!(benches);
