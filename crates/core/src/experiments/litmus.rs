//! The litmus interleaving-assertion harness.
//!
//! Runs each litmus shape (see `jsmt_workloads::litmus`) across a seed
//! sweep on the full simulated machine — real scheduler, real monitors,
//! real exec tiers — and checks every observed outcome label against the
//! shape's *allowed-outcomes table*. A label outside the table is a
//! concurrency-correctness failure of the simulator itself (a monitor
//! that lost a wakeup, a tier that replayed stale state, a scheduler
//! that double-bound a thread), so the sweep turns it into a panic and
//! the supervisor every cell runs under records it as a failed cell,
//! sealed into a replayable crash bundle when a bundle directory is set.
//!
//! Seeding: sweep point `i` perturbs the workload *scale* by `i` ULP-ish
//! steps (the litmus kernels derive their RNG streams from the scale's
//! bit pattern) and the machine seed by a splitmix step, so every point
//! is a genuinely different interleaving trial while staying a pure
//! function of `(ctx, shape, i)` — which is what makes sweeps
//! bit-identical across worker counts, exec tiers, and resume.

use std::collections::BTreeMap;

use jsmt_workloads::{BenchmarkId, WorkloadSpec};

use super::supervise::{CellFailure, SupervisorCfg};
use super::{Engine, ExperimentCtx};
use crate::{System, SystemConfig};

/// Fault-injection target name of the observation corruptor (see
/// [`jsmt_faults::corrupt_armed`]): arming
/// `corrupt,target=litmus-observation` makes the harness append a
/// deliberately forbidden element to the observed label — the end-to-end
/// drill for the forbidden-outcome → crash-bundle path.
pub const LITMUS_CORRUPT_TARGET: &str = "litmus-observation";

/// One litmus run: shape, sweep index, observed label, and the
/// synchronization counters that label was produced under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusPoint {
    /// The litmus shape.
    pub shape: BenchmarkId,
    /// Sweep index (the "seed").
    pub seed: u64,
    /// The observed outcome label (`+`-joined elements).
    pub label: String,
    /// Machine cycles to completion.
    pub cycles: u64,
    /// Scheduler block events.
    pub blocks: u64,
    /// Scheduler wake events.
    pub wakes: u64,
    /// `Object.wait` calls.
    pub waits: u64,
    /// Threads notified.
    pub notifies: u64,
    /// Contended monitor acquisitions.
    pub contended: u64,
}

/// A completed sweep of one shape.
#[derive(Debug, Clone)]
pub struct LitmusSweep {
    /// The shape swept.
    pub shape: BenchmarkId,
    /// One point per seed, in seed order.
    pub points: Vec<LitmusPoint>,
    /// Occurrences of each label *element* across the sweep.
    pub histogram: BTreeMap<String, u64>,
    /// Seeds whose label contained an element outside the allowed table,
    /// with the offending element.
    pub forbidden: Vec<(u64, String)>,
}

impl LitmusSweep {
    /// Whether every observed outcome was in the allowed table.
    pub fn is_clean(&self) -> bool {
        self.forbidden.is_empty()
    }
}

/// The allowed-outcomes table: every label *element* a correct simulator
/// may produce for `shape`. Anything else is a correctness failure.
///
/// # Panics
///
/// Panics when `shape` is not a litmus shape.
pub fn allowed_outcomes(shape: BenchmarkId) -> &'static [&'static str] {
    match shape {
        // Elements are "<r_flag><r_data>": seeing the flag but not the
        // data ("10") would break message passing.
        BenchmarkId::LitmusMp => &["00", "01", "11"],
        // Elements are "<ra><rb>": both loads missing both stores ("00")
        // is the store-buffer relaxation, forbidden under SC.
        BenchmarkId::LitmusSb => &["01", "10", "11"],
        // One composite element; any contention bucket is fine, the
        // ok-flags are not negotiable.
        BenchmarkId::LitmusHandoff => {
            &["sum=ok,mx=ok,c=0", "sum=ok,mx=ok,c=lo", "sum=ok,mx=ok,c=hi"]
        }
        // Any thread may be the last arriver; phase agreement must hold.
        BenchmarkId::LitmusConvoy => &["l0", "l1", "l2", "viol=0"],
        // Consumers only ever see full tokens, counts balance, any
        // amount of real waiting is fine.
        BenchmarkId::LitmusPingPong => &["v=1", "bal=ok", "w=0", "w=lo", "w=hi"],
        other => panic!("{other} is not a litmus shape"),
    }
}

/// A canonical forbidden element for `shape` — what the fault-injection
/// corruptor appends to prove the detection path works end to end.
///
/// # Panics
///
/// Panics when `shape` is not a litmus shape.
pub fn forbidden_example(shape: BenchmarkId) -> &'static str {
    match shape {
        BenchmarkId::LitmusMp => "10",
        BenchmarkId::LitmusSb => "00",
        BenchmarkId::LitmusHandoff => "sum=bad,mx=ok,c=0",
        BenchmarkId::LitmusConvoy => "viol=bad",
        BenchmarkId::LitmusPingPong => "v=0",
        other => panic!("{other} is not a litmus shape"),
    }
}

/// Check a full label against the shape's allowed table.
///
/// # Errors
///
/// Returns the first offending element.
pub fn check_label(shape: BenchmarkId, label: &str) -> Result<(), String> {
    let allowed = allowed_outcomes(shape);
    for element in label.split('+') {
        if !allowed.contains(&element) {
            return Err(element.to_string());
        }
    }
    Ok(())
}

/// The workload scale encoding sweep point `i`: the litmus kernels seed
/// their RNG streams from the scale's bit pattern, so each step is a new
/// interleaving trial; the work volume barely moves (`+0.001` per step).
fn sweep_scale(ctx: &ExperimentCtx, i: u64) -> f64 {
    ctx.scale.clamp(0.02, 0.25) + i as f64 * 0.001
}

/// The machine seed of sweep point `i` (splitmix step over the master
/// seed, so OS/codegen noise varies alongside the kernel streams).
fn sweep_seed(ctx: &ExperimentCtx, i: u64) -> u64 {
    ctx.seed ^ (i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run one litmus cell: shape `shape`, sweep point `seed`, on the paper
/// machine with HT enabled. Pure function of its arguments; the returned
/// point is bit-identical across exec tiers, fast-forward, worker
/// counts, and a mid-run checkpoint round-trip.
pub fn litmus_cell(shape: BenchmarkId, seed: u64, ctx: &ExperimentCtx) -> LitmusPoint {
    let spec =
        WorkloadSpec::threaded(shape, shape.default_threads()).with_scale(sweep_scale(ctx, seed));
    let mut sys = System::new(SystemConfig::p4(true).with_seed(sweep_seed(ctx, seed)));
    sys.add_process(spec);
    let report = sys.run_to_completion();
    let stats = sys.sync_stats(0);
    let mut label = sys.observation(0).unwrap_or_else(|| "<none>".to_string());
    if jsmt_faults::corrupt_armed(LITMUS_CORRUPT_TARGET) {
        // Deliberate falsification (fault injection): append a forbidden
        // element so the detection + crash-bundle path gets exercised.
        label.push('+');
        label.push_str(forbidden_example(shape));
    }
    LitmusPoint {
        shape,
        seed,
        label,
        cycles: report.cycles,
        blocks: stats.block_events,
        wakes: stats.wake_events,
        waits: stats.waits,
        notifies: stats.notifies,
        contended: stats.contended,
    }
}

fn collect_sweep(shape: BenchmarkId, points: Vec<LitmusPoint>) -> LitmusSweep {
    let mut histogram = BTreeMap::new();
    let mut forbidden = Vec::new();
    for p in &points {
        for element in p.label.split('+') {
            *histogram.entry(element.to_string()).or_insert(0u64) += 1;
        }
        if let Err(element) = check_label(shape, &p.label) {
            forbidden.push((p.seed, element));
        }
    }
    LitmusSweep {
        shape,
        points,
        histogram,
        forbidden,
    }
}

/// Result of a litmus sweep: surviving points plus the failure records
/// of cells whose outcome fell outside the allowed table (each carrying
/// a crash bundle when the supervisor was configured with a bundle
/// directory).
#[derive(Debug)]
pub struct SupervisedLitmus {
    /// Sweeps of the surviving cells, one per shape.
    pub sweeps: Vec<LitmusSweep>,
    /// Cells that panicked (forbidden outcome, injected fault, …).
    pub failures: Vec<CellFailure>,
}

impl SupervisedLitmus {
    /// Whether every cell of every shape survived with an allowed
    /// outcome.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.sweeps.iter().all(LitmusSweep::is_clean)
    }
}

/// Sweep every litmus shape over `seeds` points on `engine`, one
/// supervised job per seed: a cell whose label leaves the allowed table
/// panics with the offending element, the supervisor attributes and
/// (when configured) bundles it, and the sweep carries on. Cell labels
/// are `<shape>@s<seed>` in stage `litmus-sweep`, which
/// [`super::CrashBundle::replay`] maps back to [`litmus_cell`]. The
/// surviving points are bit-identical at any job count, exec-tier
/// setting, and fast-forward setting.
pub fn litmus_sweeps(
    engine: &Engine,
    seeds: u64,
    ctx: &ExperimentCtx,
    cfg: &SupervisorCfg,
) -> SupervisedLitmus {
    let mut sweeps = Vec::new();
    let mut failures = Vec::new();
    for &shape in &BenchmarkId::LITMUS {
        let jobs: Vec<(String, u64)> = (0..seeds)
            .map(|i| (format!("{}@s{i}", shape.name()), i))
            .collect();
        let mut points = Vec::new();
        for r in engine.run_supervised("litmus-sweep", cfg, ctx, jobs, |&i| {
            run_checked_cell(shape, i, ctx)
        }) {
            match r {
                Ok(p) => points.push(p),
                Err(f) => failures.push(f),
            }
        }
        sweeps.push(collect_sweep(shape, points));
    }
    SupervisedLitmus { sweeps, failures }
}

/// The sweep's cell body: run, then enforce the allowed table.
/// Shared with bundle replay so a replayed forbidden outcome fails the
/// same way at the same place.
///
/// # Panics
///
/// Panics when the observed label contains a forbidden element.
pub(crate) fn run_checked_cell(shape: BenchmarkId, seed: u64, ctx: &ExperimentCtx) -> LitmusPoint {
    let point = litmus_cell(shape, seed, ctx);
    if let Err(element) = check_label(shape, &point.label) {
        panic!(
            "forbidden litmus outcome: shape {} seed {} observed '{}' — element '{}' is not in the allowed table {:?}",
            shape.name(),
            seed,
            point.label,
            element,
            allowed_outcomes(shape),
        );
    }
    point
}

/// Render the sweeps as a paper-style table: per shape, the seeds run,
/// the element histogram, and any forbidden outcomes.
pub fn render_litmus(sweeps: &[LitmusSweep]) -> String {
    let mut t = jsmt_report::Table::new(vec![
        "Shape".into(),
        "Seeds".into(),
        "Observed outcomes (element × count)".into(),
        "Forbidden".into(),
    ])
    .with_title("Litmus sweep: interleaving observations vs. allowed-outcome tables");
    for s in sweeps {
        let hist = s
            .histogram
            .iter()
            .map(|(k, v)| format!("{k}\u{d7}{v}"))
            .collect::<Vec<_>>()
            .join("  ");
        let forb = if s.forbidden.is_empty() {
            "none".to_string()
        } else {
            s.forbidden
                .iter()
                .map(|(seed, e)| format!("s{seed}:'{e}'"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        t.row(vec![
            s.shape.name().to_string(),
            s.points.len().to_string(),
            hist,
            forb,
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentCtx {
        ExperimentCtx {
            scale: 0.02,
            repeats: 1,
            seed: 0xBEEF,
        }
    }

    #[test]
    fn every_shape_sweeps_clean_within_the_allowed_table() {
        let ctx = quick();
        let sl = litmus_sweeps(&Engine::serial(), 6, &ctx, &SupervisorCfg::default());
        assert!(sl.failures.is_empty(), "{:?}", sl.failures);
        for sweep in sl.sweeps {
            assert!(
                sweep.is_clean(),
                "{}: forbidden outcomes {:?}",
                sweep.shape.name(),
                sweep.forbidden
            );
            assert_eq!(sweep.points.len(), 6);
            assert!(!sweep.histogram.is_empty());
            // Every point carries a real label, not the placeholder.
            assert!(sweep.points.iter().all(|p| p.label != "<none>"));
        }
    }

    #[test]
    fn sweeps_are_deterministic_per_seed() {
        let ctx = quick();
        let a = litmus_cell(BenchmarkId::LitmusPingPong, 3, &ctx);
        let b = litmus_cell(BenchmarkId::LitmusPingPong, 3, &ctx);
        assert_eq!(a, b);
        let c = litmus_cell(BenchmarkId::LitmusPingPong, 4, &ctx);
        assert!(
            a.cycles != c.cycles || a.label != c.label || a.blocks != c.blocks,
            "distinct seeds should perturb the run"
        );
    }

    #[test]
    fn check_label_flags_the_offending_element() {
        assert!(check_label(BenchmarkId::LitmusMp, "00+01+11").is_ok());
        assert_eq!(
            check_label(BenchmarkId::LitmusMp, "00+10+11"),
            Err("10".to_string())
        );
        assert!(check_label(BenchmarkId::LitmusHandoff, "sum=ok,mx=ok,c=lo").is_ok());
        assert_eq!(
            check_label(BenchmarkId::LitmusHandoff, "sum=bad,mx=ok,c=0"),
            Err("sum=bad,mx=ok,c=0".to_string())
        );
    }

    #[test]
    fn forbidden_examples_are_actually_forbidden() {
        for shape in BenchmarkId::LITMUS {
            assert!(
                check_label(shape, forbidden_example(shape)).is_err(),
                "{shape}"
            );
        }
    }

    #[test]
    fn render_includes_every_shape() {
        let ctx = quick();
        let sl = litmus_sweeps(&Engine::serial(), 2, &ctx, &SupervisorCfg::default());
        let out = render_litmus(&sl.sweeps);
        for shape in BenchmarkId::LITMUS {
            assert!(out.contains(shape.name()), "{shape} missing from render");
        }
    }
}
