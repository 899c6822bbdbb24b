//! Crash-repro bundles: every supervised-cell failure, made replayable.
//!
//! When a cell exhausts its attempts the supervisor serializes everything
//! needed to re-create the failure into one sealed [`jsmt_snapshot`] file
//! ([`KIND_BUNDLE`]): the experiment fingerprint (scale/repeats/seed),
//! the cell's stage and label, the failure attribution (kind, component,
//! cycle, message), the fault spec that was armed, the supervisor knobs,
//! and the crash tail — the last periodic `System::checkpoint` and the
//! merged counter bank, for post-mortem inspection with the existing
//! snapshot tooling.
//!
//! Because every cell is a pure function of `(ctx, cell inputs, fault
//! plan)`, replaying is exact: [`CrashBundle::replay`] re-arms the
//! recorded fault spec, re-runs just that cell under a zero-retry
//! supervisor, and checks that the same failure recurs — same kind, same
//! component, same machine cycle. Wall-clock failures (`deadline`,
//! `cancelled`) are inherently nondeterministic in *cycle*, so they
//! compare by kind alone.

use std::path::{Path, PathBuf};

use jsmt_snapshot::{open, seal, SnapshotError, Writer};
use jsmt_workloads::BenchmarkId;

use super::grid::{Job, PAIR_STAGE, SOLO_STAGE};
use super::litmus::run_checked_cell;
use super::supervise::{CellFailure, CrashTail, FailureKind, SupervisorCfg};
use super::{solo_baseline_cycles, Engine, ExperimentCtx};
use crate::error::{Context, ErrorKind, JsmtError};

/// Snapshot kind tag for crash-repro bundle files.
pub const KIND_BUNDLE: u32 = 3;

/// A self-contained record of one supervised-cell failure.
#[derive(Debug, Clone)]
pub struct CrashBundle {
    /// `ExperimentCtx::scale` bits of the failed run.
    pub scale_bits: u64,
    /// `ExperimentCtx::repeats` of the failed run.
    pub repeats: u64,
    /// `ExperimentCtx::seed` of the failed run.
    pub seed: u64,
    /// Stage the cell belonged to (`pair-grid`, `solo-baselines`).
    pub stage: String,
    /// Cell label (`compress+db`, `jess`).
    pub label: String,
    /// Submission index within the stage.
    pub index: u64,
    /// Failure classification.
    pub kind: FailureKind,
    /// Component attribution.
    pub component: String,
    /// Machine cycle of the failure (0 when unknown).
    pub cycle: u64,
    /// Human-readable failure message.
    pub message: String,
    /// Attempts the cell consumed.
    pub attempts: u32,
    /// The fault spec armed when the cell died (empty = none).
    pub fault_spec: String,
    /// Livelock watchdog threshold in force.
    pub livelock_cycles: u64,
    /// Periodic-checkpoint interval in force.
    pub checkpoint_every: u64,
    /// Wall-clock deadline in force, in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Last periodic `System::checkpoint` (sealed snapshot; may be
    /// empty when periodic checkpointing was off).
    pub checkpoint: Vec<u8>,
    /// Last merged counter bank (`jsmt_snapshot::save_bytes` payload;
    /// may be empty).
    pub counters: Vec<u8>,
}

/// Outcome of replaying a crash bundle.
#[derive(Debug)]
pub struct ReplayReport {
    /// The recorded failure recurred (same kind; for deterministic kinds
    /// also same component and machine cycle).
    pub reproduced: bool,
    /// What the replay observed; `None` when the cell *succeeded* on
    /// replay (e.g. the bundle recorded a transient environment problem).
    pub observed: Option<CellFailure>,
}

impl CrashBundle {
    /// Assemble a bundle from a just-recorded failure. Captures the
    /// currently armed fault spec so the bundle is self-contained.
    pub(crate) fn from_failure(
        ctx: &ExperimentCtx,
        cfg: &SupervisorCfg,
        failure: &CellFailure,
        tail: CrashTail,
    ) -> Self {
        CrashBundle {
            scale_bits: ctx.scale.to_bits(),
            repeats: ctx.repeats,
            seed: ctx.seed,
            stage: failure.stage.clone(),
            label: failure.label.clone(),
            index: failure.index as u64,
            kind: failure.kind,
            component: failure.component.clone(),
            cycle: failure.cycle,
            message: failure.message.clone(),
            attempts: failure.attempts,
            fault_spec: jsmt_faults::active_spec().unwrap_or_default(),
            livelock_cycles: cfg.livelock_cycles,
            checkpoint_every: cfg.checkpoint_every,
            deadline_ms: cfg.deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
            checkpoint: tail.checkpoint.unwrap_or_default(),
            counters: tail.counters.unwrap_or_default(),
        }
    }

    /// The experiment fingerprint the bundle was recorded under.
    pub fn ctx(&self) -> ExperimentCtx {
        ExperimentCtx {
            scale: f64::from_bits(self.scale_bits),
            repeats: self.repeats,
            seed: self.seed,
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.scale_bits);
        w.put_u64(self.repeats);
        w.put_u64(self.seed);
        w.put_str(&self.stage);
        w.put_str(&self.label);
        w.put_u64(self.index);
        w.put_u8(self.kind.tag());
        w.put_str(&self.component);
        w.put_u64(self.cycle);
        w.put_str(&self.message);
        w.put_u32(self.attempts);
        w.put_str(&self.fault_spec);
        w.put_u64(self.livelock_cycles);
        w.put_u64(self.checkpoint_every);
        w.put_u64(self.deadline_ms);
        w.put_usize(self.checkpoint.len());
        w.put_raw(&self.checkpoint);
        w.put_usize(self.counters.len());
        w.put_raw(&self.counters);
        seal(KIND_BUNDLE, &w.into_bytes())
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = open(bytes, KIND_BUNDLE)?;
        let scale_bits = r.get_u64()?;
        let repeats = r.get_u64()?;
        let seed = r.get_u64()?;
        let stage = r.get_str()?;
        let label = r.get_str()?;
        let index = r.get_u64()?;
        let kind = FailureKind::from_tag(r.get_u8()?)
            .ok_or(SnapshotError::Corrupt("unknown failure kind tag in bundle"))?;
        let component = r.get_str()?;
        let cycle = r.get_u64()?;
        let message = r.get_str()?;
        let attempts = r.get_u32()?;
        let fault_spec = r.get_str()?;
        let livelock_cycles = r.get_u64()?;
        let checkpoint_every = r.get_u64()?;
        let deadline_ms = r.get_u64()?;
        let cklen = r.get_len(1)?;
        let checkpoint = r.get_raw(cklen)?.to_vec();
        let colen = r.get_len(1)?;
        let counters = r.get_raw(colen)?.to_vec();
        r.expect_end()?;
        Ok(CrashBundle {
            scale_bits,
            repeats,
            seed,
            stage,
            label,
            index,
            kind,
            component,
            cycle,
            message,
            attempts,
            fault_spec,
            livelock_cycles,
            checkpoint_every,
            deadline_ms,
            checkpoint,
            counters,
        })
    }

    /// Write the bundle into `dir` (created if missing) and return its
    /// path. Goes through the durable injectable writer, so bundle
    /// emission itself participates in fault injection under the
    /// `bundle` target.
    pub fn save_in(&self, dir: &Path) -> Result<PathBuf, JsmtError> {
        std::fs::create_dir_all(dir)
            .context(format!("creating bundle directory '{}'", dir.display()))?;
        let name: String = format!("{}-{}", self.stage, self.label)
            .chars()
            .map(|c| if c == '/' || c == '\\' { '_' } else { c })
            .collect();
        let path = dir.join(format!("{name}.crash"));
        jsmt_faults::fsio::persist(&path, &self.to_bytes(), "bundle")
            .context(format!("writing crash bundle '{}'", path.display()))?;
        Ok(path)
    }

    /// Load and validate a bundle file.
    pub fn load(path: &Path) -> Result<Self, JsmtError> {
        let bytes =
            std::fs::read(path).context(format!("reading crash bundle '{}'", path.display()))?;
        Self::from_bytes(&bytes)
            .map_err(JsmtError::from)
            .context(format!("decoding crash bundle '{}'", path.display()))
    }

    /// One-line human summary of the recorded failure.
    pub fn summary(&self) -> String {
        format!(
            "{}/{}: {} in '{}' at cycle {} after {} attempt(s) (faults: {})",
            self.stage,
            self.label,
            self.kind,
            self.component,
            self.cycle,
            self.attempts,
            if self.fault_spec.is_empty() {
                "none"
            } else {
                &self.fault_spec
            }
        )
    }

    /// Re-run the recorded cell and check that the recorded failure
    /// recurs.
    ///
    /// Solo baselines are precomputed *before* the recorded fault spec is
    /// armed, mirroring the original grid run where the cell's faults
    /// fired inside the cell's own scope; the cell itself then runs under
    /// a zero-retry supervisor with the recorded watchdog thresholds.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Replay`] when the bundle's stage or label cannot be
    /// mapped back to a runnable cell, or its fault spec no longer
    /// parses.
    pub fn replay(&self) -> Result<ReplayReport, JsmtError> {
        let ctx = self.ctx();
        // Baselines first, with no faults armed (matches the original
        // run's baseline stage, which completed before this cell died).
        jsmt_faults::clear();
        let cell = ReplayCell::parse(&self.stage, &self.label, &ctx)?;

        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                jsmt_faults::clear();
            }
        }
        let _disarm = Disarm;
        if !self.fault_spec.is_empty() {
            jsmt_faults::install_spec(&self.fault_spec).map_err(|e| {
                JsmtError::new(
                    ErrorKind::Replay,
                    format!(
                        "bundle fault spec '{}' no longer parses: {e}",
                        self.fault_spec
                    ),
                )
            })?;
        }

        let cfg = SupervisorCfg {
            retries: 0,
            deadline: (self.deadline_ms > 0)
                .then(|| std::time::Duration::from_millis(self.deadline_ms)),
            livelock_cycles: self.livelock_cycles,
            checkpoint_every: self.checkpoint_every,
            bundle_dir: None,
            // Replay is a single attempt; no backoff is ever slept.
            backoff_base: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
        };
        let engine = Engine::serial();
        let out = engine.run_supervised(
            &self.stage,
            &cfg,
            &ctx,
            vec![(self.label.clone(), cell)],
            |cell| cell.run(&ctx),
        );
        let observed = out.into_iter().next().expect("one replay cell").err();
        let reproduced = match &observed {
            None => false,
            Some(f) => {
                f.kind == self.kind
                    && match f.kind {
                        // Deterministic failures must match exactly.
                        FailureKind::Panic | FailureKind::Livelock => {
                            f.component == self.component && f.cycle == self.cycle
                        }
                        // Wall-clock / process-environment failures
                        // reproduce by kind alone (an in-process replay
                        // cannot re-kill a worker process).
                        FailureKind::Deadline
                        | FailureKind::Cancelled
                        | FailureKind::WorkerDeath => true,
                    }
            }
        };
        Ok(ReplayReport {
            reproduced,
            observed,
        })
    }
}

/// A runnable reconstruction of the failed cell.
#[derive(Debug)]
enum ReplayCell {
    /// A pairing-grid cell, computed exactly as the grid executor does.
    Grid(Job),
    /// A litmus cell: shape and sweep point.
    Litmus(BenchmarkId, u64),
}

impl ReplayCell {
    /// Rebuild the cell from its stage and label. A pair cell's solo
    /// baselines are simulated here, so call this with no faults armed.
    fn parse(stage: &str, label: &str, ctx: &ExperimentCtx) -> Result<Self, JsmtError> {
        let unknown = |what: &str| {
            JsmtError::new(
                ErrorKind::Replay,
                format!("bundle records unknown {what} '{label}' in stage '{stage}'"),
            )
        };
        let bench = |name: &str| BenchmarkId::parse(name).ok_or_else(|| unknown("benchmark"));
        match stage {
            PAIR_STAGE => {
                let (a, b) = label.split_once('+').ok_or_else(|| unknown("pair label"))?;
                let (a, b) = (bench(a)?, bench(b)?);
                Ok(ReplayCell::Grid(Job::Pair {
                    a,
                    b,
                    a_solo: solo_baseline_cycles(a, ctx),
                    b_solo: solo_baseline_cycles(b, ctx),
                }))
            }
            SOLO_STAGE => Ok(ReplayCell::Grid(Job::Solo(bench(label)?))),
            "litmus-sweep" => {
                let (shape, seed) = label
                    .split_once("@s")
                    .ok_or_else(|| unknown("litmus label"))?;
                let shape = BenchmarkId::parse(shape)
                    .filter(|s| s.is_litmus())
                    .ok_or_else(|| unknown("litmus shape"))?;
                let seed = seed.parse().map_err(|_| unknown("litmus seed"))?;
                Ok(ReplayCell::Litmus(shape, seed))
            }
            _ => Err(JsmtError::new(
                ErrorKind::Replay,
                format!("bundle records unknown stage '{stage}'; cannot reconstruct the cell"),
            )),
        }
    }

    fn run(&self, ctx: &ExperimentCtx) {
        match self {
            ReplayCell::Grid(job) => {
                job.value(&job.cell(ctx).simulate());
            }
            // Re-runs the same checked cell body as the sweep, so a
            // forbidden outcome panics identically on replay.
            ReplayCell::Litmus(shape, seed) => {
                run_checked_cell(*shape, *seed, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CrashBundle {
        CrashBundle {
            scale_bits: 0.01f64.to_bits(),
            repeats: 1,
            seed: 0xA5,
            stage: "pair-grid".into(),
            label: "compress+db".into(),
            index: 1,
            kind: FailureKind::Panic,
            component: "system".into(),
            cycle: 4242,
            message: "injected fault".into(),
            attempts: 2,
            fault_spec: "panic,component=system,cycle=4000".into(),
            livelock_cycles: 2_000_000,
            checkpoint_every: 0,
            deadline_ms: 0,
            checkpoint: vec![1, 2, 3],
            counters: vec![9, 8],
        }
    }

    #[test]
    fn bundle_bytes_round_trip() {
        let b = sample();
        let back = CrashBundle::from_bytes(&b.to_bytes()).expect("round trip");
        assert_eq!(back.stage, b.stage);
        assert_eq!(back.label, b.label);
        assert_eq!(back.kind, b.kind);
        assert_eq!(back.component, b.component);
        assert_eq!(back.cycle, b.cycle);
        assert_eq!(back.fault_spec, b.fault_spec);
        assert_eq!(back.checkpoint, b.checkpoint);
        assert_eq!(back.counters, b.counters);
        assert_eq!(back.ctx().seed, 0xA5);
    }

    #[test]
    fn corrupt_bundle_is_rejected_with_snapshot_kind() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = CrashBundle::from_bytes(&bytes).expect_err("corrupt");
        let _ = err; // SnapshotError variant depends on which byte flipped
        let dir = std::env::temp_dir().join(format!("jsmt-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.crash");
        std::fs::write(&path, &bytes).unwrap();
        let e = CrashBundle::load(&path).expect_err("corrupt file");
        assert_eq!(e.kind(), crate::error::ErrorKind::Snapshot);
        assert!(e.to_string().contains("decoding crash bundle"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_cell_parsing_rejects_unknown_shapes() {
        // Tiny scale: a pair label simulates its two baselines.
        let ctx = ExperimentCtx {
            scale: 0.01,
            repeats: 1,
            seed: 0xA5,
        };
        let parse = |stage: &str, label: &str| ReplayCell::parse(stage, label, &ctx);
        assert!(parse("pair-grid", "compress+db").is_ok());
        assert!(parse("solo-baselines", "jess").is_ok());
        let e = parse("mystery-stage", "x").unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Replay);
        assert!(parse("pair-grid", "nosuch+db").is_err());
        assert!(parse("pair-grid", "noplus").is_err());
        assert!(parse("litmus-sweep", "litmus-mp@s7").is_ok());
        assert!(parse("litmus-sweep", "compress@s7").is_err());
        assert!(parse("litmus-sweep", "litmus-mp@sseven").is_err());
        assert!(parse("litmus-sweep", "litmus-mp").is_err());
    }
}
