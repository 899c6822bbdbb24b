//! Cells: one whole-system simulation as a value. [`Cell::simulate`] is
//! a pure function of the cell, so the engine's memo
//! ([`super::Engine::report`]) simulates each distinct cell once, however
//! many artifacts read it.

use jsmt_jvm::JvmConfig;
use jsmt_workloads::{jvm_config_for, BenchmarkId, WorkloadSpec};

use super::ExperimentCtx;
use crate::{RunReport, System, SystemConfig};

/// How a process of a [`Cell`] is launched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Launch {
    /// Run once, under this JVM configuration.
    Once(JvmConfig),
    /// Re-launch on every completion, under the benchmark's own JVM
    /// configuration (the multiprogram methodology).
    Relaunching,
}

/// One whole-system simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The machine, seed included.
    pub cfg: SystemConfig,
    /// The processes in launch order.
    pub procs: Vec<(WorkloadSpec, Launch)>,
    /// The stop rule: run until every process has completed this many
    /// executions (1 = run to completion).
    pub completions: u64,
}

impl Cell {
    /// `spec` run once to completion on `cfg`, under the JVM
    /// configuration `System::add_process` resolves for it.
    pub fn once(cfg: SystemConfig, spec: WorkloadSpec) -> Cell {
        Cell::once_with_jvm(cfg, spec, jvm_config_for(spec.id))
    }

    /// `spec` run once to completion on `cfg`, under `jvm`.
    pub fn once_with_jvm(cfg: SystemConfig, spec: WorkloadSpec, jvm: JvmConfig) -> Cell {
        Cell {
            cfg,
            procs: vec![(spec, Launch::Once(jvm))],
            completions: 1,
        }
    }

    /// The HT-off solo baseline of `id` ([`super::solo_baseline_cycles`]):
    /// re-launched `min(repeats, 4) + 2` times, so trimming the first and
    /// last run leaves warm samples.
    pub fn solo_baseline(id: BenchmarkId, ctx: &ExperimentCtx) -> Cell {
        Cell {
            cfg: ctx.machine(false),
            procs: vec![(ctx.workload(id, 1), Launch::Relaunching)],
            completions: ctx.repeats.min(4) + 2,
        }
    }

    /// The HT-on co-run of `a` with `b` ([`super::run_pair`]): both
    /// re-launch until each has `repeats + 2` completions.
    pub fn corun(a: BenchmarkId, b: BenchmarkId, ctx: &ExperimentCtx) -> Cell {
        Cell {
            cfg: ctx.machine(true),
            procs: vec![
                (ctx.workload(a, 1), Launch::Relaunching),
                (ctx.workload(b, 1), Launch::Relaunching),
            ],
            completions: ctx.repeats + 2,
        }
    }

    /// Build the machine, add the processes and run it to the stop rule.
    pub fn simulate(&self) -> RunReport {
        let mut sys = System::new(self.cfg);
        for &(spec, launch) in &self.procs {
            match launch {
                Launch::Once(jvm) => sys.add_process_with_jvm(spec, jvm),
                Launch::Relaunching => sys.add_relaunching_process(spec),
            };
        }
        sys.run_until_completions(self.completions)
    }

    /// FNV-1a over the derived `Debug` text, as checkpoints fingerprint a
    /// `SystemConfig`: a field added later is covered without an edit
    /// here, and equal cells print alike however they were built.
    pub fn key(&self) -> u64 {
        jsmt_snapshot::fnv64(format!("{self:?}").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsmt_cpu::Partition;
    use jsmt_mem::MemConfig;

    fn ctx() -> ExperimentCtx {
        ExperimentCtx {
            scale: 0.05,
            repeats: 3,
            seed: 7,
        }
    }

    fn base() -> Cell {
        Cell::once(ctx().machine(true), ctx().workload(BenchmarkId::MolDyn, 2))
    }

    #[test]
    fn every_input_of_a_cell_changes_its_key() {
        let c = ctx();
        let spec = c.workload(BenchmarkId::MolDyn, 2);
        let with_cfg = |cfg: SystemConfig| Cell::once(cfg, spec);
        let jvm = jvm_config_for(BenchmarkId::MolDyn);
        let variants = [
            ("ht", with_cfg(c.machine(false))),
            (
                "partition",
                with_cfg(c.machine(true).with_partition(Partition::Dynamic)),
            ),
            (
                "l1d",
                with_cfg(
                    c.machine(true)
                        .with_mem(MemConfig::p4(true).with_l1d_kib(16)),
                ),
            ),
            (
                "prefetch",
                with_cfg(
                    c.machine(true)
                        .with_mem(MemConfig::p4(true).with_l2_prefetch(true)),
                ),
            ),
            (
                "background jit",
                Cell::once_with_jvm(c.machine(true), spec, jvm.with_background_jit(true)),
            ),
            (
                "threads",
                Cell::once(c.machine(true), c.workload(BenchmarkId::MolDyn, 4)),
            ),
            ("scale", Cell::once(c.machine(true), spec.with_scale(0.06))),
            ("seed", with_cfg(c.machine(true).with_seed(8))),
            (
                "launch",
                Cell {
                    procs: vec![(spec, Launch::Relaunching)],
                    ..base()
                },
            ),
            (
                "stop rule",
                Cell {
                    completions: 3,
                    ..base()
                },
            ),
        ];
        let key = base().key();
        for (what, cell) in &variants {
            assert_ne!(cell, &base(), "{what}");
            assert_ne!(cell.key(), key, "changing the {what} must change the key");
        }
    }

    #[test]
    fn equal_cells_built_different_ways_share_a_key() {
        let c = ctx();
        let spec = c.workload(BenchmarkId::MolDyn, 2);
        let pairs = [
            (
                "8 KiB L1D",
                Cell::once(
                    c.machine(true)
                        .with_mem(MemConfig::p4(true).with_l1d_kib(8)),
                    spec,
                ),
            ),
            (
                "prefetch off",
                Cell::once(
                    c.machine(true)
                        .with_mem(MemConfig::p4(true).with_l2_prefetch(false)),
                    spec,
                ),
            ),
            (
                "instant JIT",
                Cell::once_with_jvm(
                    c.machine(true),
                    spec,
                    jvm_config_for(BenchmarkId::MolDyn).with_background_jit(false),
                ),
            ),
        ];
        for (what, cell) in pairs {
            assert_eq!(cell, base(), "{what}");
            assert_eq!(cell.key(), base().key(), "{what}");
        }
    }

    #[test]
    fn a_once_cell_matches_add_process() {
        let c = ExperimentCtx {
            scale: 0.01,
            ..ctx()
        };
        let spec = c.workload(BenchmarkId::Db, 1);
        let mut sys = System::new(c.machine(true));
        sys.add_process(spec);
        let direct = sys.run_to_completion();
        let cell = Cell::once(c.machine(true), spec).simulate();
        assert_eq!(cell.cycles, direct.cycles);
        assert_eq!(cell.bank, direct.bank);
    }
}
