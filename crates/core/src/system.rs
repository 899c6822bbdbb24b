//! The assembled machine: core + OS + JVM processes + kernels.

use std::collections::VecDeque;

use jsmt_cpu::{ExecTier, FetchQueue, SmtCore, TraceStats};
use jsmt_isa::Asid;
use jsmt_isa::Uop;
use jsmt_jvm::{EmitCtx, GcWorkGen, JitWorkGen, JvmProcess};
use jsmt_os::{KernelCodegen, KernelService, SchedEvent, Scheduler, ThreadId, ThreadState};
use jsmt_perfmon::{CounterBank, DerivedMetrics, Event, LogicalCpu, Sampler};
use jsmt_workloads::{
    build, jvm_config_for, BenchmarkId, BlockReason, Kernel, StepOutcome, WorkloadSpec,
};

use crate::SystemConfig;

/// What an OS thread does when scheduled.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Runs kernel-thread `ktid` of process `proc`.
    Mutator { proc: usize, ktid: usize },
    /// The GC helper thread of process `proc`.
    Gc { proc: usize },
    /// The background JIT compiler thread of process `proc` (only
    /// spawned when `JvmConfig::background_jit` is set).
    Jit { proc: usize },
}

#[derive(Debug)]
struct OsThread {
    role: Role,
    pending: VecDeque<Uop>,
    /// Base of this thread's simulated stack slab.
    stack_base: u64,
}

struct Process {
    spec: WorkloadSpec,
    jvm: JvmProcess,
    kernel: Box<dyn Kernel>,
    /// Kernel-thread index → OS thread id.
    mutators: Vec<ThreadId>,
    gc_thread: ThreadId,
    gc_requested: bool,
    gc_gen: Option<GcWorkGen>,
    parked_for_gc: Vec<ThreadId>,
    finished_threads: Vec<bool>,
    /// Whether to restart the benchmark when it completes (the paper's
    /// re-launch utility for multiprogrammed measurements, §4.2).
    relaunch: bool,
    completions: u64,
    completion_cycles: Vec<u64>,
    gc_count: u64,
    /// Background compiler thread (when background JIT is enabled).
    jit_thread: Option<ThreadId>,
    jit_gen: Option<(jsmt_jvm::MethodId, JitWorkGen)>,
    compiles_done: u64,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("spec", &self.spec)
            .field("completions", &self.completions)
            .field("gc_count", &self.gc_count)
            .finish_non_exhaustive()
    }
}

/// Everything in the system except the core (split so the core's cycle
/// callback can borrow it mutably).
struct World {
    sched: Scheduler,
    kcg: KernelCodegen,
    threads: Vec<OsThread>,
    procs: Vec<Process>,
    os_cfg: jsmt_os::OsConfig,
    extra: CounterBank,
    emit_buf: Vec<Uop>,
    now: u64,
    seed: u64,
}

impl World {
    /// Supply µops for the thread bound to `lcpu`, writing straight into
    /// the context's fetch queue (no intermediate buffer).
    fn fill(&mut self, lcpu: LogicalCpu, buf: &mut FetchQueue, max: usize) -> usize {
        // Injected starvation: the µop supply dries up from the clause's
        // trigger cycle on, livelocking the machine so forward-progress
        // watchdogs can be exercised deterministically. One relaxed
        // atomic load when disarmed.
        if jsmt_faults::starved(self.now) {
            return 0;
        }
        let Some(tid) = self.sched.running_on(lcpu.index()) else {
            return 0;
        };
        let ti = tid.0 as usize;

        if self.threads[ti].pending.is_empty() {
            self.generate(lcpu, tid);
        }
        let th = &mut self.threads[ti];
        let n = th.pending.len().min(max);
        for uop in th.pending.drain(..n) {
            buf.push_back(uop);
        }
        n
    }

    /// Emit `n` µops of a kernel service straight onto the tail of thread
    /// `ti`'s pending stream (the common append path; interrupt-style
    /// front-insertion keeps its own buffered path).
    fn push_kernel_uops(&mut self, ti: usize, service: KernelService, n: u32) {
        self.kcg.emit(service, n, &mut self.threads[ti].pending);
    }

    /// Produce the next block of the thread's stream into its pending
    /// queue.
    fn generate(&mut self, lcpu: LogicalCpu, tid: ThreadId) {
        let ti = tid.0 as usize;
        match self.threads[ti].role {
            Role::Gc { proc } => {
                let World { procs, threads, .. } = self;
                if let Some(gen) = procs[proc].gc_gen.as_mut() {
                    gen.emit(&mut threads[ti].pending, 96);
                }
                // An exhausted generator is put back to sleep by the GC
                // coordination phase.
            }
            Role::Jit { proc } => {
                let World { procs, threads, .. } = self;
                if let Some((_, gen)) = procs[proc].jit_gen.as_mut() {
                    gen.emit(&mut threads[ti].pending, 96);
                }
                // Completion is handled by the helper-thread
                // coordination phase.
            }
            Role::Mutator { proc, ktid } => {
                let p = &mut self.procs[proc];
                if p.finished_threads[ktid] {
                    return;
                }
                if p.gc_requested {
                    // Safepoint: park until the collection completes.
                    self.sched.block(tid);
                    p.parked_for_gc.push(tid);
                    return;
                }
                self.emit_buf.clear();
                let stack_base = self.threads[ti].stack_base;
                let result = {
                    let mut ctx =
                        EmitCtx::new(&mut p.jvm, &mut self.emit_buf).with_stack(stack_base);
                    p.kernel.step(ktid, &mut ctx)
                };
                let th = &mut self.threads[ti];
                th.pending.extend(self.emit_buf.drain(..));
                for &w in &result.wake {
                    self.sched.wake(p.mutators[w]);
                }
                let syscall_uops = self.os_cfg.syscall_uops;
                for _ in 0..result.syscalls {
                    self.push_kernel_uops(ti, KernelService::Syscall, syscall_uops);
                    self.extra.inc(lcpu, Event::Syscalls);
                }
                match result.outcome {
                    StepOutcome::Ran => {}
                    StepOutcome::NeedsGc => {
                        let p = &mut self.procs[proc];
                        p.gc_requested = true;
                        p.parked_for_gc.push(tid);
                        self.sched.block(tid);
                    }
                    StepOutcome::Blocked(reason) => {
                        if matches!(reason, BlockReason::Monitor(_)) {
                            self.extra.inc(lcpu, Event::MonitorContended);
                            // The contended slow path traps to the kernel
                            // futex.
                            let futex_uops = self.os_cfg.futex_uops;
                            self.push_kernel_uops(ti, KernelService::Futex, futex_uops);
                        }
                        self.sched.block(tid);
                    }
                    StepOutcome::Finished => {
                        let p = &mut self.procs[proc];
                        p.finished_threads[ktid] = true;
                        self.sched.finish(tid);
                        self.maybe_complete(proc);
                    }
                }
            }
        }
    }

    /// Record a benchmark completion and (for re-launch runs) respawn it.
    fn maybe_complete(&mut self, proc: usize) {
        let now = self.now;
        let p = &mut self.procs[proc];
        if !p.finished_threads.iter().all(|&f| f) {
            return;
        }
        p.completions += 1;
        p.completion_cycles.push(now);
        if !p.relaunch {
            return;
        }
        // Fresh JVM process (same address space id) and kernel, exactly
        // like re-executing the java command.
        let asid = p.jvm.asid();
        let old_cfg = *p.jvm.config();
        p.jvm = JvmProcess::new(asid.0, old_cfg);
        p.kernel = build(p.spec);
        p.kernel.setup(&mut p.jvm);
        p.gc_requested = false;
        p.gc_gen = None;
        p.jit_gen = None;
        p.parked_for_gc.clear();
        p.finished_threads = vec![false; p.spec.threads];
        let nthreads = p.spec.threads;
        let mut new_mutators = Vec::with_capacity(nthreads);
        for ktid in 0..nthreads {
            let tid = self.sched.spawn(asid);
            new_mutators.push(tid);
            let stack_base = self.procs[proc].jvm.alloc_stack(64 * 1024);
            self.threads.push(OsThread {
                role: Role::Mutator { proc, ktid },
                pending: VecDeque::new(),
                stack_base,
            });
            // Thread creation cost, charged to the new thread.
            let last = self.threads.len() - 1;
            let spawn_uops = self.os_cfg.thread_spawn_uops;
            self.push_kernel_uops(last, KernelService::ThreadSpawn, spawn_uops);
        }
        self.procs[proc].mutators = new_mutators;
    }

    /// Stop-the-world GC coordination, run once per cycle.
    fn gc_coordination(&mut self) {
        for proc in 0..self.procs.len() {
            // Start a collection once every mutator is parked.
            if self.procs[proc].gc_requested && self.procs[proc].gc_gen.is_none() {
                let all_parked = self.procs[proc].mutators.iter().all(|&t| {
                    matches!(
                        self.sched.state(t),
                        ThreadState::Blocked | ThreadState::Finished
                    )
                });
                if all_parked {
                    // A GC-component fault fires at the start of a
                    // collection — the most state-heavy moment of the
                    // JVM's life, and a deterministic one.
                    jsmt_faults::check_cycle("gc", self.now);
                    let p = &mut self.procs[proc];
                    let live = p.jvm.collect();
                    let heap_base = p.jvm.heap().base();
                    p.gc_gen = Some(GcWorkGen::new(
                        heap_base,
                        live,
                        self.seed ^ (p.gc_count + 1),
                    ));
                    p.gc_count += 1;
                    self.extra.inc(LogicalCpu::Lp0, Event::GcCount);
                    let gc_tid = p.gc_thread;
                    self.sched.wake(gc_tid);
                }
            }
            // Finish a collection whose work has fully drained.
            let done = match &self.procs[proc].gc_gen {
                Some(gen) => {
                    gen.is_done()
                        && self.threads[self.procs[proc].gc_thread.0 as usize]
                            .pending
                            .is_empty()
                }
                None => false,
            };
            if done {
                let gc_tid = self.procs[proc].gc_thread;
                self.procs[proc].gc_gen = None;
                self.procs[proc].gc_requested = false;
                self.sched.block(gc_tid);
                let parked = std::mem::take(&mut self.procs[proc].parked_for_gc);
                for t in parked {
                    self.sched.wake(t);
                }
            }
            // Attribute GC-thread CPU time.
            if self.procs[proc].gc_gen.is_some() {
                for l in 0..2 {
                    if self.sched.running_on(l) == Some(self.procs[proc].gc_thread) {
                        self.extra.inc(LogicalCpu::from_index(l), Event::GcCycles);
                    }
                }
            }

            // Background JIT: start queued compilations, finish drained
            // ones.
            let Some(jit_tid) = self.procs[proc].jit_thread else {
                continue;
            };
            if self.procs[proc].jit_gen.is_none() {
                if let Some(m) = self.procs[proc].jvm.methods_mut().take_compile_request() {
                    let (base, size) = self.procs[proc].jvm.methods().body_of(m);
                    self.procs[proc].jit_gen =
                        Some((m, JitWorkGen::new(base, size, self.seed ^ m.0 as u64)));
                    self.sched.wake(jit_tid);
                }
            }
            let jit_done = match &self.procs[proc].jit_gen {
                Some((_, gen)) => {
                    gen.is_done() && self.threads[jit_tid.0 as usize].pending.is_empty()
                }
                None => false,
            };
            if jit_done {
                let (m, _) = self.procs[proc].jit_gen.take().expect("checked");
                self.procs[proc].jvm.methods_mut().mark_compiled(m);
                self.procs[proc].compiles_done += 1;
                if !self.procs[proc].jvm.methods().has_pending_compiles() {
                    self.sched.block(jit_tid);
                }
            }
        }
    }

    /// Replicate [`World::gc_coordination`]'s per-cycle GC-thread CPU-time
    /// attribution for `k` fast-forwarded cycles in one step. Only valid
    /// across a span where no thread state or GC state can change — the
    /// fast-forward contract guarantees exactly that.
    fn bulk_gc_cycles(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        for p in &self.procs {
            if p.gc_gen.is_some() {
                for l in 0..2 {
                    if self.sched.running_on(l) == Some(p.gc_thread) {
                        self.extra
                            .add(LogicalCpu::from_index(l), Event::GcCycles, k);
                    }
                }
            }
        }
    }
}

/// Per-process results of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessReport {
    /// The workload that ran.
    pub spec: WorkloadSpec,
    /// Completed executions.
    pub completions: u64,
    /// Machine cycle of each completion.
    pub completion_cycles: Vec<u64>,
    /// Collections performed.
    pub gc_count: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Methods compiled by the background compiler thread.
    pub compiles_done: u64,
}

impl ProcessReport {
    /// Durations of the individual executions (differences of completion
    /// cycles; the first starts at cycle 0).
    pub fn durations(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.completion_cycles.len());
        let mut prev = 0;
        for &c in &self.completion_cycles {
            out.push(c - prev);
            prev = c;
        }
        out
    }

    /// The paper's measurement rule: average the completion times after
    /// dropping the first run (cold start) and the last (possibly
    /// truncated). Falls back to the plain mean when fewer than three
    /// runs completed.
    pub fn mean_duration(&self) -> f64 {
        let d = self.durations();
        if d.is_empty() {
            return f64::NAN;
        }
        let trimmed: &[u64] = if d.len() >= 3 {
            &d[1..d.len() - 1]
        } else {
            &d[..]
        };
        trimmed.iter().sum::<u64>() as f64 / trimmed.len() as f64
    }
}

/// Synchronization counters of a run: scheduler block/wake events plus
/// one process's monitor statistics (see [`System::sync_stats`]). The
/// litmus harness records these per seed — being pure counter reads, they
/// are part of the bit-identity surface across exec tiers and resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Scheduler block-event total (all processes).
    pub block_events: u64,
    /// Scheduler wake-event total (all processes).
    pub wake_events: u64,
    /// `Object.wait` calls in the process's monitor table.
    pub waits: u64,
    /// Threads notified in the process's monitor table.
    pub notifies: u64,
    /// Contended monitor acquisitions in the process.
    pub contended: u64,
    /// Threads currently parked in wait sets.
    pub wait_parked: usize,
    /// Threads currently in the pending-notify window.
    pub pending_notify: usize,
}

/// Results of a run: raw counters, derived metrics, per-process outcomes.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Elapsed machine cycles.
    pub cycles: u64,
    /// Merged counters (core events + system-level events).
    pub bank: CounterBank,
    /// Derived metrics over the whole run.
    pub metrics: DerivedMetrics,
    /// Per-process outcomes, in `add_process` order.
    pub processes: Vec<ProcessReport>,
}

/// The assembled machine.
pub struct System {
    cfg: SystemConfig,
    core: SmtCore,
    world: World,
    started: bool,
    jvm_override: Option<jsmt_jvm::JvmConfig>,
    sampler: Option<Sampler>,
    /// Supervision context captured from the constructing thread (see
    /// `experiments::supervise`); `None` on unsupervised runs, where
    /// every check below is a single branch.
    supervision: Option<crate::experiments::supervise::Supervision>,
    /// Forward-progress watchdog anchor: the retired-µop total last seen
    /// to increase, and the cycle at which it did.
    watch_retired: u64,
    watch_cycle: u64,
    /// Next machine cycle at which to refresh the crash-tail checkpoint
    /// (`u64::MAX` = periodic checkpointing off).
    next_tail_ckpt: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cycles", &self.core.cycles())
            .field("processes", &self.world.procs.len())
            .finish_non_exhaustive()
    }
}

impl System {
    /// A machine with no processes yet. If the constructing thread is
    /// running a supervised experiment cell, the machine picks up the
    /// supervision context (cancellation flag, watchdog thresholds,
    /// crash-tail slot) and cooperates with it; otherwise behavior is
    /// exactly as before.
    pub fn new(cfg: SystemConfig) -> Self {
        let supervision = crate::experiments::supervise::current();
        let next_tail_ckpt = supervision
            .as_ref()
            .map(|s| s.checkpoint_every)
            .filter(|&every| every > 0)
            .unwrap_or(u64::MAX);
        System {
            core: SmtCore::new(cfg.core, cfg.mem),
            world: World {
                sched: Scheduler::new(cfg.os, cfg.core.ht_enabled),
                kcg: KernelCodegen::new(cfg.seed ^ 0xF00D),
                threads: Vec::new(),
                procs: Vec::new(),
                os_cfg: cfg.os,
                extra: CounterBank::new(),
                emit_buf: Vec::with_capacity(2048),
                now: 0,
                seed: cfg.seed,
            },
            cfg,
            started: false,
            jvm_override: None,
            sampler: None,
            supervision,
            watch_retired: 0,
            watch_cycle: 0,
            next_tail_ckpt,
        }
    }

    /// Attach an interval sampler: every `interval_cycles` machine cycles
    /// the counter deltas are snapshotted (the Pentium 4's event-based
    /// sampling, as Brink & Abyss exposes it). Retrieve the series with
    /// [`System::sampler`].
    pub fn attach_sampler(&mut self, interval_cycles: u64) {
        self.sampler = Some(Sampler::new(interval_cycles));
    }

    /// The attached sampler, if any.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// Add a JVM process running `spec` once (no re-launch).
    pub fn add_process(&mut self, spec: WorkloadSpec) -> usize {
        self.add_process_inner(spec, false)
    }

    /// Add a JVM process that re-launches on completion (multiprogram
    /// methodology).
    pub fn add_relaunching_process(&mut self, spec: WorkloadSpec) -> usize {
        self.add_process_inner(spec, true)
    }

    /// Add a process with an explicit JVM configuration (heap-size and
    /// survival ablations).
    pub fn add_process_with_jvm(&mut self, spec: WorkloadSpec, jvm: jsmt_jvm::JvmConfig) -> usize {
        self.jvm_override = Some(jvm);
        let idx = self.add_process_inner(spec, false);
        self.jvm_override = None;
        idx
    }

    fn add_process_inner(&mut self, spec: WorkloadSpec, relaunch: bool) -> usize {
        assert!(
            !self.started,
            "processes must be added before the first cycle"
        );
        let proc_idx = self.world.procs.len();
        let asid = Asid(proc_idx as u16 + 1);
        let jvm_cfg = self.jvm_override.unwrap_or_else(|| jvm_config_for(spec.id));
        let mut jvm = JvmProcess::new(asid.0, jvm_cfg);
        let mut kernel = build(spec);
        kernel.setup(&mut jvm);

        let mut mutators = Vec::with_capacity(spec.threads);
        for ktid in 0..spec.threads {
            let tid = self.world.sched.spawn(asid);
            mutators.push(tid);
            let stack_base = jvm.alloc_stack(64 * 1024);
            self.world.threads.push(OsThread {
                role: Role::Mutator {
                    proc: proc_idx,
                    ktid,
                },
                pending: VecDeque::new(),
                stack_base,
            });
        }
        // The GC helper thread exists from JVM start but sleeps until a
        // collection is requested.
        let gc_thread = self.world.sched.spawn(asid);
        let gc_stack = jvm.alloc_stack(64 * 1024);
        self.world.threads.push(OsThread {
            role: Role::Gc { proc: proc_idx },
            pending: VecDeque::new(),
            stack_base: gc_stack,
        });
        self.world.sched.block(gc_thread);

        // The background compiler thread, when the JVM is configured for
        // it; sleeps until a method queues for compilation.
        let jit_thread = if jvm.config().background_jit {
            let t = self.world.sched.spawn(asid);
            let jit_stack = jvm.alloc_stack(64 * 1024);
            self.world.threads.push(OsThread {
                role: Role::Jit { proc: proc_idx },
                pending: VecDeque::new(),
                stack_base: jit_stack,
            });
            self.world.sched.block(t);
            Some(t)
        } else {
            None
        };

        self.world.procs.push(Process {
            spec,
            jvm,
            kernel,
            mutators,
            gc_thread,
            gc_requested: false,
            gc_gen: None,
            parked_for_gc: Vec::new(),
            finished_threads: vec![false; spec.threads],
            relaunch,
            completions: 0,
            completion_cycles: Vec::new(),
            gc_count: 0,
            jit_thread,
            jit_gen: None,
            compiles_done: 0,
        });
        proc_idx
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Elapsed machine cycles.
    pub fn cycles(&self) -> u64 {
        self.core.cycles()
    }

    /// Completions of process `idx`.
    pub fn completions(&self, idx: usize) -> u64 {
        self.world.procs[idx].completions
    }

    /// The interleaving observation of process `idx`'s kernel, if the
    /// kernel defines one (the litmus family's outcome label). Meaningful
    /// only once the process has completed.
    pub fn observation(&self, idx: usize) -> Option<String> {
        self.world.procs[idx].kernel.observation()
    }

    /// Synchronization counters of the run so far: the scheduler's
    /// block/wake event totals plus process `idx`'s monitor statistics.
    pub fn sync_stats(&self, idx: usize) -> SyncStats {
        let mons = self.world.procs[idx].jvm.monitors();
        SyncStats {
            block_events: self.world.sched.block_events(),
            wake_events: self.world.sched.wake_events(),
            waits: mons.waits_total(),
            notifies: mons.notifies_total(),
            contended: mons.contended_total(),
            wait_parked: mons.wait_parked_total(),
            pending_notify: mons.pending_notify_total(),
        }
    }

    /// Advance the machine by one cycle.
    pub fn step_cycle(&mut self) {
        self.step_span(1);
    }

    /// Enable or disable the core's event-driven fast-forward (on by
    /// default unless the `JSMT_NO_FASTFWD=1` environment variable is
    /// set). Results are bit-identical either way; disabling forces the
    /// plain cycle-by-cycle loop.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.core.set_fast_forward(enabled);
    }

    /// Enable or disable the core's compiled-trace tier (on by default
    /// unless the `JSMT_NO_TRACE_TIER=1` environment variable is set).
    /// Results are bit-identical either way; disabling falls back to the
    /// batched SoA stepper.
    pub fn set_trace_tier(&mut self, enabled: bool) {
        self.core.set_exec_tier(if enabled {
            ExecTier::Trace
        } else {
            ExecTier::Batched
        });
    }

    /// Compile/replay statistics of the core's trace tier.
    pub fn trace_stats(&self) -> TraceStats {
        self.core.trace_stats()
    }

    /// Whether a compiled-trace replay is currently sound at the system
    /// level: the span compression skips the per-cycle scheduler/GC/fault
    /// observation points, which is only exact when none of them could
    /// fire — no fault clauses armed, and every process GC- and JIT-idle.
    /// (Timed scheduler events and the sampler are handled by capping the
    /// replay span, exactly like fast-forward.)
    fn trace_replay_sound(&self) -> bool {
        !jsmt_faults::armed()
            && self
                .world
                .procs
                .iter()
                .all(|p| !p.gc_requested && p.gc_gen.is_none() && p.jit_gen.is_none())
    }

    /// Advance by at least one and at most `max_advance` cycles, taking
    /// the core's stall fast-forward when the whole system is provably
    /// quiet: no scheduling events fired this cycle, and the jump is
    /// capped so the next timer/timeslice decision and the next sampler
    /// interval land on exactly the cycle they would have stepwise.
    /// Returns the number of cycles advanced.
    fn step_span(&mut self, max_advance: u64) -> u64 {
        self.started = true;
        self.world.now = self.core.cycles();
        // Fault and supervision hooks, once per span: a `panic` clause
        // targeting the `system` component fires here, and a supervised
        // run checks its cancellation flag and forward-progress watchdog.
        // Both are a single branch when disarmed/unsupervised.
        jsmt_faults::check_cycle("system", self.world.now);
        if self.supervision.is_some() {
            self.supervised_checks();
        }
        self.world.gc_coordination();

        let drained = [
            self.core.snapshot(LogicalCpu::Lp0).drained,
            self.core.snapshot(LogicalCpu::Lp1).drained,
        ];
        let mut events = Vec::new();
        self.world.sched.tick(self.world.now, drained, &mut events);
        let quiet = events.is_empty();
        for ev in events {
            match ev {
                SchedEvent::Bind { lcpu, thread, asid } => {
                    let l = LogicalCpu::from_index(lcpu);
                    self.core.bind(l, asid);
                    self.world.extra.inc(l, Event::ContextSwitches);
                    // Switch-in kernel cost, charged to the incoming
                    // thread's stream.
                    self.world.emit_buf.clear();
                    self.world.kcg.emit(
                        KernelService::ContextSwitch,
                        self.world.os_cfg.ctx_switch_uops,
                        &mut self.world.emit_buf,
                    );
                    let ti = thread.0 as usize;
                    // Interrupt-style: handler runs before the user stream
                    // resumes.
                    for uop in self.world.emit_buf.drain(..).rev() {
                        self.world.threads[ti].pending.push_front(uop);
                    }
                }
                SchedEvent::RequestDrain { lcpu } => {
                    self.core.request_drain(LogicalCpu::from_index(lcpu));
                }
                SchedEvent::Unbind { lcpu, .. } => {
                    self.core.unbind(LogicalCpu::from_index(lcpu));
                }
                SchedEvent::Timer { lcpu } => {
                    let l = LogicalCpu::from_index(lcpu);
                    self.world.extra.inc(l, Event::TimerInterrupts);
                    if let Some(tid) = self.world.sched.running_on(lcpu) {
                        self.world.emit_buf.clear();
                        self.world.kcg.emit(
                            KernelService::TimerInterrupt,
                            self.world.os_cfg.timer_uops,
                            &mut self.world.emit_buf,
                        );
                        let ti = tid.0 as usize;
                        for uop in self.world.emit_buf.drain(..).rev() {
                            self.world.threads[ti].pending.push_front(uop);
                        }
                    }
                }
            }
        }

        if quiet {
            let now = self.world.now;
            let mut allowed = max_advance;
            let next_timed = self.world.sched.next_timed_event(now);
            if next_timed != u64::MAX {
                allowed = allowed.min(next_timed - now);
            }
            if let Some(s) = &self.sampler {
                allowed = allowed.min(s.next_due().max(now + 1) - now);
            }
            let skipped = self.core.fast_forward(allowed);
            if skipped > 0 {
                // This step's gc_coordination covered cycle `now`; the
                // remaining skipped-over cycles get their attribution in
                // bulk.
                self.world.bulk_gc_cycles(skipped - 1);
                if let Some(sampler) = self.sampler.as_mut() {
                    sampler.tick(self.core.cycles(), self.core.counters());
                }
                return skipped;
            }
            // Fast-forward only wins on quiet cycles; the compiled-trace
            // tier compresses *busy* spans. Offer the running thread's
            // already-materialized pending µops — a replay only applies
            // when every fill in the span is a pure drain of that buffer
            // (so `World::fill` would never have called `generate`, whose
            // scheduler side effects a bulk apply cannot reproduce).
            if self.core.trace_tier_enabled() && self.trace_replay_sound() {
                let bound = [
                    self.core.snapshot(LogicalCpu::Lp0).bound,
                    self.core.snapshot(LogicalCpu::Lp1).bound,
                ];
                if let [true, false] | [false, true] = bound {
                    let lcpu = usize::from(bound[1]);
                    if let Some(tid) = self.world.sched.running_on(lcpu) {
                        let pending = &self.world.threads[tid.0 as usize].pending;
                        let (cycles, consumed) = self.core.trace_step(allowed, pending);
                        if cycles > 0 {
                            self.world.threads[tid.0 as usize].pending.drain(..consumed);
                            self.world.bulk_gc_cycles(cycles - 1);
                            if let Some(sampler) = self.sampler.as_mut() {
                                sampler.tick(self.core.cycles(), self.core.counters());
                            }
                            return cycles;
                        }
                    }
                }
            }
        }

        let world = &mut self.world;
        self.core
            .cycle(&mut |lcpu, buf, max| world.fill(lcpu, buf, max));

        if let Some(sampler) = self.sampler.as_mut() {
            sampler.tick(self.core.cycles(), self.core.counters());
        }
        1
    }

    /// The supervised run's cooperative checks, once per span:
    ///
    /// * publish the current cycle (failure attribution for panics that
    ///   carry no cycle of their own);
    /// * honor the cancellation flag (deadline monitor / external
    ///   cancel) by aborting the cell with a typed panic;
    /// * forward-progress watchdog: if the machine-wide retired-µop
    ///   total has not moved for `livelock_cycles` cycles — no
    ///   retirement on either hardware context — trip the livelock
    ///   diagnostic;
    /// * refresh the crash-tail checkpoint every `checkpoint_every`
    ///   cycles so a later failure's bundle carries recent state.
    ///
    /// Every check only *observes* the simulation; the machine's own
    /// state is never perturbed, so a supervised healthy run stays
    /// bit-identical to an unsupervised one.
    fn supervised_checks(&mut self) {
        use std::sync::atomic::Ordering;

        // Borrowed: on busy co-runs a span is one cycle, and cloning the
        // context's three `Arc`s per span costs a grid over a tenth of
        // its wall time.
        let Some(sup) = &self.supervision else {
            return;
        };
        let now = self.core.cycles();
        sup.cycle.store(now, Ordering::Relaxed);

        use crate::experiments::supervise::{CellAbort, ABORT_CANCELLED, ABORT_DEADLINE};
        match sup.flag.load(Ordering::Relaxed) {
            ABORT_DEADLINE => std::panic::panic_any(CellAbort::Deadline { cycle: now }),
            ABORT_CANCELLED => std::panic::panic_any(CellAbort::Cancelled { cycle: now }),
            _ => {}
        }

        if sup.livelock_cycles > 0 {
            let retired = self.core.counters().total(Event::UopsRetired);
            if retired != self.watch_retired {
                self.watch_retired = retired;
                self.watch_cycle = now;
            } else if now.saturating_sub(self.watch_cycle) >= sup.livelock_cycles {
                std::panic::panic_any(CellAbort::Livelock {
                    cycle: now,
                    stalled_for: now - self.watch_cycle,
                });
            }
        }

        if now >= self.next_tail_ckpt {
            self.next_tail_ckpt = now.saturating_add(sup.checkpoint_every.max(1));
            let checkpoint = self.checkpoint();
            let mut bank = self.core.counters().clone();
            bank.merge(&self.world.extra);
            let counters = jsmt_snapshot::save_bytes(&bank);
            let mut tail = sup.tail.lock().expect("crash tail");
            tail.checkpoint = Some(checkpoint);
            tail.counters = Some(counters);
        }
    }

    /// Run until every process has completed at least `target` executions.
    ///
    /// # Panics
    ///
    /// Panics if the configured cycle cap is exceeded (indicates a
    /// deadlock or an unreasonably large workload).
    pub fn run_until_completions(&mut self, target: u64) -> RunReport {
        while self.world.procs.iter().any(|p| p.completions < target) {
            // Spans are capped at the cycle budget so a quiet deadlock
            // still trips the assertion at exactly the stepwise cycle.
            let remaining = self
                .cfg
                .max_cycles
                .saturating_sub(self.core.cycles())
                .max(1);
            self.step_span(remaining);
            assert!(
                self.core.cycles() < self.cfg.max_cycles,
                "cycle cap exceeded at {} cycles (progress: {:?})",
                self.core.cycles(),
                self.world
                    .procs
                    .iter()
                    .map(|p| p.kernel.progress())
                    .collect::<Vec<_>>()
            );
        }
        self.report()
    }

    /// Run every process to (first) completion.
    pub fn run_to_completion(&mut self) -> RunReport {
        self.run_until_completions(1)
    }

    /// Run for a fixed number of cycles (interval profiling).
    pub fn run_cycles(&mut self, cycles: u64) -> RunReport {
        let end = self.core.cycles() + cycles;
        while self.core.cycles() < end {
            self.step_span(end - self.core.cycles());
        }
        self.report()
    }

    /// Produce the report for the run so far.
    pub fn report(&self) -> RunReport {
        let mut bank = self.core.counters().clone();
        bank.merge(&self.world.extra);
        for p in &self.world.procs {
            bank.add(
                LogicalCpu::Lp0,
                Event::Allocations,
                p.jvm.heap().stats().objects,
            );
        }
        let cycles = self.core.cycles();
        RunReport {
            cycles,
            metrics: DerivedMetrics::from_bank(&bank, cycles),
            processes: self
                .world
                .procs
                .iter()
                .map(|p| ProcessReport {
                    spec: p.spec,
                    completions: p.completions,
                    completion_cycles: p.completion_cycles.clone(),
                    gc_count: p.gc_count,
                    allocations: p.jvm.heap().stats().objects,
                    compiles_done: p.compiles_done,
                })
                .collect(),
            bank,
        }
    }
}

/// Snapshot kind tag of a whole-system checkpoint file.
pub(crate) const KIND_SYSTEM: u32 = 1;

/// FNV-1a fingerprint of the machine configuration. A checkpoint is only
/// resumable on the *identical* configuration (geometry, seed, cycle
/// cap): everything not serialized is reconstructed from it.
fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    jsmt_snapshot::fnv64(format!("{cfg:?}").as_bytes())
}

fn save_role(w: &mut jsmt_snapshot::Writer, role: Role) {
    let (tag, proc, ktid) = match role {
        Role::Mutator { proc, ktid } => (0u8, proc, ktid),
        Role::Gc { proc } => (1, proc, 0),
        Role::Jit { proc } => (2, proc, 0),
    };
    w.put_u8(tag);
    w.put_usize(proc);
    w.put_usize(ktid);
}

fn restore_role(
    r: &mut jsmt_snapshot::Reader<'_>,
    procs: &[Process],
) -> Result<Role, jsmt_snapshot::SnapshotError> {
    let tag = r.get_u8()?;
    let proc = r.get_usize()?;
    let ktid = r.get_usize()?;
    if proc >= procs.len() {
        return Err(jsmt_snapshot::SnapshotError::Corrupt(
            "thread role references unknown process",
        ));
    }
    match tag {
        0 => {
            if ktid >= procs[proc].spec.threads {
                return Err(jsmt_snapshot::SnapshotError::Corrupt(
                    "mutator role kernel-thread index out of range",
                ));
            }
            Ok(Role::Mutator { proc, ktid })
        }
        1 => Ok(Role::Gc { proc }),
        2 => Ok(Role::Jit { proc }),
        _ => Err(jsmt_snapshot::SnapshotError::Corrupt(
            "unknown thread role tag",
        )),
    }
}

fn check_tid(tid: u64, nthreads: usize) -> Result<ThreadId, jsmt_snapshot::SnapshotError> {
    if tid as usize >= nthreads {
        return Err(jsmt_snapshot::SnapshotError::Corrupt(
            "process bookkeeping references unknown thread",
        ));
    }
    Ok(ThreadId(tid as u32))
}

impl Process {
    /// Mutable bookkeeping of one process (the kernel and JVM have their
    /// own sections). `spec`, `relaunch` and the JVM configuration live
    /// in the checkpoint header because they are reconstruction inputs.
    fn save_book(&self, w: &mut jsmt_snapshot::Writer) {
        w.put_usize(self.mutators.len());
        for t in &self.mutators {
            w.put_u64(u64::from(t.0));
        }
        w.put_u64(u64::from(self.gc_thread.0));
        w.put_bool(self.gc_requested);
        match &self.gc_gen {
            Some(gen) => {
                w.put_bool(true);
                gen.write_to(w);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.parked_for_gc.len());
        for t in &self.parked_for_gc {
            w.put_u64(u64::from(t.0));
        }
        for &f in &self.finished_threads {
            w.put_bool(f);
        }
        w.put_u64(self.completions);
        w.put_u64_slice(&self.completion_cycles);
        w.put_u64(self.gc_count);
        w.put_opt_u64(self.jit_thread.map(|t| u64::from(t.0)));
        match &self.jit_gen {
            Some((m, gen)) => {
                w.put_bool(true);
                w.put_u32(m.0);
                gen.write_to(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.compiles_done);
    }

    fn restore_book(
        &mut self,
        r: &mut jsmt_snapshot::Reader<'_>,
        nthreads: usize,
    ) -> Result<(), jsmt_snapshot::SnapshotError> {
        let nmut = r.get_len(8)?;
        if nmut != self.spec.threads {
            return Err(jsmt_snapshot::SnapshotError::Corrupt(
                "mutator count disagrees with workload spec",
            ));
        }
        let mut mutators = Vec::with_capacity(nmut);
        for _ in 0..nmut {
            mutators.push(check_tid(r.get_u64()?, nthreads)?);
        }
        self.mutators = mutators;
        self.gc_thread = check_tid(r.get_u64()?, nthreads)?;
        self.gc_requested = r.get_bool()?;
        self.gc_gen = if r.get_bool()? {
            Some(GcWorkGen::read_from(r)?)
        } else {
            None
        };
        let nparked = r.get_len(8)?;
        let mut parked = Vec::with_capacity(nparked);
        for _ in 0..nparked {
            parked.push(check_tid(r.get_u64()?, nthreads)?);
        }
        self.parked_for_gc = parked;
        for f in &mut self.finished_threads {
            *f = r.get_bool()?;
        }
        self.completions = r.get_u64()?;
        self.completion_cycles = r.get_u64_vec()?;
        self.gc_count = r.get_u64()?;
        let jit_tid = r.get_opt_u64()?;
        if jit_tid.is_some() != self.jit_thread.is_some() {
            return Err(jsmt_snapshot::SnapshotError::Corrupt(
                "compiler-thread presence disagrees with JVM configuration",
            ));
        }
        self.jit_thread = match jit_tid {
            Some(t) => Some(check_tid(t, nthreads)?),
            None => None,
        };
        self.jit_gen = if r.get_bool()? {
            let m = jsmt_jvm::MethodId(r.get_u32()?);
            Some((m, JitWorkGen::read_from(r)?))
        } else {
            None
        };
        self.compiles_done = r.get_u64()?;
        Ok(())
    }
}

impl System {
    /// Whether any process currently has a stop-the-world collection in
    /// flight (exposed so checkpoint tests can target mid-GC cycles).
    pub fn gc_active(&self) -> bool {
        self.world.procs.iter().any(|p| p.gc_gen.is_some())
    }

    /// Serialize the complete mutable state of the machine into a
    /// versioned, checksummed snapshot. [`System::resume`] on the same
    /// [`SystemConfig`] rebuilds a machine that continues bit-identically
    /// to this one — mid-GC, mid-JIT and mid-fast-forward included.
    ///
    /// Construction inputs (configurations, cache geometry, seeds,
    /// setup-built kernel corpora) are *not* serialized: resume re-runs
    /// the deterministic construction path and then overwrites every
    /// mutable field. The header records the workload roster so resume
    /// can re-add the same processes.
    pub fn checkpoint(&self) -> Vec<u8> {
        use jsmt_snapshot::Snapshotable;
        let mut w = jsmt_snapshot::Writer::new();
        w.section("meta", |w| {
            w.put_u64(config_fingerprint(&self.cfg));
            w.put_bool(self.started);
        });
        w.section("roster", |w| {
            w.put_usize(self.world.procs.len());
            for p in &self.world.procs {
                w.put_u8(p.spec.id.tag());
                w.put_usize(p.spec.threads);
                w.put_f64(p.spec.scale);
                w.put_bool(p.relaunch);
                p.jvm.config().write_to(w);
            }
        });
        w.section("core", |w| self.core.save_state(w));
        w.section("sched", |w| self.world.sched.save_state(w));
        w.section("kcg", |w| self.world.kcg.save_state(w));
        w.section("threads", |w| {
            w.put_usize(self.world.threads.len());
            for th in &self.world.threads {
                save_role(w, th.role);
                w.put_u64(th.stack_base);
                w.put_usize(th.pending.len());
                for uop in &th.pending {
                    uop.write_to(w);
                }
            }
        });
        w.section("procs", |w| {
            for (i, p) in self.world.procs.iter().enumerate() {
                w.section(&format!("p{i}"), |w| {
                    w.section("jvm", |w| p.jvm.save_state(w));
                    w.section("kernel", |w| p.kernel.save_state(w));
                    w.section("book", |w| p.save_book(w));
                });
            }
        });
        w.section("extra", |w| self.world.extra.save_state(w));
        w.section("sampler", |w| match &self.sampler {
            Some(s) => {
                w.put_bool(true);
                s.save_state(w);
            }
            None => w.put_bool(false),
        });
        jsmt_snapshot::seal(KIND_SYSTEM, &w.into_bytes())
    }

    /// Rebuild a machine from a [`System::checkpoint`] snapshot taken on
    /// the same configuration.
    ///
    /// # Errors
    ///
    /// Any framing, checksum, version or validation failure returns a
    /// [`jsmt_snapshot::SnapshotError`]; corrupt or truncated input never
    /// panics. A fingerprint mismatch means `cfg` differs from the
    /// checkpointed machine's configuration.
    pub fn resume(cfg: SystemConfig, bytes: &[u8]) -> Result<System, jsmt_snapshot::SnapshotError> {
        use jsmt_snapshot::{SnapshotError, Snapshotable};
        let mut r = jsmt_snapshot::open(bytes, KIND_SYSTEM)?;

        let mut meta = r.section("meta")?;
        if meta.get_u64()? != config_fingerprint(&cfg) {
            return Err(SnapshotError::Corrupt(
                "checkpoint was taken on a different machine configuration",
            ));
        }
        let started = meta.get_bool()?;
        meta.expect_end()?;

        // Re-run the deterministic construction path for the recorded
        // roster: every setup-derived address, method id and corpus comes
        // back identical, so only mutable state needs restoring.
        let mut roster = r.section("roster")?;
        let nprocs = roster.get_len(2)?;
        let mut sys = System::new(cfg);
        for _ in 0..nprocs {
            let id = BenchmarkId::from_tag(roster.get_u8()?)
                .ok_or(SnapshotError::Corrupt("unknown benchmark tag"))?;
            let threads = roster.get_usize()?;
            if threads == 0 || threads > 1024 {
                return Err(SnapshotError::Corrupt("workload thread count out of range"));
            }
            let scale = roster.get_f64()?;
            if !scale.is_finite() || scale <= 0.0 {
                return Err(SnapshotError::Corrupt("workload scale out of range"));
            }
            let relaunch = roster.get_bool()?;
            let jvm_cfg = jsmt_jvm::JvmConfig::read_from(&mut roster)?;
            sys.jvm_override = Some(jvm_cfg);
            sys.add_process_inner(WorkloadSpec { id, threads, scale }, relaunch);
            sys.jvm_override = None;
        }
        roster.expect_end()?;

        sys.core.restore_state(&mut r.section("core")?)?;
        sys.world.sched.restore_state(&mut r.section("sched")?)?;
        sys.world.kcg.restore_state(&mut r.section("kcg")?)?;

        let mut tsec = r.section("threads")?;
        let nthreads = tsec.get_len(19)?;
        let mut threads = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let role = restore_role(&mut tsec, &sys.world.procs)?;
            let stack_base = tsec.get_u64()?;
            let npending = tsec.get_len(10)?;
            let mut pending = VecDeque::with_capacity(npending);
            for _ in 0..npending {
                pending.push_back(Uop::read_from(&mut tsec)?);
            }
            threads.push(OsThread {
                role,
                pending,
                stack_base,
            });
        }
        tsec.expect_end()?;
        if sys.world.sched.nthreads() != nthreads {
            return Err(SnapshotError::Corrupt(
                "scheduler thread table disagrees with OS thread list",
            ));
        }
        sys.world.threads = threads;

        let mut psec = r.section("procs")?;
        for i in 0..nprocs {
            let mut one = psec.section(&format!("p{i}"))?;
            let p = &mut sys.world.procs[i];
            p.jvm.restore_state(&mut one.section("jvm")?)?;
            let mut ks = one.section("kernel")?;
            p.kernel.restore_state(&mut ks)?;
            ks.expect_end()?;
            let mut bs = one.section("book")?;
            p.restore_book(&mut bs, nthreads)?;
            bs.expect_end()?;
            one.expect_end()?;
        }
        psec.expect_end()?;

        sys.world.extra.restore_state(&mut r.section("extra")?)?;

        let mut ssec = r.section("sampler")?;
        sys.sampler = if ssec.get_bool()? {
            let mut s = Sampler::new(1);
            s.restore_state(&mut ssec)?;
            Some(s)
        } else {
            None
        };
        ssec.expect_end()?;
        r.expect_end()?;

        sys.started = started;
        sys.world.now = sys.core.cycles();
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsmt_workloads::BenchmarkId;

    fn quick(id: BenchmarkId, threads: usize, ht: bool, scale: f64) -> RunReport {
        let mut sys = System::new(SystemConfig::p4(ht).with_max_cycles(400_000_000));
        sys.add_process(WorkloadSpec { id, threads, scale });
        sys.run_to_completion()
    }

    #[test]
    fn mpegaudio_runs_to_completion() {
        let r = quick(BenchmarkId::Mpegaudio, 1, false, 0.01);
        assert_eq!(r.processes[0].completions, 1);
        assert!(r.metrics.instructions > 10_000);
        assert!(r.metrics.ipc > 0.05, "ipc {}", r.metrics.ipc);
    }

    #[test]
    fn multithreaded_kernel_completes_under_ht() {
        let r = quick(BenchmarkId::MonteCarlo, 2, true, 0.01);
        assert_eq!(r.processes[0].completions, 1);
        assert!(
            r.metrics.dual_thread_fraction > 0.3,
            "two threads should co-run: dt = {}",
            r.metrics.dual_thread_fraction
        );
    }

    #[test]
    fn eight_threads_multiplex_on_two_contexts() {
        let r = quick(BenchmarkId::MonteCarlo, 8, true, 0.01);
        assert_eq!(r.processes[0].completions, 1);
        assert!(r.bank.total(Event::ContextSwitches) > 8);
    }

    #[test]
    fn gc_happens_for_allocation_heavy_benchmarks() {
        let mut sys = System::new(SystemConfig::p4(true).with_max_cycles(400_000_000));
        sys.add_process_with_jvm(
            WorkloadSpec::single(BenchmarkId::Jack).with_scale(0.05),
            jsmt_jvm::JvmConfig::default()
                .with_heap(512 * 1024)
                .with_survival(0.15),
        );
        let r = sys.run_to_completion();
        assert!(r.processes[0].gc_count > 0, "jack must collect");
        assert!(r.bank.total(Event::GcCycles) > 0);
    }

    #[test]
    fn os_activity_is_counted() {
        let r = quick(BenchmarkId::Javac, 1, true, 0.03);
        assert!(r.bank.total(Event::Syscalls) > 0);
        assert!(r.bank.total(Event::OsCycles) > 0);
        assert!(r.metrics.os_cycle_fraction > 0.0);
        assert!(r.metrics.os_cycle_fraction < 0.5);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(BenchmarkId::Compress, 1, true, 0.01);
        let b = quick(BenchmarkId::Compress, 1, true, 0.01);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.bank, b.bank);
    }

    #[test]
    fn relaunch_accumulates_completions() {
        let mut sys = System::new(SystemConfig::p4(true).with_max_cycles(400_000_000));
        sys.add_relaunching_process(WorkloadSpec::single(BenchmarkId::Mpegaudio).with_scale(0.003));
        let r = sys.run_until_completions(3);
        assert!(r.processes[0].completions >= 3);
        let durations = r.processes[0].durations();
        assert_eq!(durations.len() as u64, r.processes[0].completions);
        assert!(r.processes[0].mean_duration() > 0.0);
    }

    #[test]
    fn two_processes_coschedule() {
        let mut sys = System::new(SystemConfig::p4(true).with_max_cycles(400_000_000));
        sys.add_process(WorkloadSpec::single(BenchmarkId::Compress).with_scale(0.005));
        sys.add_process(WorkloadSpec::single(BenchmarkId::Db).with_scale(0.005));
        let r = sys.run_to_completion();
        assert_eq!(r.processes.len(), 2);
        assert!(r.processes.iter().all(|p| p.completions >= 1));
        assert!(
            r.metrics.dual_thread_fraction > 0.2,
            "dt {}",
            r.metrics.dual_thread_fraction
        );
    }
}

#[cfg(test)]
mod api_contract_tests {
    use super::*;
    use jsmt_workloads::BenchmarkId;

    #[test]
    #[should_panic(expected = "before the first cycle")]
    fn processes_cannot_join_a_running_machine() {
        let mut sys = System::new(SystemConfig::p4(true));
        sys.add_process(WorkloadSpec::single(BenchmarkId::Mpegaudio).with_scale(0.01));
        sys.step_cycle();
        sys.add_process(WorkloadSpec::single(BenchmarkId::Db).with_scale(0.01));
    }

    #[test]
    fn empty_machine_idles_safely() {
        let mut sys = System::new(SystemConfig::p4(true));
        for _ in 0..1000 {
            sys.step_cycle();
        }
        let r = sys.report();
        assert_eq!(r.metrics.instructions, 0);
        assert_eq!(r.cycles, 1000);
        assert!(r.processes.is_empty());
    }

    #[test]
    fn run_cycles_is_exact() {
        let mut sys = System::new(SystemConfig::p4(false));
        sys.add_process(WorkloadSpec::single(BenchmarkId::Compress).with_scale(0.5));
        let r = sys.run_cycles(12_345);
        assert_eq!(r.cycles, 12_345);
    }

    #[test]
    fn process_report_duration_math() {
        let p = ProcessReport {
            spec: WorkloadSpec::single(BenchmarkId::Db),
            completions: 4,
            completion_cycles: vec![100, 180, 260, 400],
            gc_count: 0,
            allocations: 0,
            compiles_done: 0,
        };
        assert_eq!(p.durations(), vec![100, 80, 80, 140]);
        // Trimmed mean drops the first (100) and last (140).
        assert_eq!(p.mean_duration(), 80.0);
    }

    #[test]
    fn mean_duration_small_samples_fall_back() {
        let p = ProcessReport {
            spec: WorkloadSpec::single(BenchmarkId::Db),
            completions: 2,
            completion_cycles: vec![100, 300],
            gc_count: 0,
            allocations: 0,
            compiles_done: 0,
        };
        assert_eq!(p.mean_duration(), 150.0);
        let empty = ProcessReport {
            spec: WorkloadSpec::single(BenchmarkId::Db),
            completions: 0,
            completion_cycles: vec![],
            gc_count: 0,
            allocations: 0,
            compiles_done: 0,
        };
        assert!(empty.mean_duration().is_nan());
    }
}
