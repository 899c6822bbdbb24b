//! Whole-system checkpoint/restore equivalence.
//!
//! The contract under test: a machine checkpointed at *any* cycle and
//! resumed in a fresh process continues bit-identically — same final
//! cycle count, same counter banks, same completion records, same CSV
//! bytes — including checkpoints taken mid-GC, mid-fast-forward span,
//! and exactly on sampler/timer boundaries.

use jsmt_core::{System, SystemConfig};
use jsmt_perfmon::Event;
use jsmt_workloads::{BenchmarkId, WorkloadSpec};

fn cfg(ht: bool) -> SystemConfig {
    SystemConfig::p4(ht)
        .with_seed(11)
        .with_max_cycles(600_000_000)
}

/// The standard two-process machine used across these tests.
fn machine(ht: bool) -> System {
    let mut sys = System::new(cfg(ht));
    sys.add_process(WorkloadSpec::threaded(BenchmarkId::MonteCarlo, 2).with_scale(0.01));
    sys.add_relaunching_process(WorkloadSpec::single(BenchmarkId::Jess).with_scale(0.01));
    sys
}

fn assert_reports_equal(a: &jsmt_core::RunReport, b: &jsmt_core::RunReport, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.bank, b.bank, "{what}: counter banks");
    for (x, y) in a.processes.iter().zip(&b.processes) {
        assert_eq!(x.completions, y.completions, "{what}: completions");
        assert_eq!(
            x.completion_cycles, y.completion_cycles,
            "{what}: completion cycles"
        );
        assert_eq!(x.gc_count, y.gc_count, "{what}: gc count");
        assert_eq!(x.allocations, y.allocations, "{what}: allocations");
    }
}

/// Checkpoint at a mid-run cycle, resume into a fresh `System`, run both
/// the donor and the resumed machine to the same completion target: all
/// three executions (uninterrupted, donor-continued, resumed) must agree
/// bit-for-bit.
#[test]
fn resume_continues_bit_identically() {
    let mut uninterrupted = machine(true);
    let golden = uninterrupted.run_until_completions(1);

    // Early, middle, and late relative to the uninterrupted run length.
    for at in [
        golden.cycles / 100,
        golden.cycles / 3,
        golden.cycles * 9 / 10,
    ] {
        let mut donor = machine(true);
        donor.run_cycles(at);
        let bytes = donor.checkpoint();
        let mut resumed = System::resume(cfg(true), &bytes).expect("resume");
        assert_eq!(resumed.cycles(), at);

        // save → restore → save must be byte-identical (canonical form).
        assert_eq!(
            resumed.checkpoint(),
            bytes,
            "re-checkpoint at cycle {at} not canonical"
        );

        let donor_final = donor.run_until_completions(1);
        let resumed_final = resumed.run_until_completions(1);
        assert_reports_equal(&golden, &donor_final, &format!("donor @{at}"));
        assert_reports_equal(&golden, &resumed_final, &format!("resumed @{at}"));
    }
}

/// A checkpoint taken while a stop-the-world collection is in flight
/// (GC generator live, mutators parked) must restore and finish the
/// collection identically.
#[test]
fn mid_gc_checkpoint_restores() {
    let gc_machine = || {
        let mut sys = System::new(cfg(true));
        sys.add_process_with_jvm(
            WorkloadSpec::single(BenchmarkId::Jack).with_scale(0.05),
            jsmt_jvm::JvmConfig::default()
                .with_heap(512 * 1024)
                .with_survival(0.15),
        );
        sys
    };
    let mut uninterrupted = gc_machine();
    let golden = uninterrupted.run_to_completion();
    assert!(golden.processes[0].gc_count > 0, "jack must collect");

    let mut donor = gc_machine();
    while !donor.gc_active() {
        donor.step_cycle();
    }
    let at = donor.cycles();
    let bytes = donor.checkpoint();
    let mut resumed = System::resume(cfg(true), &bytes).expect("mid-GC resume");
    assert!(resumed.gc_active(), "restored machine must still be in GC");
    assert_eq!(resumed.cycles(), at);
    let r = resumed.run_to_completion();
    assert_reports_equal(&golden, &r, "mid-GC resume");
}

/// Fast-forward must compose with checkpointing: a checkpoint taken on a
/// machine that reached its cycle via fast-forwarded spans restores into
/// a machine whose continuation matches the never-fast-forwarded run.
#[test]
fn checkpoint_across_fast_forward_spans() {
    let mut slow = machine(true);
    slow.set_fast_forward(false);
    let golden = slow.run_until_completions(1);

    let mut fast = machine(true);
    fast.set_fast_forward(true);
    fast.run_cycles(50_000);
    let bytes = fast.checkpoint();

    for resumed_fastfwd in [true, false] {
        let mut resumed = System::resume(cfg(true), &bytes).expect("resume");
        resumed.set_fast_forward(resumed_fastfwd);
        let r = resumed.run_until_completions(1);
        assert_reports_equal(
            &golden,
            &r,
            &format!("fast-forward checkpoint, resumed fastfwd={resumed_fastfwd}"),
        );
    }
}

/// Regression: a sampler whose `next_due` lands exactly on the resume
/// boundary must fire exactly once, and sample series must be identical
/// to the uninterrupted run. Checkpoints straddle the interval boundary
/// on both sides and on it.
#[test]
fn sampler_boundary_fires_exactly_once_across_resume() {
    const INTERVAL: u64 = 10_000;
    let sampled = || {
        let mut sys = machine(true);
        sys.attach_sampler(INTERVAL);
        sys
    };
    let mut uninterrupted = sampled();
    uninterrupted.run_cycles(20 * INTERVAL);
    let golden: Vec<(u64, u64)> = uninterrupted
        .sampler()
        .expect("sampler")
        .samples()
        .iter()
        .map(|s| (s.at_cycle, s.delta.total(Event::ClockCycles)))
        .collect();
    assert!(
        golden.len() >= 19,
        "expected ~20 samples, got {}",
        golden.len()
    );

    for at in [3 * INTERVAL - 1, 3 * INTERVAL, 3 * INTERVAL + 1] {
        let mut donor = sampled();
        donor.run_cycles(at);
        let bytes = donor.checkpoint();
        let mut resumed = System::resume(cfg(true), &bytes).expect("resume");
        resumed.run_cycles(20 * INTERVAL - at);
        let got: Vec<(u64, u64)> = resumed
            .sampler()
            .expect("sampler")
            .samples()
            .iter()
            .map(|s| (s.at_cycle, s.delta.total(Event::ClockCycles)))
            .collect();
        assert_eq!(golden, got, "sample series diverged for checkpoint at {at}");
    }
}

/// Regression: scheduler timer interrupts due exactly at the resume
/// boundary fire exactly once (counted via the TimerInterrupts event of
/// the full run).
#[test]
fn scheduler_timer_boundary_across_resume() {
    // Find a cycle where a timer interrupt is about to fire by scanning
    // for the first TimerInterrupts increment, then checkpoint exactly
    // one cycle before it and replay across the boundary.
    let mut probe = machine(true);
    let mut fire_cycle = 0;
    for _ in 0..2_000_000u64 {
        let before = probe.report().bank.total(Event::TimerInterrupts);
        probe.step_cycle();
        if probe.report().bank.total(Event::TimerInterrupts) > before {
            fire_cycle = probe.cycles();
            break;
        }
    }
    assert!(fire_cycle > 1, "no timer interrupt observed");

    let horizon = fire_cycle + 50_000;
    let mut uninterrupted = machine(true);
    uninterrupted.run_cycles(horizon);
    let golden = uninterrupted.report();

    for at in [fire_cycle - 1, fire_cycle] {
        let mut donor = machine(true);
        donor.run_cycles(at);
        let bytes = donor.checkpoint();
        let mut resumed = System::resume(cfg(true), &bytes).expect("resume");
        resumed.run_cycles(horizon - at);
        let r = resumed.report();
        assert_eq!(
            golden.bank.total(Event::TimerInterrupts),
            r.bank.total(Event::TimerInterrupts),
            "timer count diverged for checkpoint at {at} (fire at {fire_cycle})"
        );
        assert_reports_equal(&golden, &r, &format!("timer boundary @{at}"));
    }
}

/// A checkpoint taken while a thread is parked in `Object.wait` — and,
/// harder, inside the *pending-notify window* (notified, moved to the
/// entry queue, but not yet handed ownership because the notifier still
/// holds the monitor) — must restore that exact synchronization state
/// and continue to the identical interleaving observation.
#[test]
fn mid_wait_checkpoint_restores_pending_notify_edge() {
    let wait_machine = || {
        let mut sys = System::new(cfg(true));
        // The ping-pong litmus shape lives in wait/notify: its producer
        // holds the monitor for several scheduler steps after notifying,
        // so the pending-notify window is wide enough to checkpoint in.
        sys.add_process(WorkloadSpec::threaded(BenchmarkId::LitmusPingPong, 2).with_scale(0.03));
        sys
    };
    let mut uninterrupted = wait_machine();
    let golden = uninterrupted.run_to_completion();
    let golden_label = uninterrupted.observation(0).expect("label");
    let golden_stats = uninterrupted.sync_stats(0);
    assert!(golden_stats.waits > 0, "ping-pong must actually wait");
    assert!(golden_stats.notifies > 0, "ping-pong must actually notify");

    // Walk a donor to each edge in turn: first a thread parked in a wait
    // set, then a thread in the pending-notify window.
    for edge in ["wait-parked", "pending-notify"] {
        let mut donor = wait_machine();
        let hit = loop {
            let s = donor.sync_stats(0);
            match edge {
                "wait-parked" if s.wait_parked > 0 => break true,
                "pending-notify" if s.pending_notify > 0 => break true,
                _ => {}
            }
            if donor.cycles() >= golden.cycles {
                break false;
            }
            donor.step_cycle();
        };
        assert!(hit, "{edge}: edge never occurred before completion");
        let at = donor.cycles();
        let stats_at = donor.sync_stats(0);

        let bytes = donor.checkpoint();
        let mut resumed = System::resume(cfg(true), &bytes).expect("mid-wait resume");
        assert_eq!(resumed.cycles(), at);
        assert_eq!(
            resumed.sync_stats(0),
            stats_at,
            "{edge}: restored sync state differs at cycle {at}"
        );
        assert_eq!(resumed.checkpoint(), bytes, "{edge}: re-save not canonical");

        let donor_final = donor.run_to_completion();
        let resumed_final = resumed.run_to_completion();
        assert_reports_equal(&golden, &donor_final, &format!("{edge} donor @{at}"));
        assert_reports_equal(&golden, &resumed_final, &format!("{edge} resumed @{at}"));
        assert_eq!(
            resumed.observation(0).as_deref(),
            Some(golden_label.as_str()),
            "{edge}: interleaving label diverged after resume at cycle {at}"
        );
        assert_eq!(
            resumed.sync_stats(0),
            golden_stats,
            "{edge}: final sync stats"
        );
    }
}

/// Corrupt, truncated, or mismatched snapshots fail cleanly — clean
/// `Err`, no panic — and a resume under a different configuration is
/// rejected by the fingerprint.
#[test]
fn corrupt_and_mismatched_snapshots_fail_cleanly() {
    let mut donor = machine(true);
    donor.run_cycles(5_000);
    let bytes = donor.checkpoint();

    // Sanity: the pristine snapshot resumes.
    assert!(System::resume(cfg(true), &bytes).is_ok());

    // Different configuration (HT off) → fingerprint mismatch.
    assert!(System::resume(cfg(false), &bytes).is_err());
    assert!(System::resume(cfg(true).with_seed(99), &bytes).is_err());

    // Every truncation fails cleanly.
    for cut in [0, 1, 7, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            System::resume(cfg(true), &bytes[..cut]).is_err(),
            "truncation at {cut} must error"
        );
    }

    // Single-byte corruption anywhere fails cleanly (the checksum or a
    // validation catches it). Stride keeps the test fast.
    for i in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        assert!(
            System::resume(cfg(true), &bad).is_err(),
            "corruption at byte {i} must error"
        );
    }
}
