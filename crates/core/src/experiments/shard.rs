//! The process transport of the grid executor.
//!
//! In-thread supervision ([`Engine::run_supervised`]) isolates panics,
//! but a fault that takes the *process* down — SIGKILL, `abort()`, an
//! OOM kill, a wedged attempt that never reaches a span boundary — still
//! loses every cell in flight. This transport moves each cell into a
//! worker *process*: the parent (`repro … --workers N`) forks `N` copies
//! of its own binary in `--shard-worker` mode and feeds them cells over
//! a line-oriented stdin/stdout protocol. A worker dying takes at most
//! one in-flight cell with it; the pool detects the death (pipe EOF),
//! respawns capacity, and reassigns the cell with the same deterministic
//! seeded backoff schedule as in-process retries.
//!
//! # Protocol
//!
//! Parent → worker, one request per line:
//!
//! ```text
//! shard <stage> <index> <attempt> solo <bench>
//! shard <stage> <index> <attempt> pair <a> <b> <a_solo> <b_solo>
//! exit
//! ```
//!
//! Worker → parent, one reply per request:
//!
//! ```text
//! ok <index> <hex-value-bytes>
//! err <index> <kind> <component> <cycle> <hex-message>
//! ```
//!
//! Values are hex-encoded [`super::rescache`] cell encodings (solo: u64
//! LE; pair: the outcome layout), so the reply survives any byte
//! content. Pair requests embed the solo baselines, keeping workers
//! stateless: a cell's result is a pure function of its request line
//! plus the experiment context, no matter which worker (or respawn) runs
//! it. That purity is what makes the merged grid **bit-identical** to
//! the thread transport at any worker count.
//!
//! # Failure taxonomy
//!
//! * worker replies `err` — the cell failed *inside* a live worker
//!   (panic, livelock, cooperative deadline); attributed exactly as
//!   in-thread supervision would.
//! * pipe EOF with a cell in flight — the worker *process* died
//!   ([`FailureKind::WorkerDeath`]); its exit status goes in the
//!   message.
//! * per-attempt wall-clock deadline expired — the parent SIGKILLs the
//!   worker and records [`FailureKind::Deadline`]; the kill's EOF is not
//!   double-counted as a worker death.
//!
//! Exhausted cells come back as [`CellFailure`] records; the executor
//! ([`super::pair_grid`]) cancels dependents, orders the failures, and
//! owns the result cache — workers never open it. Process-transport
//! failures carry no crash bundle (the tail lives in the dead worker);
//! rerunning the cell's fault scope on threads (`--bundle-dir`) captures
//! one when needed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::panic::{self, AssertUnwindSafe};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use super::grid::{Job, OnValue, Value};
use super::supervise::{
    backoff_schedule, diagnose, install, silence_supervised_panics, CellFailure, Diagnosis,
    FailureKind, Supervision, SupervisorCfg,
};
use super::{Engine, ExperimentCtx};
use crate::error::{ErrorKind, JsmtError};

/// The worker fleet of [`super::Transport::Processes`]. Retries,
/// deadline and backoff come from the executor's [`SupervisorCfg`].
#[derive(Debug, Clone)]
pub struct ShardCfg {
    /// Worker processes kept alive while cells are pending.
    pub workers: usize,
    /// Command line that starts one worker (`argv[0]` plus args); the
    /// CLI passes its own binary with `--shard-worker` and matching
    /// context and fault flags.
    pub worker_argv: Vec<String>,
}

/// A live worker process and what it is doing.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    /// The in-flight cell, if any: `(slot, attempt, deadline)`.
    busy: Option<(usize, u32, Option<Instant>)>,
    /// Set when the parent killed this worker for a deadline, so its
    /// EOF is attributed as [`FailureKind::Deadline`], not worker death.
    timed_out: bool,
}

/// A cell waiting (or re-waiting) for dispatch.
struct Pending {
    slot: usize,
    attempt: u32,
    not_before: Instant,
}

/// The worker pool: spawns, dispatches, reaps, respawns. Workers
/// persist across stages; uids (not PIDs) key the map so a reply racing
/// a respawn can never be credited to the wrong incarnation.
pub(crate) struct Pool<'a> {
    cfg: &'a ShardCfg,
    workers: HashMap<u64, Worker>,
    next_uid: u64,
    tx: Sender<(u64, Option<String>)>,
    rx: Receiver<(u64, Option<String>)>,
}

/// One stage in flight on the pool.
struct Stage<'s> {
    name: &'s str,
    jobs: &'s [(usize, Job)],
    attempts: u32,
    /// Each job's deterministic backoff schedule.
    schedules: Vec<Vec<Duration>>,
    /// Each job's first dispatch, and its time from there to its result.
    started: Vec<Option<Instant>>,
    elapsed: Vec<Duration>,
    results: Vec<Option<Result<Value, CellFailure>>>,
    pending: Vec<Pending>,
    done: usize,
}

impl<'a> Pool<'a> {
    /// An empty fleet; workers start on the first dispatch.
    ///
    /// # Errors
    ///
    /// When `cfg` has no worker command line.
    pub(crate) fn new(cfg: &'a ShardCfg) -> Result<Pool<'a>, JsmtError> {
        if cfg.worker_argv.is_empty() {
            return Err(JsmtError::new(
                ErrorKind::Experiment,
                "shard dispatch needs a worker command line",
            ));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        Ok(Pool {
            cfg,
            workers: HashMap::new(),
            next_uid: 0,
            tx,
            rx,
        })
    }

    fn spawn_worker(&mut self) -> Result<(), JsmtError> {
        let argv = &self.cfg.worker_argv;
        let child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                return Err(JsmtError::new(
                    ErrorKind::Io,
                    format!("spawning shard worker '{}': {e}", argv[0]),
                ))
            }
        };
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let uid = self.next_uid;
        self.next_uid += 1;
        let tx = self.tx.clone();
        // One reader thread per worker; EOF (worker exit or kill) is
        // reported as a `None` line. The thread ends at EOF, so no
        // join bookkeeping is needed.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((uid, Some(line))).is_err() {
                    return;
                }
            }
            let _ = tx.send((uid, None));
        });
        self.workers.insert(
            uid,
            Worker {
                child,
                stdin,
                busy: None,
                timed_out: false,
            },
        );
        Ok(())
    }

    /// Run one stage of `(grid index, job)` pairs to completion (success
    /// or exhausted attempts per job), calling `on_value` as each value
    /// arrives, and record the stage in `engine`'s timings. Results come
    /// back in `jobs` order.
    ///
    /// # Errors
    ///
    /// When no worker can be started or a worker breaks the protocol.
    // One `CellFailure` exists per failed cell, as in
    // `Engine::run_supervised`; boxing it buys nothing here.
    #[allow(clippy::result_large_err)]
    pub(crate) fn run_stage(
        &mut self,
        engine: &Engine,
        name: &str,
        ctx: &ExperimentCtx,
        sup: &SupervisorCfg,
        jobs: &[(usize, Job)],
        on_value: &OnValue<'_>,
    ) -> Result<Vec<Result<Value, CellFailure>>, JsmtError> {
        let start = Instant::now();
        let attempts = sup.retries + 1;
        let mut st = Stage {
            name,
            jobs,
            attempts,
            schedules: jobs
                .iter()
                .map(|(_, job)| {
                    backoff_schedule(
                        ctx.seed,
                        &format!("{name}/{}", job.label()),
                        attempts,
                        sup.backoff_base,
                        sup.backoff_cap,
                    )
                })
                .collect(),
            started: vec![None; jobs.len()],
            elapsed: vec![Duration::ZERO; jobs.len()],
            results: jobs.iter().map(|_| None).collect(),
            pending: (0..jobs.len())
                .map(|slot| Pending {
                    slot,
                    attempt: 0,
                    not_before: Instant::now(),
                })
                .collect(),
            done: 0,
        };

        while st.done < jobs.len() {
            // Keep capacity: enough live workers for the remaining
            // work, up to the configured fleet size.
            let in_flight = self.workers.values().filter(|w| w.busy.is_some()).count();
            let target = self.cfg.workers.max(1).min(st.pending.len() + in_flight);
            while self.workers.len() < target {
                match self.spawn_worker() {
                    Ok(()) => {}
                    Err(e) if self.workers.is_empty() => return Err(e),
                    Err(e) => {
                        // Degraded but alive: finish on the fleet we have.
                        eprintln!(
                            "# shard: respawn failed ({e}); continuing with {} worker(s)",
                            self.workers.len()
                        );
                        break;
                    }
                }
            }

            // Dispatch every ready cell to an idle worker.
            let now = Instant::now();
            while let Some(pi) = st.pending.iter().position(|p| p.not_before <= now) {
                let Some(uid) = self
                    .workers
                    .iter()
                    .find(|(_, w)| w.busy.is_none())
                    .map(|(&uid, _)| uid)
                else {
                    break;
                };
                let p = st.pending.swap_remove(pi);
                let (index, job) = &jobs[p.slot];
                let line = format!("shard {name} {index} {} {}\n", p.attempt, job.spec());
                let w = self.workers.get_mut(&uid).expect("idle worker");
                if w.stdin
                    .write_all(line.as_bytes())
                    .and_then(|()| w.stdin.flush())
                    .is_err()
                {
                    // Worker died before accepting the cell: requeue,
                    // end this dispatch round (so the same dead worker
                    // is not re-picked), and let its EOF retire the
                    // worker entry.
                    st.pending.push(p);
                    w.busy = None;
                    break;
                }
                w.busy = Some((p.slot, p.attempt, sup.deadline.map(|d| now + d)));
                st.started[p.slot].get_or_insert(now);
            }

            // Enforce per-attempt deadlines: SIGKILL, then attribute the
            // resulting EOF as a deadline rather than a worker death.
            for w in self.workers.values_mut() {
                if let Some((_, _, Some(expiry))) = w.busy {
                    if !w.timed_out && Instant::now() >= expiry {
                        w.timed_out = true;
                        let _ = w.child.kill();
                    }
                }
            }

            // Drain worker events.
            match self.rx.recv_timeout(Duration::from_millis(5)) {
                Ok((uid, Some(line))) => self.on_reply(uid, &line, &mut st, on_value)?,
                Ok((uid, None)) => self.on_eof(uid, &mut st),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("pool holds a sender"),
            }
        }
        engine.record_stage(name, start, &st.elapsed);
        Ok(st
            .results
            .into_iter()
            .map(|r| r.expect("stage ran to done"))
            .collect())
    }

    /// A reply line arrived from worker `uid`.
    fn on_reply(
        &mut self,
        uid: u64,
        line: &str,
        st: &mut Stage<'_>,
        on_value: &OnValue<'_>,
    ) -> Result<(), JsmtError> {
        let Some(w) = self.workers.get_mut(&uid) else {
            return Ok(()); // reply from an already-retired worker
        };
        let Some((slot, attempt, _)) = w.busy.take() else {
            return Ok(()); // stray line from an idle worker
        };
        let (index, job) = &st.jobs[slot];
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let bad = || {
            JsmtError::new(
                ErrorKind::Experiment,
                format!("malformed shard worker reply: {line:?}"),
            )
        };
        match tokens.as_slice() {
            ["ok", i, hex] if i.parse::<usize>().ok() == Some(*index) => {
                let value = from_hex(hex)
                    .and_then(|bytes| job.decode(&bytes))
                    .ok_or_else(bad)?;
                on_value(job, &value);
                st.finish(slot, Ok(value));
            }
            ["err", i, kind, component, cycle, hexmsg]
                if i.parse::<usize>().ok() == Some(*index) =>
            {
                let d = Diagnosis {
                    kind: FailureKind::parse(kind).ok_or_else(bad)?,
                    component: (*component).to_string(),
                    cycle: cycle.parse().map_err(|_| bad())?,
                    message: String::from_utf8_lossy(&from_hex(hexmsg).ok_or_else(bad)?)
                        .into_owned(),
                };
                st.attempt_failed(slot, attempt, d);
            }
            _ => return Err(bad()),
        }
        Ok(())
    }

    /// Worker `uid`'s stdout closed: the process exited or was killed.
    fn on_eof(&mut self, uid: u64, st: &mut Stage<'_>) {
        let Some(mut w) = self.workers.remove(&uid) else {
            return;
        };
        let status = w
            .child
            .wait()
            .map(|s| s.to_string())
            .unwrap_or_else(|e| format!("wait failed: {e}"));
        let Some((slot, attempt, _)) = w.busy.take() else {
            return; // idle worker exited; capacity is rebuilt next loop
        };
        let d = if w.timed_out {
            Diagnosis {
                kind: FailureKind::Deadline,
                component: "worker".to_string(),
                cycle: 0,
                message: format!(
                    "shard exceeded its wall-clock deadline; worker killed ({status})"
                ),
            }
        } else {
            Diagnosis {
                kind: FailureKind::WorkerDeath,
                component: "worker".to_string(),
                cycle: 0,
                message: format!("worker process died mid-shard ({status})"),
            }
        };
        st.attempt_failed(slot, attempt, d);
    }

    /// Politely stop the fleet: `exit` + closed stdin ends the worker
    /// loop; waiting reaps the processes.
    pub(crate) fn shutdown(&mut self) {
        for w in self.workers.values_mut() {
            let _ = w.stdin.write_all(b"exit\n");
            let _ = w.stdin.flush();
        }
        for (_, mut w) in self.workers.drain() {
            drop(w.stdin);
            let _ = w.child.wait();
        }
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        // Error paths reach here with workers still alive; don't leak
        // them past the dispatcher.
        for w in self.workers.values_mut() {
            let _ = w.child.kill();
        }
        for (_, mut w) in self.workers.drain() {
            let _ = w.child.wait();
        }
    }
}

impl Stage<'_> {
    /// Record one failed attempt: re-queue with the cell's deterministic
    /// backoff delay, or finalize a [`CellFailure`] when attempts are
    /// exhausted.
    fn attempt_failed(&mut self, slot: usize, attempt: u32, d: Diagnosis) {
        let schedule = &self.schedules[slot];
        if attempt + 1 < self.attempts {
            let delay = schedule
                .get(attempt as usize)
                .copied()
                .unwrap_or(Duration::ZERO);
            self.pending.push(Pending {
                slot,
                attempt: attempt + 1,
                not_before: Instant::now() + delay,
            });
        } else {
            let (index, job) = &self.jobs[slot];
            let failure = CellFailure {
                stage: self.name.to_string(),
                label: job.label(),
                index: *index,
                kind: d.kind,
                component: d.component,
                cycle: d.cycle,
                message: d.message,
                attempts: self.attempts,
                backoff_ms: schedule.iter().map(|d| d.as_millis() as u64).collect(),
                bundle: None,
            };
            self.finish(slot, Err(failure));
        }
    }

    /// Record job `slot`'s final result and its time since first dispatch.
    fn finish(&mut self, slot: usize, result: Result<Value, CellFailure>) {
        let started = self.started[slot].expect("a finished job was dispatched");
        self.elapsed[slot] = started.elapsed();
        self.results[slot] = Some(result);
        self.done += 1;
    }
}

/// The worker side: serve shard requests from stdin until `exit` or
/// EOF. Each cell runs under the same supervision machinery as on the
/// thread transport — fault scope, worker-kill checkpoint, livelock
/// watchdog, `catch_unwind` + [`diagnose`] attribution — so a fault
/// spec behaves identically whether the cell runs in a thread or a
/// worker process.
pub fn shard_worker_main(ctx: &ExperimentCtx, livelock_cycles: u64) -> Result<(), JsmtError> {
    silence_supervised_panics();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(JsmtError::from)?;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            [] => continue,
            ["exit"] => break,
            ["shard", stage, index, attempt, spec @ ..] => {
                let (Ok(index), Ok(attempt)) = (index.parse::<usize>(), attempt.parse::<u32>())
                else {
                    return Err(bad_request(&line));
                };
                let reply = serve_shard(stage, index, attempt, spec, ctx, livelock_cycles)
                    .ok_or_else(|| bad_request(&line))?;
                out.write_all(reply.as_bytes()).map_err(JsmtError::from)?;
                out.flush().map_err(JsmtError::from)?;
            }
            _ => return Err(bad_request(&line)),
        }
    }
    Ok(())
}

fn bad_request(line: &str) -> JsmtError {
    JsmtError::new(
        ErrorKind::Experiment,
        format!("malformed shard request: {line:?}"),
    )
}

/// Run one cell under supervision and format the reply line. `None`
/// means the request itself was malformed (a protocol error, not a cell
/// failure).
fn serve_shard(
    stage: &str,
    index: usize,
    attempt: u32,
    spec: &[&str],
    ctx: &ExperimentCtx,
    livelock_cycles: u64,
) -> Option<String> {
    let job = Job::parse(spec)?;
    let scope_label = format!("{stage}/{}", job.label());
    let sup = Supervision::new(&SupervisorCfg {
        livelock_cycles,
        ..SupervisorCfg::default()
    });
    let outcome = {
        let _scope = jsmt_faults::enter_scope(&scope_label, attempt);
        let _guard = install(sup.clone());
        panic::catch_unwind(AssertUnwindSafe(|| {
            // The pool's worker-kill drill point: a matching
            // `worker-kill` clause aborts the whole process here, at
            // pickup.
            jsmt_faults::check_worker_kill();
            jsmt_faults::check_worker();
            job.value(&job.cell(ctx).simulate()).encode()
        }))
    };
    Some(match outcome {
        Ok(bytes) => format!("ok {index} {}\n", to_hex(&bytes)),
        Err(payload) => {
            let d = diagnose(payload, &sup);
            format!(
                "err {index} {} {} {} {}\n",
                d.kind.name(),
                // Components are single tokens today; keep the protocol
                // safe if one ever grows whitespace.
                d.component.replace(char::is_whitespace, "-"),
                d.cycle,
                to_hex(d.message.as_bytes()),
            )
        }
    })
}

fn to_hex(bytes: &[u8]) -> String {
    // An empty payload still needs a token on the line.
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::super::{rescache, run_pair, solo_baseline_cycles};
    use jsmt_workloads::BenchmarkId;

    #[test]
    fn hex_round_trips() {
        for payload in [&b""[..], b"\x00", b"hello", &[0xff, 0x00, 0x7f]] {
            assert_eq!(from_hex(&to_hex(payload)).as_deref(), Some(payload));
        }
        assert_eq!(from_hex("xyz"), None);
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("-"), Some(Vec::new()));
    }

    #[test]
    fn compute_shard_matches_direct_calls() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 2,
            seed: 0xBEEF,
        };
        let reply = |spec: &[&str]| -> Option<Vec<u8>> {
            let line = serve_shard("t", 0, 0, spec, &ctx, 0)?;
            from_hex(line.split_whitespace().nth(2).expect("payload"))
        };
        let direct = solo_baseline_cycles(BenchmarkId::Mpegaudio, &ctx);
        let via = reply(&["solo", "mpegaudio"]).expect("valid spec");
        assert_eq!(rescache::decode_solo(&via), Some(direct));

        let pair_spec = [
            "pair",
            "compress",
            "db",
            &direct.to_string()[..],
            &direct.to_string()[..],
        ];
        let bytes = reply(&pair_spec).expect("valid spec");
        let o = rescache::decode_pair(&bytes).expect("decodable");
        let want = run_pair(BenchmarkId::Compress, BenchmarkId::Db, direct, direct, &ctx);
        assert_eq!(o.combined.to_bits(), want.combined.to_bits());
        assert_eq!(o.completions, want.completions);

        assert_eq!(reply(&["solo", "not-a-benchmark"]), None);
        assert_eq!(reply(&["pair", "db"]), None);
    }

    #[test]
    fn serve_shard_reports_panics_as_err_lines() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 2,
            seed: 0xBEEF,
        };
        // A malformed spec is a protocol error, not a reply.
        assert_eq!(serve_shard("pair-grid", 0, 0, &["bogus"], &ctx, 0), None);
        // A healthy solo produces an ok line carrying the exact bytes.
        let reply =
            serve_shard("solo-baselines", 3, 0, &["solo", "jess"], &ctx, 0).expect("well-formed");
        let mut it = reply.split_whitespace();
        assert_eq!(it.next(), Some("ok"));
        assert_eq!(it.next(), Some("3"));
        let bytes = from_hex(it.next().expect("payload")).expect("hex");
        assert_eq!(
            rescache::decode_solo(&bytes),
            Some(solo_baseline_cycles(BenchmarkId::Jess, &ctx))
        );
    }
}
