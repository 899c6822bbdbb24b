//! Single-layer probes of the paper-regeneration benchmark (traced mode).
//!
//! Each probe drives one layer alone through its public API, with the
//! workload's own programs at the workload's scale, and reports the host
//! cost per unit of that layer's work:
//!
//! * `workloads` — every program's kernel stepped through `Kernel::step`;
//!   the emitted µop streams are captured for the next two probes;
//! * `cpu` — `SmtCore` fed the captured streams of one kernel (HT off) and
//!   of two kernels on both contexts (HT on), the way
//!   `benches/throughput.rs` feeds synthetic streams;
//! * `mem` — `MemoryHierarchy::data_access` and `fetch` replaying the
//!   captured addresses;
//! * `os` — `Scheduler::tick` with the workload's thread counts;
//! * `jvm` — `GcWorkGen::emit` over the live heaps the kernels left;
//! * `cache` — `Cache::store` and `lookup` of the workload's result rows;
//! * `shard` — the workload's nine solo baselines dispatched to two
//!   `repro --shard-worker` processes over the worker protocol, against the
//!   same cells computed in process.
//!
//! ```text
//! perfbench-probes WORKLOAD --scale S --repeats R --seed N --dir DIR
//!                  [--rows CSV]... [--repro PATH]
//! ```
//!
//! Prints one JSON object of metrics on stdout.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use jsmt_cache::{Cache, CacheKey};
use jsmt_core::experiments::{solo_baseline_cycles, ExperimentCtx};
use jsmt_cpu::{CoreConfig, SmtCore};
use jsmt_isa::{Addr, Asid, Uop, UopKind};
use jsmt_jvm::{EmitCtx, GcWorkGen, JvmProcess};
use jsmt_mem::{AccessKind, MemConfig, MemoryHierarchy};
use jsmt_os::{OsConfig, Scheduler};
use jsmt_perfmon::{CounterBank, LogicalCpu};
use jsmt_workloads::{build, jvm_config_for, BenchmarkId, StepOutcome, WorkloadSpec};

/// µops kept per program for the core and memory probes.
const CAPTURE: usize = 150_000;
/// Scheduler ticks per thread-count setting.
const TICKS: u64 = 400_000;

struct Args {
    workload: String,
    ctx: ExperimentCtx,
    dir: PathBuf,
    rows: Vec<PathBuf>,
    repro: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        ctx: ExperimentCtx::default(),
        dir: PathBuf::from("."),
        rows: Vec::new(),
        repro: None,
    };
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--scale" => args.ctx.scale = value(&a)?.parse().map_err(|e| format!("{e}"))?,
            "--repeats" => args.ctx.repeats = value(&a)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.ctx.seed = value(&a)?.parse().map_err(|e| format!("{e}"))?,
            "--dir" => args.dir = value(&a)?.into(),
            "--rows" => args.rows.push(value(&a)?.into()),
            "--repro" => args.repro = Some(value(&a)?.into()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(args)
}

/// The programs a workload runs, with their thread counts.
fn programs(workload: &str) -> Vec<(BenchmarkId, usize)> {
    let mut out: Vec<(BenchmarkId, usize)> = BenchmarkId::SINGLE_THREADED
        .iter()
        .map(|&id| (id, 1))
        .collect();
    if workload == "paper-characterize" {
        out.extend(BenchmarkId::MULTITHREADED.iter().map(|&id| (id, 2)));
    }
    out
}

/// A program's kernel stepped to completion outside the machine.
struct Stepped {
    uops: u64,
    step_s: f64,
    stream: Vec<Uop>,
    /// `(heap base, live bytes)` of each collection the kernel asked for,
    /// or of the heap it finished with when it asked for none.
    heaps: Vec<(Addr, u64)>,
}

fn step_kernel(id: BenchmarkId, threads: usize, ctx: &ExperimentCtx) -> Stepped {
    let spec = WorkloadSpec::threaded(id, threads).with_scale(ctx.scale);
    let mut jvm = JvmProcess::new(1, jvm_config_for(id));
    let mut kernel = build(spec);
    kernel.setup(&mut jvm);
    let stacks: Vec<Addr> = (0..threads).map(|_| jvm.alloc_stack(64 * 1024)).collect();
    let mut finished = vec![false; threads];
    let mut blocked = vec![false; threads];
    let mut buf = Vec::with_capacity(4096);
    let mut out = Stepped {
        uops: 0,
        step_s: 0.0,
        stream: Vec::with_capacity(CAPTURE),
        heaps: Vec::new(),
    };
    loop {
        let mut stepped = false;
        for tid in 0..threads {
            if finished[tid] || blocked[tid] {
                continue;
            }
            stepped = true;
            buf.clear();
            let t = Instant::now();
            let result = {
                let mut ectx = EmitCtx::new(&mut jvm, &mut buf).with_stack(stacks[tid]);
                kernel.step(tid, &mut ectx)
            };
            out.step_s += t.elapsed().as_secs_f64();
            out.uops += buf.len() as u64;
            let room = CAPTURE - out.stream.len();
            out.stream.extend(buf.iter().take(room).copied());
            for &w in &result.wake {
                blocked[w] = false;
            }
            match result.outcome {
                StepOutcome::Ran => {}
                StepOutcome::NeedsGc => {
                    let live = jvm.collect();
                    out.heaps.push((jvm.heap().base(), live));
                }
                StepOutcome::Blocked(_) => blocked[tid] = true,
                StepOutcome::Finished => finished[tid] = true,
            }
        }
        if !stepped {
            break;
        }
    }
    if out.heaps.is_empty() {
        let live = jvm.collect();
        out.heaps.push((jvm.heap().base(), live));
    }
    out
}

/// Drive `core` over the streams, one per bound context, until every
/// stream is consumed. Returns (cycles, cycles skipped by fast-forward or
/// trace replay, host seconds).
fn drive_core(core: &mut SmtCore, streams: &[&[Uop]]) -> (u64, u64, f64) {
    let mut pending: Vec<VecDeque<Uop>> = streams
        .iter()
        .map(|s| s.iter().copied().collect())
        .collect();
    let mut skipped = 0;
    let start_cycles = core.cycles();
    let t = Instant::now();
    while pending.iter().any(|p| !p.is_empty()) {
        if pending.len() == 1 {
            let (cycles, consumed) = core.trace_step(1 << 20, &pending[0]);
            if cycles > 0 {
                pending[0].drain(..consumed);
                skipped += cycles;
                continue;
            }
        }
        let ff = core.fast_forward(1 << 20);
        if ff > 0 {
            skipped += ff;
            continue;
        }
        core.cycle(&mut |lcpu, buf, max| {
            let Some(p) = pending.get_mut(lcpu.index()) else {
                return 0;
            };
            let take = max.min(p.len());
            for u in p.drain(..take) {
                buf.push_back(u);
            }
            take
        });
    }
    (
        core.cycles() - start_cycles,
        skipped,
        t.elapsed().as_secs_f64(),
    )
}

fn cpu_probe(streams: &[Vec<Uop>]) -> (f64, f64, f64) {
    let (mut cycles, mut skipped, mut secs) = (0u64, 0u64, 0.0);
    for s in streams {
        let mut core = SmtCore::new(CoreConfig::p4(false), MemConfig::p4(false));
        core.bind(LogicalCpu::Lp0, Asid(1));
        let (c, k, t) = drive_core(&mut core, &[s]);
        cycles += c;
        skipped += k;
        secs += t;
    }
    let single = secs * 1e9 / cycles.max(1) as f64;
    let (mut dcycles, mut dsecs) = (0u64, 0.0);
    for i in 0..streams.len() {
        let j = (i + 1) % streams.len();
        let mut core = SmtCore::new(CoreConfig::p4(true), MemConfig::p4(true));
        core.bind(LogicalCpu::Lp0, Asid(1));
        core.bind(LogicalCpu::Lp1, Asid(2));
        let (c, k, t) = drive_core(&mut core, &[&streams[i], &streams[j]]);
        dcycles += c;
        skipped += k;
        cycles += c;
        dsecs += t;
    }
    let dual = dsecs * 1e9 / dcycles.max(1) as f64;
    (single, dual, 100.0 * skipped as f64 / cycles.max(1) as f64)
}

fn mem_probe(streams: &[Vec<Uop>]) -> f64 {
    let mut mem = MemoryHierarchy::new(MemConfig::p4(true));
    let mut bank = CounterBank::new();
    let (mut accesses, mut last_pc) = (0u64, u64::MAX);
    let t = Instant::now();
    for s in streams {
        for u in s {
            if u.pc != last_pc {
                mem.fetch(u.pc, Asid(1), LogicalCpu::Lp0, &mut bank);
                last_pc = u.pc;
                accesses += 1;
            }
            if let Some(addr) = u.mem {
                let kind = match u.kind {
                    UopKind::Store => AccessKind::Write,
                    _ => AccessKind::Read,
                };
                mem.data_access(addr, Asid(1), LogicalCpu::Lp0, kind, &mut bank);
                accesses += 1;
            }
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / accesses.max(1) as f64
}

/// Tick a scheduler holding `threads` runnable threads (plus one sleeping
/// GC thread per process); the core is modelled as draining at once.
fn os_probe(thread_counts: &[usize]) -> f64 {
    let (mut ticks, mut secs) = (0u64, 0.0);
    for &threads in thread_counts {
        let mut sched = Scheduler::new(OsConfig::default(), true);
        for _ in 0..threads {
            sched.spawn(Asid(1));
        }
        let gc = sched.spawn(Asid(1));
        sched.block(gc);
        let mut events = Vec::new();
        let t = Instant::now();
        for now in 0..TICKS {
            events.clear();
            sched.tick(now, [true, true], &mut events);
            std::hint::black_box(&events);
        }
        secs += t.elapsed().as_secs_f64();
        ticks += TICKS;
    }
    secs * 1e9 / ticks as f64
}

fn gc_probe(heaps: &[(Addr, u64)], seed: u64) -> f64 {
    let (mut uops, mut buf) = (0u64, Vec::with_capacity(4096));
    let t = Instant::now();
    for (i, &(base, live)) in heaps.iter().enumerate() {
        let mut gen = GcWorkGen::new(base, live, seed ^ i as u64);
        while !gen.is_done() {
            buf.clear();
            uops += gen.emit(&mut buf, 4096) as u64;
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / uops.max(1) as f64
}

/// Store every result row in a fresh cache, then look each one up.
/// Returns (mean store ms, mean lookup ms, entries on disk, lookup pass s).
fn cache_probe(
    rows: &[String],
    dir: &std::path::Path,
    seed: u64,
) -> Result<(f64, f64, usize, f64), String> {
    let cache = Cache::open(dir).map_err(|e| format!("opening probe cache: {e}"))?;
    let keys: Vec<CacheKey> = rows
        .iter()
        .enumerate()
        .map(|(i, _)| CacheKey {
            fingerprint: 0x5EED_0000 ^ rows.len() as u64,
            workload: format!("row:{i}"),
            seed,
        })
        .collect();
    let t = Instant::now();
    for (k, row) in keys.iter().zip(rows) {
        cache.store(k, row.as_bytes());
    }
    let store_s = t.elapsed().as_secs_f64();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("listing probe cache: {e}"))?
        .filter(|e| e.as_ref().is_ok_and(|e| e.path().is_file()))
        .count();
    let t = Instant::now();
    for (k, row) in keys.iter().zip(rows) {
        if cache.lookup(k).as_deref() != Some(row.as_bytes()) {
            return Err(format!("cache probe: {} read back differently", k.workload));
        }
    }
    let lookup_s = t.elapsed().as_secs_f64();
    let n = rows.len().max(1) as f64;
    Ok((store_s * 1e3 / n, lookup_s * 1e3 / n, entries, lookup_s))
}

/// Dispatch the nine solo baselines to two worker processes over the
/// worker protocol. Returns (cold-pass wall s, in-process busy s).
fn shard_probe(repro: &std::path::Path, ctx: &ExperimentCtx) -> Result<(f64, f64), String> {
    let ids = BenchmarkId::SINGLE_THREADED;
    let t = Instant::now();
    let mut handles = Vec::new();
    for w in 0..2usize {
        let mut child = Command::new(repro)
            .args(["--shard-worker", "--scale", &ctx.scale.to_string()])
            .args([
                "--repeats",
                &ctx.repeats.to_string(),
                "--seed",
                &ctx.seed.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning shard worker: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped");
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mine: Vec<(usize, BenchmarkId)> = ids
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % 2 == w)
            .collect();
        handles.push(std::thread::spawn(
            move || -> Result<Vec<(usize, String)>, String> {
                let mut lines = stdout.lines();
                let mut replies = Vec::new();
                let serve = || -> Result<(), String> {
                    for (i, id) in mine {
                        writeln!(stdin, "shard probe {i} 0 solo {}", id.name())
                            .and_then(|()| stdin.flush())
                            .map_err(|e| e.to_string())?;
                        let line = lines.next().ok_or("worker closed its output")?;
                        replies.push((i, line.map_err(|e| e.to_string())?));
                    }
                    writeln!(stdin, "exit").map_err(|e| e.to_string())
                };
                let served = serve();
                drop(stdin);
                if served.is_err() {
                    // Best effort: the worker is reaped below either way.
                    let _ = child.kill();
                }
                let status = child.wait().map_err(|e| e.to_string())?;
                served?;
                if !status.success() {
                    return Err(format!("shard worker exited with {status}"));
                }
                Ok(replies)
            },
        ));
    }
    let mut replies = Vec::new();
    for h in handles {
        replies.extend(h.join().map_err(|_| "shard probe thread panicked")??);
    }
    let wall = t.elapsed().as_secs_f64();
    let mut busy = 0.0;
    for (i, line) in replies {
        let t = Instant::now();
        let cycles = solo_baseline_cycles(ids[i], ctx);
        busy += t.elapsed().as_secs_f64();
        let want: String = cycles
            .to_le_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        if line != format!("ok {i} {want}") {
            return Err(format!(
                "shard probe: worker reply {line:?} for {} differs from in-process {cycles}",
                ids[i].name()
            ));
        }
    }
    Ok((wall, busy))
}

fn run(args: &Args) -> Result<String, String> {
    let ctx = &args.ctx;
    let progs = programs(&args.workload);
    let stepped: Vec<Stepped> = progs
        .iter()
        .map(|&(id, t)| step_kernel(id, t, ctx))
        .collect();
    let uops: u64 = stepped.iter().map(|s| s.uops).sum();
    let step_s: f64 = stepped.iter().map(|s| s.step_s).sum();
    let streams: Vec<Vec<Uop>> = stepped.iter().map(|s| s.stream.clone()).collect();
    let heaps: Vec<(Addr, u64)> = stepped
        .iter()
        .flat_map(|s| s.heaps.iter().copied())
        .collect();

    let (single, dual, skipped) = cpu_probe(&streams);
    let mem = mem_probe(&streams);
    let threads: &[usize] = if args.workload == "paper-characterize" {
        &[1, 2, 4, 8, 16]
    } else {
        &[2]
    };
    let os = os_probe(threads);
    let gc = gc_probe(&heaps, ctx.seed);

    let mut rows = Vec::new();
    for path in &args.rows {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        rows.extend(text.lines().skip(1).map(str::to_string));
    }
    let (store_ms, lookup_ms, entries, warm_s) = cache_probe(&rows, &args.dir, ctx.seed)?;

    let mut json = format!(
        "{{\"workloads.probe_ns_per_uop\":{:.4},\"workloads.uops_generated\":{uops},\
         \"cpu.probe_ns_per_cycle.single\":{single:.4},\"cpu.probe_ns_per_cycle.dual\":{dual:.4},\
         \"cpu.probe_skipped_share\":{skipped:.4},\"mem.probe_ns_per_access\":{mem:.4},\
         \"os.probe_ns_per_tick\":{os:.4},\"jvm.gc_probe_ns_per_uop\":{gc:.4},\
         \"cache.store_ms\":{store_ms:.6},\"cache.lookup_ms\":{lookup_ms:.6},\
         \"cache.entries\":{entries},\"cache.warm_pass_s\":{warm_s:.6}",
        step_s * 1e9 / uops.max(1) as f64,
    );
    if let Some(repro) = &args.repro {
        let (wall, busy) = shard_probe(repro, ctx)?;
        json.push_str(&format!(
            ",\"shard.cold_pass_s\":{wall:.6},\"shard.overhead_s\":{:.6}",
            wall - busy / 2.0
        ));
    }
    json.push('}');
    Ok(json)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-probes: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-probes: {e}");
            std::process::exit(1);
        }
    }
}
