//! Crash-tolerance of the grid executor's process transport, driven
//! through the real `repro` binary: workers are genuinely killed
//! (SIGABRT via the `worker-kill` fault), and the pool must reassign,
//! degrade, and stay bit-identical to serial execution. A failed solo
//! baseline must cancel the same co-runs on either transport.
//!
//! These tests live in `jsmt-bench` because `CARGO_BIN_EXE_repro` only
//! resolves in the crate that defines the binary.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Small-but-real grid parameters shared by every run in this file;
/// bit-identity only means something when all runs agree on them.
const CTX: [&str; 6] = ["--scale", "0.01", "--repeats", "1", "--seed", "333"];

fn run(extra: &[&str]) -> Output {
    repro()
        .args(CTX)
        .arg("--csv")
        .args(extra)
        .arg("fig8")
        .env_remove("JSMT_FAULTS")
        .env_remove("JSMT_CACHE")
        .output()
        .expect("spawn repro")
}

/// Stdout of the clean in-process run that every run in this file is
/// compared against. It depends only on [`CTX`], so it is simulated
/// once and shared by the tests.
fn serial_stdout() -> &'static str {
    static SERIAL: OnceLock<String> = OnceLock::new();
    SERIAL.get_or_init(|| {
        let serial = run(&[]);
        assert!(serial.status.success(), "serial run failed");
        String::from_utf8_lossy(&serial.stdout).into_owned()
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jsmt-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn sharded_grid_is_bit_identical_to_serial() {
    let sharded = run(&["--workers", "3"]);
    assert!(sharded.status.success(), "sharded run failed");
    assert_eq!(
        serial_stdout(),
        String::from_utf8_lossy(&sharded.stdout),
        "sharded output must be byte-identical to serial"
    );
}

#[test]
fn killed_worker_is_detected_and_shard_reassigned() {
    let dir = tmpdir("kill");
    let manifest = dir.join("manifest.csv");

    // attempts=1 → the kill fires on the first attempt only; the
    // respawned worker's retry completes the cell.
    let out = run(&[
        "--workers",
        "2",
        "--retries",
        "2",
        "--backoff-ms",
        "5",
        "--backoff-cap-ms",
        "20",
        "--manifest",
        manifest.to_str().unwrap(),
        "--faults",
        "worker-kill,scope=pair-grid/compress+db,attempts=1",
    ]);
    assert!(
        out.status.success(),
        "transient worker kill must heal: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        serial_stdout(),
        String::from_utf8_lossy(&out.stdout),
        "output after a healed worker kill must be byte-identical to serial"
    );
    let manifest = std::fs::read_to_string(&manifest).expect("manifest written");
    assert_eq!(
        manifest.lines().count(),
        1,
        "clean manifest (header only), got:\n{manifest}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_worker_death_degrades_to_partial_results_and_manifest() {
    let dir = tmpdir("dead");
    let manifest = dir.join("manifest.csv");

    // No attempts bound → every attempt of the scoped cell dies.
    let out = run(&[
        "--workers",
        "2",
        "--retries",
        "1",
        "--backoff-ms",
        "5",
        "--backoff-cap-ms",
        "20",
        "--manifest",
        manifest.to_str().unwrap(),
        "--faults",
        "worker-kill,scope=pair-grid/compress+db",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "exhausted cell must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let manifest = std::fs::read_to_string(&manifest).expect("manifest written");
    let mut lines = manifest.lines();
    assert_eq!(
        lines.next().unwrap(),
        "stage,label,index,kind,component,cycle,attempts,backoff_ms,bundle,message"
    );
    let row = lines.next().expect("one failure row");
    assert!(
        row.starts_with("pair-grid,compress+db,"),
        "failure attributed to the killed cell: {row}"
    );
    assert!(
        row.contains(",worker-death,worker,"),
        "kind/component attribution: {row}"
    );
    assert!(row.contains(",2,"), "both attempts recorded: {row}");
    assert_eq!(lines.next(), None, "exactly one cell failed");

    // Partial results: the 80 surviving cells, byte-identical to the
    // corresponding rows of a clean run's grid CSV.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(rows.len(), 1 + 80, "header plus 80 surviving cells");
    assert!(!stdout.contains("compress,db,"), "the dead cell is absent");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_shard_deadline_kills_and_attributes_hung_workers() {
    let dir = tmpdir("deadline");
    let manifest = dir.join("manifest.csv");

    // Starve one cell's µop supply with the worker-side livelock
    // watchdog disabled: the cell spins forever without progress, so
    // only the parent's wall-clock deadline can end it. The parent must
    // SIGKILL the wedged worker and attribute the failure as a
    // deadline, not a worker death.
    let out = run(&[
        "--workers",
        "2",
        "--retries",
        "0",
        "--deadline-secs",
        "5",
        "--livelock-cycles",
        "0",
        "--manifest",
        manifest.to_str().unwrap(),
        "--faults",
        "starve,cycle=1000,scope=pair-grid/compress+db",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "deadline exhaustion must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(&manifest).expect("manifest written");
    let row = manifest.lines().nth(1).expect("one failure row");
    assert!(
        row.starts_with("pair-grid,compress+db,") && row.contains(",deadline,worker,"),
        "deadline attribution: {row}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A persistent fault in one solo baseline fails that cell and cancels
/// the 17 co-runs over it without dispatching them, identically on the
/// thread and the process transport: the same manifest, and the clean
/// CSV minus exactly those 17 rows.
#[test]
fn failed_baseline_cancels_its_pairs_on_both_transports() {
    let dir = tmpdir("baseline");
    let expected: String = serial_stdout()
        .lines()
        .filter(|l| !l.split(',').take(2).any(|name| name == "jess"))
        .map(|l| format!("{l}\n"))
        .collect();

    let mut manifests = Vec::new();
    for transport in [["--jobs", "2"], ["--workers", "2"]] {
        let manifest = dir.join(format!("{}.csv", transport[0].trim_start_matches('-')));
        let out = run(&[
            transport[0],
            transport[1],
            "--retries",
            "0",
            "--manifest",
            manifest.to_str().unwrap(),
            "--faults",
            "panic,component=system,cycle=2000,scope=solo-baselines/jess",
        ]);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{transport:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "{transport:?}: the CSV is the clean one minus the jess rows"
        );
        let manifest = std::fs::read_to_string(&manifest).expect("manifest written");
        let rows: Vec<&str> = manifest.lines().skip(1).collect();
        assert_eq!(rows.len(), 1 + 17, "{transport:?}:\n{manifest}");
        assert!(
            rows[0].starts_with("solo-baselines,jess,1,panic,system,"),
            "{transport:?}: {}",
            rows[0]
        );
        for row in &rows[1..] {
            assert!(
                row.starts_with("pair-grid,") && row.contains(",cancelled,dependency,"),
                "{transport:?}: {row}"
            );
            assert!(row.contains("jess"), "{transport:?}: {row}");
        }
        manifests.push(manifest);
    }
    assert_eq!(
        manifests[0], manifests[1],
        "both transports record the same failures"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
