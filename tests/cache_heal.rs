//! Self-healing of the persistent result cache, driven through the
//! real `repro` binary: entries are corrupted and truncated on disk
//! (and via injected write faults), and the cache must quarantine,
//! recompute, and keep the rendered output byte-identical — never trust
//! a bad entry, never die over one. The cache is also the grid's only
//! persistence: a partial run resumes from it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

const CTX: [&str; 6] = ["--scale", "0.01", "--repeats", "1", "--seed", "334"];

fn run(cache: &Path, extra: &[&str]) -> Output {
    repro()
        .args(CTX)
        .arg("--csv")
        .args(["--cache-dir", cache.to_str().unwrap()])
        .args(extra)
        .arg("fig8")
        .env_remove("JSMT_FAULTS")
        .env_remove("JSMT_CACHE")
        .output()
        .expect("spawn repro")
}

/// Stdout of a clean run with no cache: the reference output. It
/// depends only on [`CTX`], so it is simulated once and shared by the
/// tests.
fn clean_stdout() -> &'static str {
    static CLEAN: OnceLock<String> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let clean = repro()
            .args(CTX)
            .args(["--csv", "fig8"])
            .env_remove("JSMT_FAULTS")
            .env_remove("JSMT_CACHE")
            .output()
            .expect("spawn repro");
        assert!(clean.status.success(), "clean run failed");
        String::from_utf8_lossy(&clean.stdout).into_owned()
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jsmt-heal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn cell_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    v.sort();
    v
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn corrupt_and_torn_entries_are_quarantined_and_recomputed() {
    let dir = tmpdir("quarantine");
    let cold = run(&dir, &[]);
    assert!(cold.status.success(), "cold run failed");
    assert!(
        stderr_of(&cold).contains("misses=90 stores=90"),
        "cold run populates all 90 cells: {}",
        stderr_of(&cold)
    );
    let cells = cell_files(&dir);
    assert_eq!(cells.len(), 90, "9 solos + 81 pairs on disk");

    // Flip bytes in one entry and truncate another: a bit-rot and a
    // torn write, straight on the stored files.
    let flipped = &cells[0];
    let mut bytes = std::fs::read(flipped).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(flipped, &bytes).unwrap();
    let torn = &cells[1];
    let bytes = std::fs::read(torn).unwrap();
    std::fs::write(torn, &bytes[..bytes.len() / 3]).unwrap();

    let healed = run(&dir, &[]);
    assert!(healed.status.success(), "healing run must not fail");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&healed.stdout),
        "healed output must be byte-identical to the cold run"
    );
    let err = stderr_of(&healed);
    assert!(
        err.contains("hits=88 misses=2 stores=2 store_errors=0 quarantined=2"),
        "exactly the two damaged entries heal by recompute: {err}"
    );

    // The damaged bytes were preserved aside and logged, not deleted.
    let quarantined: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().contains(".quarantine-"))
        .collect();
    assert_eq!(quarantined.len(), 2, "both bad entries set aside");
    let log = std::fs::read_to_string(dir.join("quarantine.log")).expect("quarantine manifest");
    assert_eq!(
        log.lines().count(),
        2,
        "one manifest line per quarantine: {log}"
    );

    // A third run is fully warm again: the healed entries verify.
    let warm = run(&dir, &[]);
    assert!(warm.status.success());
    assert!(
        stderr_of(&warm).contains("hits=90 misses=0 stores=0 store_errors=0 quarantined=0"),
        "healed cache serves 100% hits: {}",
        stderr_of(&warm)
    );
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_cache_write_faults_never_poison_results() {
    let dir = tmpdir("badwrites");

    // Corrupt one cache store and tear another while the grid runs:
    // the stored entries go bad, the returned results must not.
    let cold = run(
        &dir,
        &["--faults", "cache-corrupt,nth=5;cache-torn-write,nth=12"],
    );
    assert!(cold.status.success(), "{}", stderr_of(&cold));

    // Reference output from a clean, uncached run.
    assert_eq!(
        clean_stdout(),
        String::from_utf8_lossy(&cold.stdout),
        "fault-injected cache writes must not change the rendered output"
    );

    // The rerun finds the two bad entries, quarantines, recomputes, and
    // still renders identical bytes.
    let healed = run(&dir, &[]);
    assert!(healed.status.success());
    let err = stderr_of(&healed);
    assert!(
        err.contains("quarantined=2"),
        "both injected bad writes detected on reread: {err}"
    );
    assert!(
        err.contains("store_errors=0"),
        "healing stores succeed once the fault plan is gone: {err}"
    );
    assert_eq!(clean_stdout(), String::from_utf8_lossy(&healed.stdout));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_rerun_simulates_nothing_under_shard_dispatch() {
    let dir = tmpdir("warmshard");

    // Populate through the dispatcher, with a transient worker kill and
    // an on-disk corruption folded in (the combined acceptance drill).
    let cold = run(
        &dir,
        &[
            "--workers",
            "2",
            "--retries",
            "2",
            "--backoff-ms",
            "5",
            "--faults",
            "worker-kill,scope=pair-grid/compress+db,attempts=1",
        ],
    );
    assert!(cold.status.success(), "{}", stderr_of(&cold));
    assert!(
        stderr_of(&cold).contains("misses=90 stores=90"),
        "the parent stores every cell the workers computed: {}",
        stderr_of(&cold)
    );

    let cells = cell_files(&dir);
    assert_eq!(cells.len(), 90, "every cell reached the cache");
    let victim = &cells[3];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(victim, &bytes).unwrap();

    // Sharded rerun: 89 hits resolve in the parent (no dispatch), the
    // corrupt cell is quarantined and recomputed by a worker.
    let healed = run(&dir, &["--workers", "2"]);
    assert!(healed.status.success(), "{}", stderr_of(&healed));
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&healed.stdout),
        "healed sharded rerun must render identical bytes"
    );
    assert!(
        stderr_of(&healed).contains("hits=89 misses=1"),
        "only the damaged cell was re-dispatched: {}",
        stderr_of(&healed)
    );

    // Fully warm: zero shards dispatched, zero cells simulated.
    let warm = run(&dir, &["--workers", "2"]);
    assert!(warm.status.success());
    assert!(
        stderr_of(&warm).contains("hits=90 misses=0"),
        "warm rerun is 100% cache hits: {}",
        stderr_of(&warm)
    );
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache replaces grid checkpoints: a run whose cells fail (here two
/// persistent injected panics) exits 3 with the surviving rows, every
/// finished cell already stored; the same command rerun without the
/// faults computes only the two missing cells and renders the clean
/// run's bytes.
#[test]
fn partial_grid_resumes_from_the_cache() {
    let dir = tmpdir("resume");
    let missing = ["compress+db", "jess+jack"];
    let faults = missing
        .iter()
        .map(|l| format!("panic,component=system,cycle=2000,scope=pair-grid/{l}"))
        .collect::<Vec<_>>()
        .join(";");
    let partial = run(&dir, &["--retries", "0", "--faults", &faults]);
    assert_eq!(partial.status.code(), Some(3), "{}", stderr_of(&partial));
    assert!(
        stderr_of(&partial).contains("misses=90 stores=88"),
        "every finished cell is stored: {}",
        stderr_of(&partial)
    );

    let clean = clean_stdout();
    let expected: String = clean
        .lines()
        .filter(|l| !l.starts_with("compress,db,") && !l.starts_with("jess,jack,"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        String::from_utf8_lossy(&partial.stdout),
        expected,
        "the partial CSV is the clean one minus the failed rows"
    );

    let resumed = run(&dir, &["--retries", "0"]);
    assert!(resumed.status.success(), "{}", stderr_of(&resumed));
    assert_eq!(String::from_utf8_lossy(&resumed.stdout), clean);
    assert!(
        stderr_of(&resumed).contains("hits=88 misses=2"),
        "only the failed cells are recomputed: {}",
        stderr_of(&resumed)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
