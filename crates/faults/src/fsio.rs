//! Durable, injectable file persistence.
//!
//! Everything the harness writes that must survive a crash — result
//! cache entries, crash-repro bundles — goes through [`persist`]: write to
//! a sibling temp file, `fsync` it, atomically rename over the
//! destination, then `fsync` the parent directory so the rename itself
//! is durable. A kill at any point leaves either the old file or the new
//! one, never a torn mix, and a powered-off machine cannot lose the
//! rename.
//!
//! Because this is the single choke point for durable writes, it is also
//! where the fault plan's `io-error` and `corrupt` clauses bite: an
//! injected error surfaces exactly as a real disk failure would, and an
//! injected corruption writes a payload whose checksum no longer
//! matches, exercising every caller's load-time validation.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Durably persist `bytes` at `path` (temp file, fsync, atomic rename,
/// parent-directory fsync). `target` names the write for the fault
/// plan (`bundle`, `cache`, …).
///
/// The temp file name embeds the process id, so concurrent processes
/// persisting the same path (e.g. two runs sharing a cache directory
/// that both just computed an entry) cannot stomp each other's
/// in-flight temp file; the final rename is atomic and last-writer-wins
/// with identical bytes.
///
/// # Errors
///
/// Any real I/O failure, or an injected `io-error` clause matching
/// `target`.
pub fn persist(path: &Path, bytes: &[u8], target: &str) -> io::Result<()> {
    let mut payload = bytes;
    let mut mangled;
    match crate::write_fault(target) {
        Some(crate::WriteVerdict::Fail(e)) => return Err(e),
        Some(crate::WriteVerdict::CorruptByte) => {
            // Flip one byte mid-payload: framing stays plausible, the
            // checksum does not.
            mangled = bytes.to_vec();
            if !mangled.is_empty() {
                let mid = mangled.len() / 2;
                mangled[mid] ^= 0xA5;
            }
            payload = &mangled;
        }
        Some(crate::WriteVerdict::Truncate) => {
            // A torn write: only a prefix reached the disk before the
            // "crash". Half the payload keeps the header readable so
            // load-time validation has to catch the missing tail, not
            // just an unreadable magic.
            mangled = bytes[..bytes.len() / 2].to_vec();
            payload = &mangled;
        }
        None => {}
    }

    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(payload)?;
        // The data must be on stable storage before the rename makes it
        // the current checkpoint, else a crash could promote a torn file.
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Durability of the rename itself requires syncing the directory
    // entry. Directories cannot be fsync'd on every platform; best-effort
    // failures (e.g. on exotic filesystems) are ignored, real write
    // errors above are not.
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_writes_and_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("jsmt-fsio-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        persist(&path, b"first", "test-target").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        persist(&path, b"second", "test-target").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "state.bin")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files must not linger: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_persists_a_truncated_prefix() {
        let _l = crate::tests::lock();
        let dir = std::env::temp_dir().join(format!("jsmt-fsio-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.cell");
        crate::install_spec("torn,target=torn-test,nth=1").unwrap();
        persist(&path, b"0123456789", "torn-test").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"0123456789"); // write #0 clean
        persist(&path, b"0123456789", "torn-test").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"01234"); // write #1 torn
        persist(&path, b"0123456789", "torn-test").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"0123456789"); // #2 clean again
        crate::clear();
        fs::remove_dir_all(&dir).unwrap();
    }
}
