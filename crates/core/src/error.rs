//! The structured error taxonomy of the harness.
//!
//! Everything that can fail on a *user-facing* path — CLI parsing,
//! experiment configuration, checkpoint and bundle I/O, snapshot
//! decoding — returns a [`JsmtError`] instead of panicking. Errors are
//! hand-rolled (no external error crates): a classified kind, a message,
//! and an optional boxed cause, so `Display` renders the full context
//! chain (`loading crash bundle 'x.crash': checkpoint data: snapshot
//! checksum mismatch: …`) and callers can still branch on [`ErrorKind`].
//!
//! Panics remain reserved for violated internal invariants; the
//! supervised engine (`experiments::supervise`) additionally converts
//! *cell* panics into recorded failures so one bad simulation cannot
//! take down a grid.

use std::fmt;

/// Classification of a [`JsmtError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed command line (unknown flag, missing value, …).
    Cli,
    /// A configuration value is out of domain (scale ≤ 0, zero repeats).
    Config,
    /// An operating-system I/O failure (read, write, rename, fsync).
    Io,
    /// Snapshot bytes failed validation (checksum, framing, version).
    Snapshot,
    /// An experiment could not produce its result.
    Experiment,
    /// A crash-replay did not behave as the bundle recorded.
    Replay,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorKind::Cli => "cli",
            ErrorKind::Config => "config",
            ErrorKind::Io => "io",
            ErrorKind::Snapshot => "snapshot",
            ErrorKind::Experiment => "experiment",
            ErrorKind::Replay => "replay",
        };
        f.write_str(name)
    }
}

/// A classified error with a chain of context messages.
#[derive(Debug)]
pub struct JsmtError {
    kind: ErrorKind,
    message: String,
    cause: Option<Box<JsmtError>>,
}

impl JsmtError {
    /// A leaf error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        JsmtError {
            kind,
            message: message.into(),
            cause: None,
        }
    }

    /// Wrap this error in an outer context message. The outer error
    /// keeps the inner kind, so classification survives wrapping.
    pub fn context(self, message: impl Into<String>) -> Self {
        JsmtError {
            kind: self.kind,
            message: message.into(),
            cause: Some(Box::new(self)),
        }
    }

    /// The error's classification (of the outermost frame).
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The innermost message of the chain (the root cause).
    pub fn root_cause(&self) -> &str {
        let mut e = self;
        while let Some(cause) = &e.cause {
            e = cause;
        }
        &e.message
    }
}

impl fmt::Display for JsmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        let mut cause = self.cause.as_deref();
        while let Some(e) = cause {
            write!(f, ": {}", e.message)?;
            cause = e.cause.as_deref();
        }
        Ok(())
    }
}

impl std::error::Error for JsmtError {}

impl From<std::io::Error> for JsmtError {
    fn from(e: std::io::Error) -> Self {
        JsmtError::new(ErrorKind::Io, e.to_string())
    }
}

impl From<jsmt_snapshot::SnapshotError> for JsmtError {
    fn from(e: jsmt_snapshot::SnapshotError) -> Self {
        JsmtError::new(ErrorKind::Snapshot, e.to_string())
    }
}

/// Extension adding `.context(..)` to `Result`s whose error converts
/// into [`JsmtError`].
pub trait Context<T> {
    /// Convert the error into a [`JsmtError`] wrapped in `message`.
    fn context(self, message: impl Into<String>) -> Result<T, JsmtError>;
}

impl<T, E: Into<JsmtError>> Context<T> for Result<T, E> {
    fn context(self, message: impl Into<String>) -> Result<T, JsmtError> {
        self.map_err(|e| e.into().context(message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_the_context_chain() {
        let e = JsmtError::new(ErrorKind::Snapshot, "checksum mismatch")
            .context("checkpoint data")
            .context("loading 'grid.ck'");
        assert_eq!(
            e.to_string(),
            "loading 'grid.ck': checkpoint data: checksum mismatch"
        );
        assert_eq!(e.kind(), ErrorKind::Snapshot);
        assert_eq!(e.root_cause(), "checksum mismatch");
    }

    #[test]
    fn conversions_classify() {
        let io: JsmtError = std::io::Error::other("disk on fire").into();
        assert_eq!(io.kind(), ErrorKind::Io);
        let snap: JsmtError = jsmt_snapshot::SnapshotError::TrailingBytes(3).into();
        assert_eq!(snap.kind(), ErrorKind::Snapshot);
    }

    #[test]
    fn result_context_extension() {
        let r: Result<(), std::io::Error> = Err(std::io::Error::other("nope"));
        let e = r.context("writing manifest").unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Io);
        assert_eq!(e.to_string(), "writing manifest: nope");
    }
}
