//! Typed store errors.
//!
//! Every failure mode of the chunked array store is a distinct variant:
//! corruption is *detected* (checksums, length accounting) and surfaces
//! as a typed error — never a panic, never a silently-garbage tensor.

use std::io;

/// Errors from the chunked array store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying storage I/O failure.
    Io(io::Error),
    /// A named object is missing from the storage backend.
    Missing(String),
    /// The manifest is structurally invalid (bad JSON, missing fields,
    /// inconsistent counts).
    Manifest(String),
    /// A chunk's FNV-1a checksum does not match the manifest.
    Checksum {
        /// Index of the offending chunk.
        chunk: usize,
        /// Checksum recorded in the manifest.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// Chunk bytes are structurally invalid (wrong length for the
    /// values the manifest says they hold).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Missing(name) => write!(f, "store object {name:?} not found"),
            StoreError::Manifest(what) => write!(f, "bad store manifest: {what}"),
            StoreError::Checksum {
                chunk,
                expected,
                actual,
            } => write!(
                f,
                "chunk {chunk} checksum mismatch: manifest {expected:016x}, data {actual:016x}"
            ),
            StoreError::Corrupt(what) => write!(f, "corrupt chunk data: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}
