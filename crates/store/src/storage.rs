//! Sync storage backends behind read/write traits.
//!
//! The array layer addresses *flat named objects* (a manifest and its
//! chunk files); a backend maps names to bytes. Two implementations:
//!
//! * [`DirStorage`] — one file per object inside a root directory (the
//!   on-disk layout the verify gate `cmp`s byte-for-byte),
//! * [`MemStorage`] — a `BTreeMap`, for tests and corruption injection.
//!
//! Object names are restricted to a flat, portable alphabet so a
//! manifest can never address files outside its directory.

use std::collections::BTreeMap;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;

use crate::error::StoreError;

/// Checks that `name` is a flat object name: non-empty, no path
/// separators, no leading dot (so no `..` traversal and no hidden
/// files).
fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::Manifest(format!(
            "invalid object name {name:?} (flat [A-Za-z0-9._-] names only)"
        )))
    }
}

/// Read access to named byte objects.
pub trait StorageRead {
    /// Reads the full contents of `name`. A missing object is
    /// [`StoreError::Missing`].
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError>;
}

/// Write access to named byte objects.
pub trait StorageWrite: StorageRead {
    /// Creates or replaces `name` with `bytes`.
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;
}

/// Directory-backed storage: each object is one file under `root`.
#[derive(Debug, Clone)]
pub struct DirStorage {
    root: PathBuf,
}

impl DirStorage {
    /// Opens (creating if needed) the directory at `root`, for writers.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DirStorage { root })
    }

    /// Opens the existing directory at `root`, for readers: a missing
    /// directory is an [`ErrorKind::NotFound`] I/O error, and nothing is
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        if !root.is_dir() {
            return Err(StoreError::Io(std::io::Error::new(
                ErrorKind::NotFound,
                format!("no store directory at {}", root.display()),
            )));
        }
        Ok(DirStorage { root })
    }
}

impl StorageRead for DirStorage {
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        validate_name(name)?;
        match fs::read(self.root.join(name)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == ErrorKind::NotFound => Err(StoreError::Missing(name.into())),
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

impl StorageWrite for DirStorage {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        validate_name(name)?;
        let mut f = fs::File::create(self.root.join(name))?;
        f.write_all(bytes)?;
        Ok(())
    }
}

/// In-memory storage for tests (and for injecting corruption).
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    objects: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Mutable access to an object's bytes (tests flip bits through
    /// this).
    pub fn object_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.objects.get_mut(name)
    }

    /// All object names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.objects.keys().cloned().collect()
    }
}

impl StorageRead for MemStorage {
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        validate_name(name)?;
        self.objects
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::Missing(name.into()))
    }
}

impl StorageWrite for MemStorage {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        validate_name(name)?;
        self.objects.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::new();
        assert!(matches!(s.get("a.bin"), Err(StoreError::Missing(_))));
        s.put("a.bin", &[1, 2, 3]).unwrap();
        assert_eq!(s.get("a.bin").unwrap(), vec![1, 2, 3]);
        assert!(matches!(s.get("b.bin"), Err(StoreError::Missing(_))));
    }

    #[test]
    fn dir_storage_round_trips() {
        let root = std::env::temp_dir().join(format!("slstore_test_{}", std::process::id()));
        let mut s = DirStorage::create(&root).unwrap();
        s.put("x.chunk-000000.slc", &[9, 8]).unwrap();
        assert_eq!(s.get("x.chunk-000000.slc").unwrap(), vec![9, 8]);
        assert!(matches!(s.get("nope"), Err(StoreError::Missing(_))));
        assert_eq!(
            DirStorage::open(&root)
                .unwrap()
                .get("x.chunk-000000.slc")
                .unwrap(),
            vec![9, 8]
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_never_creates_the_directory() {
        let root = std::env::temp_dir().join(format!("slstore_absent_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let missing = root.join("nested");
        assert!(
            matches!(DirStorage::open(&missing), Err(StoreError::Io(e)) if e.kind() == ErrorKind::NotFound)
        );
        assert!(!root.exists());
    }

    #[test]
    fn names_are_confined_to_the_directory() {
        let mut s = MemStorage::new();
        for bad in ["", "../evil", "a/b", ".hidden", "a\\b", "name with space"] {
            assert!(s.put(bad, &[0]).is_err(), "accepted {bad:?}");
            assert!(s.get(bad).is_err());
        }
    }
}
