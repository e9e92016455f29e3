//! The Azure Data Lake Store substitute.
//!
//! The Load Extraction module "stores this data in Azure Data Lake Store
//! (ADLS). These files are input to the AML pipeline" (Section 2.2). Here the
//! store is a trait with two backends: an in-memory map (tests, examples) and
//! a durable on-disk directory tree (`seagull-cli extract`).

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::ops::{Deref, Range};
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};

/// File extension of every blob a [`DiskBlobStore`] holds, whatever its
/// format.
const BLOB_EXTENSION: &str = "blob";

/// The bytes of one stored blob, immutable and shared. Built from a
/// `Vec<u8>` it takes the vector without copying, and `clone` only counts
/// a reference, so an encoded region-week or snapshot is never copied on
/// its way into or out of a [`MemoryBlobStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob(Arc<Vec<u8>>);

impl Blob {
    /// A copy of `range` of this blob. Panics when `range` is out of
    /// bounds, as slicing does.
    pub fn slice(&self, range: Range<usize>) -> Blob {
        Blob::from(&self[range])
    }
}

impl Deref for Blob {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Blob {
    fn from(bytes: Vec<u8>) -> Blob {
        Blob(Arc::new(bytes))
    }
}

impl From<&[u8]> for Blob {
    fn from(bytes: &[u8]) -> Blob {
        Blob::from(bytes.to_vec())
    }
}

/// A partition key: one blob per `(region, week)` as in production, plus a
/// free-form kind (raw telemetry vs extracted pipeline input).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobKey {
    /// Free-form namespace: raw telemetry, extracted input, snapshots,
    /// journals, checkpoints.
    pub kind: String,
    /// Region the blob belongs to.
    pub region: String,
    /// Week index: `start_day / 7` of the week the blob covers. Kinds that
    /// are not weekly reuse this slot as a sequence number.
    pub week: i64,
}

impl BlobKey {
    /// Key for extracted pipeline input.
    pub fn extracted(region: &str, week: i64) -> BlobKey {
        BlobKey {
            kind: "extracted".into(),
            region: region.into(),
            week,
        }
    }

    /// Key for raw telemetry.
    pub fn raw(region: &str, week: i64) -> BlobKey {
        BlobKey {
            kind: "raw".into(),
            region: region.into(),
            week,
        }
    }

    fn as_path(&self) -> PathBuf {
        PathBuf::from(&self.kind)
            .join(&self.region)
            .join(format!("week-{}.{BLOB_EXTENSION}", self.week))
    }
}

impl fmt::Display for BlobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/week-{}", self.kind, self.region, self.week)
    }
}

/// Blob storage abstraction.
pub trait BlobStore: Send + Sync {
    /// Writes (or replaces) a blob.
    fn put(&self, key: &BlobKey, data: Blob) -> io::Result<()>;
    /// Reads a blob; `NotFound` if absent.
    fn get(&self, key: &BlobKey) -> io::Result<Blob>;
    /// Blob size in bytes without reading it; `NotFound` if absent.
    fn size(&self, key: &BlobKey) -> io::Result<u64>;
    /// Lists keys with the given kind, sorted.
    fn list(&self, kind: &str) -> io::Result<Vec<BlobKey>>;
    /// Deletes a blob if present; returns whether it existed.
    fn delete(&self, key: &BlobKey) -> io::Result<bool>;
}

/// In-memory blob store.
#[derive(Debug, Default)]
pub struct MemoryBlobStore {
    blobs: RwLock<BTreeMap<BlobKey, Blob>>,
}

impl MemoryBlobStore {
    /// Creates an empty store.
    pub fn new() -> MemoryBlobStore {
        MemoryBlobStore::default()
    }

    /// Number of blobs held.
    pub fn len(&self) -> usize {
        self.blobs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no blobs are held.
    pub fn is_empty(&self) -> bool {
        self.blobs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

impl BlobStore for MemoryBlobStore {
    fn put(&self, key: &BlobKey, data: Blob) -> io::Result<()> {
        self.blobs
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.clone(), data);
        Ok(())
    }

    fn get(&self, key: &BlobKey) -> io::Result<Blob> {
        self.blobs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {key}")))
    }

    fn size(&self, key: &BlobKey) -> io::Result<u64> {
        self.blobs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .map(|b| b.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {key}")))
    }

    fn list(&self, kind: &str) -> io::Result<Vec<BlobKey>> {
        Ok(self
            .blobs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .filter(|k| k.kind == kind)
            .cloned()
            .collect())
    }

    fn delete(&self, key: &BlobKey) -> io::Result<bool> {
        Ok(self
            .blobs
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key)
            .is_some())
    }
}

/// On-disk blob store rooted at a directory.
#[derive(Debug)]
pub struct DiskBlobStore {
    root: PathBuf,
}

impl DiskBlobStore {
    /// Opens (creating if needed) a store rooted at `root`. Writes are
    /// atomic and durable: every `put` stages a temp file, calls `sync_all`
    /// on it before the rename and fsyncs the parent directory after it, so
    /// both the blob contents and the directory entry survive power loss —
    /// not just process death.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskBlobStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskBlobStore { root })
    }

    fn path_for(&self, key: &BlobKey) -> PathBuf {
        self.root.join(key.as_path())
    }
}

impl BlobStore for DiskBlobStore {
    fn put(&self, key: &BlobKey, data: Blob) -> io::Result<()> {
        let path = self.path_for(key);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Crash-safe write: stage into a temp file in the same directory,
        // then atomically rename into place. A crash mid-write leaves only a
        // `.tmp` straggler (invisible to `list`/`get`), never a torn
        // `week-N.blob` a later pipeline run would read as its input.
        let tmp = path.with_extension(format!("{BLOB_EXTENSION}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, &*data)?;
        // Flush the temp file's contents before the rename publishes it, so
        // the rename can never expose an unflushed (torn) blob after power
        // loss.
        std::fs::File::open(&tmp)?.sync_all()?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {}
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        // Persist the directory entry: without this the rename itself can be
        // lost on power loss even though the file data was synced.
        if let Some(parent) = path.parent() {
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    }

    fn get(&self, key: &BlobKey) -> io::Result<Blob> {
        std::fs::read(self.path_for(key)).map(Blob::from)
    }

    fn size(&self, key: &BlobKey) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path_for(key))?.len())
    }

    fn list(&self, kind: &str) -> io::Result<Vec<BlobKey>> {
        let mut keys = Vec::new();
        let kind_dir = self.root.join(kind);
        if !kind_dir.exists() {
            return Ok(keys);
        }
        for region_entry in std::fs::read_dir(&kind_dir)? {
            let region_entry = region_entry?;
            let region = region_entry.file_name().to_string_lossy().into_owned();
            for file in std::fs::read_dir(region_entry.path())? {
                let name = file?.file_name().to_string_lossy().into_owned();
                if let Some(week) = name
                    .strip_prefix("week-")
                    .and_then(|s| s.strip_suffix(BLOB_EXTENSION))
                    .and_then(|s| s.strip_suffix('.'))
                    .and_then(|s| s.parse::<i64>().ok())
                {
                    keys.push(BlobKey {
                        kind: kind.to_string(),
                        region: region.clone(),
                        week,
                    });
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    fn delete(&self, key: &BlobKey) -> io::Result<bool> {
        match std::fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn BlobStore) {
        let k1 = BlobKey::extracted("west", 100);
        let k2 = BlobKey::extracted("east", 100);
        let k3 = BlobKey::raw("west", 100);

        assert!(store.get(&k1).is_err());
        store.put(&k1, Blob::from(&b"hello"[..])).unwrap();
        store.put(&k2, Blob::from(&b"world!"[..])).unwrap();
        store.put(&k3, Blob::from(&b"raw"[..])).unwrap();

        assert_eq!(&store.get(&k1).unwrap()[..], b"hello");
        assert_eq!(store.size(&k2).unwrap(), 6);

        let extracted = store.list("extracted").unwrap();
        assert_eq!(extracted.len(), 2);
        assert!(extracted.contains(&k1) && extracted.contains(&k2));
        assert_eq!(store.list("raw").unwrap(), vec![k3.clone()]);
        assert!(store.list("nothing").unwrap().is_empty());

        // Overwrite.
        store.put(&k1, Blob::from(&b"hi"[..])).unwrap();
        assert_eq!(store.size(&k1).unwrap(), 2);

        assert!(store.delete(&k1).unwrap());
        assert!(!store.delete(&k1).unwrap());
        assert!(store.get(&k1).is_err());
    }

    #[test]
    fn memory_store() {
        let store = MemoryBlobStore::new();
        exercise(&store);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn disk_store() {
        let dir = std::env::temp_dir().join(format!(
            "seagull-blob-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskBlobStore::open(&dir).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_put_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!(
            "seagull-blob-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskBlobStore::open(&dir).unwrap();
        let k = BlobKey::extracted("west", 42);
        store.put(&k, Blob::from(&b"first"[..])).unwrap();
        store.put(&k, Blob::from(&b"second"[..])).unwrap();
        assert_eq!(&store.get(&k).unwrap()[..], b"second");

        // Only the final blob exists — no `.tmp` stragglers after put.
        let files: Vec<String> = std::fs::read_dir(dir.join("extracted").join("west"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec!["week-42.blob".to_string()]);

        // A straggler from a simulated mid-write crash is invisible to list.
        std::fs::write(
            dir.join("extracted")
                .join("west")
                .join("week-43.blob.tmp-1"),
            b"torn",
        )
        .unwrap();
        assert_eq!(store.list("extracted").unwrap(), vec![k]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_display_and_path() {
        let k = BlobKey::extracted("west-us", 2600);
        assert_eq!(k.to_string(), "extracted/west-us/week-2600");
    }

    #[test]
    fn blob_takes_its_vec_shares_on_clone_and_copies_a_slice() {
        let bytes = b"region-week".to_vec();
        let buffer = bytes.as_ptr();
        let blob = Blob::from(bytes);
        assert_eq!(blob.as_ptr(), buffer, "From<Vec<u8>> keeps the buffer");
        assert_eq!(blob.clone().as_ptr(), buffer, "clone shares the buffer");
        let week = blob.slice(7..11);
        assert_eq!(week, Blob::from(&b"week"[..]));
        assert_ne!(week.as_ptr(), blob[7..].as_ptr(), "slice copies");
    }

    #[test]
    #[should_panic]
    fn blob_slice_out_of_range_panics() {
        Blob::from(&b"region-week"[..]).slice(7..12);
    }
}
