//! The on-disk content-addressed result store.
//!
//! Every entry lives at `<dir>/<k0k1>/<key>.crp` (two-hex-char fan-out
//! so a big cache does not produce one enormous directory), where `key`
//! is the [`content_hash`] of the *question* as the daemon computed it.
//! The daemon stores merged cells only: the key is a cell's, the hash of
//! its ordered job keys (each the hash of the one payload a worker runs),
//! and the value is the bit-exact blob the cell's shard-order merge once
//! produced.
//!
//! Entries are self-verifying: the file carries its own key and the
//! content hash of its value, so a truncated write, a flipped bit, or a
//! hand-edited file is detected on read and surfaced as a typed
//! [`ServeError::CorruptCache`] — the caller recomputes and overwrites
//! instead of serving poison.  Writes go through a temp file + rename,
//! so a crash mid-write leaves either the old entry or none.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crp_fleet::hash::{content_hash, is_content_hash};
use crp_obs::{Fields, LineReader};

use crate::ServeError;

/// Magic first line of every cache entry file.
const ENTRY_HEADER: &str = "crp-cache v1";

/// A content-addressed key → blob store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| ServeError::Io(format!("cannot create cache dir {dir:?}: {e}")))?;
        Ok(Self { dir })
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path of `key` (two-hex-char fan-out subdirectory).
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(&key[..2]).join(format!("{key}.crp"))
    }

    /// Looks `key` up.  `Ok(None)` for a clean miss.
    ///
    /// # Errors
    ///
    /// [`ServeError::CorruptCache`] when an entry exists but fails its
    /// self-checks (bad header, key mismatch, truncated value, value
    /// hash mismatch) — the caller should recompute and overwrite;
    /// [`ServeError::Malformed`] for a key that is not a content hash.
    pub fn get(&self, key: &str) -> Result<Option<String>, ServeError> {
        self.check_key(key)?;
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ServeError::Io(format!("cannot read {path:?}: {e}"))),
        };
        let corrupt = |what: &str| ServeError::CorruptCache {
            key: key.to_string(),
            what: what.to_string(),
        };
        let text = std::str::from_utf8(&bytes).map_err(|_| corrupt("entry is not UTF-8"))?;
        // Header: "crp-cache v1\nkey <key>\nvalue <hash> bytes <n>\n",
        // then exactly n value bytes.
        let read = || {
            let mut reader = LineReader::new(text);
            reader.header(ENTRY_HEADER)?;
            let stored_key = reader.field("key", Fields::token)?;
            if stored_key != key {
                return Err(reader.error(format!("entry holds key {stored_key}")));
            }
            let (value_hash, len) = reader.field("value", |fields| {
                let hash = fields.token()?;
                fields.keyword("bytes")?;
                Ok((hash, fields.int::<usize>()?))
            })?;
            let value = reader.rest();
            if value.len() != len {
                return Err(
                    reader.error(format!("expected {len} value bytes, found {}", value.len()))
                );
            }
            if content_hash(value.as_bytes()) != value_hash {
                return Err(reader.error("value bytes do not match their recorded hash"));
            }
            Ok(value)
        };
        read()
            .map(|value| Some(value.to_string()))
            .map_err(|e| corrupt(&e.to_string()))
    }

    /// Stores `value` under `key`, atomically (temp file + rename), and
    /// overwriting any previous entry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for filesystem failures;
    /// [`ServeError::Malformed`] for a key that is not a content hash.
    pub fn put(&self, key: &str, value: &str) -> Result<(), ServeError> {
        self.check_key(key)?;
        let path = self.entry_path(key);
        let parent = path.parent().expect("entry paths have a fan-out parent");
        fs::create_dir_all(parent)
            .map_err(|e| ServeError::Io(format!("cannot create {parent:?}: {e}")))?;
        let mut entry = String::with_capacity(value.len() + 128);
        entry.push_str(ENTRY_HEADER);
        entry.push('\n');
        entry.push_str(&format!("key {key}\n"));
        entry.push_str(&format!(
            "value {} bytes {}\n",
            content_hash(value.as_bytes()),
            value.len()
        ));
        entry.push_str(value);
        // Unique temp name per writer (pid + a process-wide counter) so
        // concurrent puts of the same key — different threads, different
        // processes — cannot interleave inside one temp file; whichever
        // rename lands last wins, and both wrote identical bytes anyway
        // (the key is the content address of the question, the value its
        // deterministic answer).
        static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let writer_id = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = parent.join(format!(".{key}.{}.{writer_id}.tmp", std::process::id()));
        {
            let mut file = fs::File::create(&tmp)
                .map_err(|e| ServeError::Io(format!("cannot create {tmp:?}: {e}")))?;
            file.write_all(entry.as_bytes())
                .map_err(|e| ServeError::Io(format!("cannot write {tmp:?}: {e}")))?;
            file.sync_all().ok();
        }
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            ServeError::Io(format!("cannot move {tmp:?} into place: {e}"))
        })
    }

    /// Number of entries currently stored (walks the fan-out dirs; used
    /// by diagnostics and tests, not hot paths).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for filesystem failures.
    pub fn len(&self) -> Result<usize, ServeError> {
        let mut count = 0;
        for shard in fs::read_dir(&self.dir).map_err(ServeError::from)? {
            let shard = shard.map_err(ServeError::from)?;
            if !shard.file_type().map_err(ServeError::from)?.is_dir() {
                continue;
            }
            for entry in fs::read_dir(shard.path()).map_err(ServeError::from)? {
                let entry = entry.map_err(ServeError::from)?;
                if entry.path().extension().is_some_and(|e| e == "crp") {
                    count += 1;
                }
            }
        }
        Ok(count)
    }

    /// True when the cache holds no entries.
    ///
    /// # Errors
    ///
    /// As [`ResultCache::len`].
    pub fn is_empty(&self) -> Result<bool, ServeError> {
        Ok(self.len()? == 0)
    }

    fn check_key(&self, key: &str) -> Result<(), ServeError> {
        if !is_content_hash(key) {
            return Err(ServeError::Malformed(format!(
                "cache key {key:?} is not a canonical content hash"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("crp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn round_trips_and_misses() {
        let cache = scratch_cache("roundtrip");
        let key = content_hash(b"question");
        assert_eq!(cache.get(&key).unwrap(), None, "clean miss");
        cache.put(&key, "the answer\nwith lines\n").unwrap();
        assert_eq!(
            cache.get(&key).unwrap().as_deref(),
            Some("the answer\nwith lines\n")
        );
        assert_eq!(cache.len().unwrap(), 1);
        // Overwrite is allowed and atomic.
        cache.put(&key, "a different answer").unwrap();
        assert_eq!(
            cache.get(&key).unwrap().as_deref(),
            Some("a different answer")
        );
        assert_eq!(cache.len().unwrap(), 1);
    }

    #[test]
    fn corrupt_and_truncated_entries_are_typed_errors() {
        let cache = scratch_cache("corrupt");
        let key = content_hash(b"q");
        cache.put(&key, "precious bits").unwrap();
        let path = cache.dir().join(&key[..2]).join(format!("{key}.crp"));

        // Truncation.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert!(matches!(
            cache.get(&key),
            Err(ServeError::CorruptCache { .. })
        ));

        // Bit flip in the value.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x20;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            cache.get(&key),
            Err(ServeError::CorruptCache { .. })
        ));

        // Wrong header entirely.
        fs::write(&path, b"not a cache entry").unwrap();
        assert!(matches!(
            cache.get(&key),
            Err(ServeError::CorruptCache { .. })
        ));

        // Recompute-and-overwrite heals it.
        cache.put(&key, "precious bits").unwrap();
        assert_eq!(cache.get(&key).unwrap().as_deref(), Some("precious bits"));
    }

    #[test]
    fn non_hash_keys_are_rejected() {
        let cache = scratch_cache("badkey");
        assert!(matches!(
            cache.put("not-a-hash", "x"),
            Err(ServeError::Malformed(_))
        ));
        assert!(matches!(
            cache.get("../escape"),
            Err(ServeError::Malformed(_))
        ));
    }
}
