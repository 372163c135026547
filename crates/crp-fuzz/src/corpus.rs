//! The reproducer corpus: shrunk failing traces as content-addressed
//! files.
//!
//! Each corpus entry is one [`Trace`] in its canonical wire form, stored
//! as `fuzz-<hash12>.trace` where `<hash12>` is the first twelve hex
//! characters of the SHA-256 of the wire bytes.  Content addressing makes
//! check-ins idempotent (re-running a campaign re-derives byte-identical
//! files) and collisions self-evident; the corpus-replay test loads every
//! entry, fails on the first unparsable file, and re-checks the recorded
//! violation.

use std::fs;
use std::path::{Path, PathBuf};

use crp_fleet::content_hash;
use crp_predict::{read_trace_file, PredictError, Trace};

use crate::error::FuzzError;

/// Filename extension of corpus entries.
pub const TRACE_EXTENSION: &str = "trace";

/// A directory of shrunk reproducer traces.
#[derive(Debug, Clone)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Wraps a corpus directory (which need not exist yet; [`Corpus::save`]
    /// creates it, [`Corpus::load_all`] treats a missing directory as
    /// empty).
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content-addressed filename of a trace: `fuzz-<hash12>.trace`.
    pub fn trace_name(trace: &Trace) -> String {
        let hash = content_hash(trace.to_wire().as_bytes());
        format!("fuzz-{}.{TRACE_EXTENSION}", &hash[..12])
    }

    /// Writes `trace` into the corpus (creating the directory) and returns
    /// the path.  Saving the same trace twice is a no-op rewrite of the
    /// same file.
    ///
    /// # Errors
    ///
    /// [`FuzzError::Corpus`] naming the path on any I/O failure.
    pub fn save(&self, trace: &Trace) -> Result<PathBuf, FuzzError> {
        fs::create_dir_all(&self.dir).map_err(|err| FuzzError::Corpus {
            path: self.dir.display().to_string(),
            what: format!("cannot create corpus directory: {err}"),
        })?;
        let path = self.dir.join(Self::trace_name(trace));
        fs::write(&path, trace.to_wire()).map_err(|err| FuzzError::Corpus {
            path: path.display().to_string(),
            what: format!("cannot write: {err}"),
        })?;
        Ok(path)
    }

    /// Loads every `*.trace` file with [`read_trace_file`], sorted by
    /// filename for determinism.  A missing directory is an empty corpus;
    /// an unreadable, oversized or unparsable file is a typed error
    /// naming it.
    ///
    /// # Errors
    ///
    /// [`FuzzError::Corpus`] naming the offending file on read or parse
    /// failure.
    pub fn load_all(&self) -> Result<Vec<(PathBuf, Trace)>, FuzzError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(err) => {
                return Err(FuzzError::Corpus {
                    path: self.dir.display().to_string(),
                    what: format!("cannot read corpus directory: {err}"),
                })
            }
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == TRACE_EXTENSION))
            .collect();
        paths.sort();
        let mut traces = Vec::with_capacity(paths.len());
        for path in paths {
            let trace = read_trace_file(&path).map_err(|err| match err {
                PredictError::TraceFile { path, what } => FuzzError::Corpus { path, what },
                other => unreachable!("read_trace_file returned {other}"),
            })?;
            traces.push((path, trace));
        }
        Ok(traces)
    }
}

#[cfg(test)]
mod tests {
    use crp_predict::TraceEvent;

    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crp-fuzz-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace() -> Trace {
        Trace::new(
            64,
            vec![
                TraceEvent::Truth {
                    level: 4,
                    weight: 1.0,
                },
                TraceEvent::Observe { fidelity: 0.9 },
                TraceEvent::Drift { shift: -2 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn save_is_content_addressed_and_idempotent() {
        let dir = scratch_dir("save");
        let corpus = Corpus::open(&dir);
        let trace = sample_trace();
        let first = corpus.save(&trace).unwrap();
        let second = corpus.save(&trace).unwrap();
        assert_eq!(first, second, "same trace, same filename");
        let name = first.file_name().unwrap().to_string_lossy().to_string();
        assert!(
            name.starts_with("fuzz-") && name.ends_with(".trace"),
            "{name}"
        );
        let loaded = corpus.load_all().unwrap();
        assert_eq!(loaded, vec![(first, trace)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_directory_is_an_empty_corpus() {
        let corpus = Corpus::open(scratch_dir("missing"));
        assert!(corpus.load_all().unwrap().is_empty());
    }

    #[test]
    fn an_unparsable_entry_is_a_typed_error_naming_the_file() {
        let dir = scratch_dir("broken");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("fuzz-bad.trace"), "not a trace\n").unwrap();
        let err = Corpus::open(&dir).load_all().unwrap_err();
        match &err {
            FuzzError::Corpus { path, .. } => assert!(path.contains("fuzz-bad.trace"), "{err}"),
            other => panic!("expected a corpus error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
