//! The external memory holding the Virtual Bit-Streams of every task
//! (the "external memory" block of Figure 2).

use crate::error::RuntimeError;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use vbs_arch::ArchSpec;
use vbs_core::{Vbs, VbsError};

/// A named store of serialized Virtual Bit-Streams.
///
/// Streams are kept in their serialized byte form — exactly what would sit in
/// an external flash or DDR memory — and are re-parsed on fetch, so the
/// repository also exercises the binary format end to end.
#[derive(Debug, Clone, Default)]
pub struct VbsRepository {
    streams: BTreeMap<String, Stream>,
}

/// One stored stream and the outcome of validating it, filled in by the
/// first [`VbsRepository::spec`] after the bytes were stored.
#[derive(Debug, Clone)]
struct Stream {
    bytes: Vec<u8>,
    spec: OnceLock<Result<ArchSpec, VbsError>>,
}

impl Stream {
    fn new(bytes: Vec<u8>) -> Self {
        Stream {
            bytes,
            spec: OnceLock::new(),
        }
    }
}

impl VbsRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        VbsRepository::default()
    }

    /// Stores a task's VBS under `name`, replacing any previous stream with
    /// the same name. Returns the size of the serialized stream in bytes.
    pub fn store(&mut self, name: impl Into<String>, vbs: &Vbs) -> usize {
        let bytes = vbs.to_bytes();
        let len = bytes.len();
        self.streams.insert(name.into(), Stream::new(bytes));
        len
    }

    /// Stores an already-serialized stream.
    pub fn store_bytes(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.streams.insert(name.into(), Stream::new(bytes));
    }

    fn stream(&self, name: &str) -> Result<&Stream, RuntimeError> {
        self.streams
            .get(name)
            .ok_or_else(|| RuntimeError::UnknownTask {
                name: name.to_string(),
            })
    }

    /// Fetches and parses the VBS of a task.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTask`] for unknown names and
    /// [`RuntimeError::Decode`] if the stored bytes are corrupted.
    pub fn fetch(&self, name: &str) -> Result<Vbs, RuntimeError> {
        Vbs::from_bytes(&self.stream(name)?.bytes).map_err(RuntimeError::from)
    }

    /// The architecture a stored task's stream targets — the key a decode
    /// cache files its images under. The stream is validated with a full
    /// parse the first time this is asked after it was stored, and the
    /// outcome is kept until the name is stored again, so later lookups
    /// neither parse nor allocate.
    ///
    /// # Errors
    ///
    /// As [`VbsRepository::fetch`]: [`RuntimeError::UnknownTask`] for
    /// unknown names, [`RuntimeError::Decode`] for corrupted bytes.
    pub fn spec(&self, name: &str) -> Result<ArchSpec, RuntimeError> {
        let stream = self.stream(name)?;
        stream
            .spec
            .get_or_init(|| Vbs::from_bytes(&stream.bytes).map(|vbs| *vbs.spec()))
            .clone()
            .map_err(RuntimeError::from)
    }

    /// Raw serialized size of a stored task, in bytes.
    pub fn stored_size(&self, name: &str) -> Option<usize> {
        self.streams.get(name).map(|s| s.bytes.len())
    }

    /// The raw serialized bytes of a stored task — what a fault injector
    /// mutates to model external-memory corruption.
    pub fn bytes(&self, name: &str) -> Option<&[u8]> {
        self.streams.get(name).map(|s| s.bytes.as_slice())
    }

    /// Names of the stored tasks, sorted.
    pub fn task_names(&self) -> Vec<&str> {
        self.streams.keys().map(String::as_str).collect()
    }

    /// Number of stored tasks.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::ArchSpec;

    #[test]
    fn store_fetch_roundtrip() {
        let vbs = Vbs::new(ArchSpec::paper_example(), 1, 3, 3, Vec::new()).unwrap();
        let mut repo = VbsRepository::new();
        let size = repo.store("empty", &vbs);
        assert!(size > 0);
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.stored_size("empty"), Some(size));
        assert_eq!(repo.fetch("empty").unwrap(), vbs);
        assert_eq!(repo.spec("empty").unwrap(), *vbs.spec());
        assert!(matches!(
            repo.fetch("missing"),
            Err(RuntimeError::UnknownTask { .. })
        ));
    }

    #[test]
    fn corrupted_streams_surface_as_decode_errors() {
        let mut repo = VbsRepository::new();
        repo.store_bytes("bad", vec![0xff; 3]);
        assert!(matches!(repo.fetch("bad"), Err(RuntimeError::Decode(_))));
        assert!(matches!(repo.spec("bad"), Err(RuntimeError::Decode(_))));
        // Storing under the name again replaces the validation outcome.
        let vbs = Vbs::new(ArchSpec::paper_example(), 1, 3, 3, Vec::new()).unwrap();
        repo.store("bad", &vbs);
        assert_eq!(repo.spec("bad").unwrap(), *vbs.spec());
        assert_eq!(repo.task_names(), vec!["bad"]);
    }
}
