//! The checked-in MCNC corpus, read straight from its files, and the task
//! population the workloads draw from.
//!
//! Only the `arch` and `task` lines of `manifest.txt` and the `.vbs` bytes
//! are used; the corpus traces and the scheduler crate's corpus helpers are
//! not, so the workloads stay fixed however the scheduler changes.

use std::path::Path;
use vbs_arch::ArchSpec;
use vbs_core::Vbs;
use vbs_runtime::VbsRepository;

/// Instances in every workload's population.
pub const POPULATION: usize = 48;

/// One compressed stream of the corpus.
pub struct Stream {
    /// Manifest task name (`alu4`, `alu4@l`, ...).
    pub name: String,
    /// The `.vbs` file bytes.
    pub bytes: Vec<u8>,
    /// The parsed stream (audits decode it afresh each time).
    pub vbs: Vbs,
}

impl Stream {
    /// Frames the stream occupies once placed.
    pub fn area(&self) -> u64 {
        u64::from(self.vbs.width()) * u64::from(self.vbs.height())
    }
}

/// The corpus architecture and its streams, in manifest order.
pub struct Corpus {
    /// The one architecture every stream targets.
    pub spec: ArchSpec,
    /// The streams.
    pub streams: Vec<Stream>,
}

/// One deployed task: a distinct repository name backed by a corpus
/// stream, so the decode cache keys it separately.
pub struct Instance {
    /// Repository name, `<stream>#NN`.
    pub name: String,
    /// Index into [`Corpus::streams`].
    pub stream: usize,
}

impl Corpus {
    /// Reads `manifest.txt` and every task's `.vbs` file under `dir`, and
    /// checks that each stream parses, targets the manifest architecture
    /// and has the manifest's shape.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        let read = |name: &str| {
            std::fs::read(dir.join(name)).map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        let manifest = String::from_utf8(read("manifest.txt")?)
            .map_err(|_| "manifest.txt is not UTF-8".to_string())?;
        let mut spec = None;
        let mut streams = Vec::new();
        for (n, line) in manifest.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("manifest.txt:{}: malformed `{line}`", n + 1);
            match fields.as_slice() {
                ["arch", width, lut] => {
                    let width = width.parse().map_err(|_| bad())?;
                    let lut = lut.parse().map_err(|_| bad())?;
                    spec = Some(ArchSpec::new(width, lut).map_err(|e| format!("{}: {e}", bad()))?);
                }
                ["task", name, file, width, height, _luts] => {
                    let width: u16 = width.parse().map_err(|_| bad())?;
                    let height: u16 = height.parse().map_err(|_| bad())?;
                    let bytes = read(file)?;
                    let vbs = Vbs::from_bytes(&bytes).map_err(|e| format!("{file}: {e}"))?;
                    if (vbs.width(), vbs.height()) != (width, height) {
                        return Err(format!("{file}: shape differs from the manifest"));
                    }
                    streams.push(Stream {
                        name: (*name).to_string(),
                        bytes,
                        vbs,
                    });
                }
                _ => {}
            }
        }
        let spec = spec.ok_or("manifest.txt has no `arch` line")?;
        if streams.is_empty() {
            return Err("manifest.txt lists no tasks".into());
        }
        if let Some(s) = streams.iter().find(|s| *s.vbs.spec() != spec) {
            return Err(format!("{}: stream targets another architecture", s.name));
        }
        Ok(Corpus { spec, streams })
    }

    /// The population: instance `i` is backed by stream `i mod streams`, so
    /// every stream is deployed and the shape mix is the same for every
    /// seed.
    pub fn population(&self) -> Vec<Instance> {
        (0..POPULATION)
            .map(|i| {
                let stream = i % self.streams.len();
                Instance {
                    name: format!("{}#{i:02}", self.streams[stream].name),
                    stream,
                }
            })
            .collect()
    }

    /// A repository holding every instance of `population`.
    pub fn repository(&self, population: &[Instance]) -> VbsRepository {
        let mut repository = VbsRepository::new();
        for instance in population {
            let bytes = self.streams[instance.stream].bytes.clone();
            repository.store_bytes(instance.name.clone(), bytes);
        }
        repository
    }
}
