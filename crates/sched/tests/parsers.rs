//! Robustness properties of the text input surfaces: the trace format
//! ([`Trace::from_text`]), the fault-plan format ([`FaultPlan::parse`])
//! and the corpus manifest (through [`McncCorpus::load`]) return typed
//! errors on any input and never panic, and a generated trace survives a
//! serialize → parse round trip unchanged.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vbs_sched::{FaultPlan, McncCorpus, Trace, WorkloadSpec};

/// Fragments the token-soup strategies assemble lines from: every keyword
/// of the three formats, numbers at and past the `u8`/`u16`/`u64` limits,
/// comment and separator characters, and non-ASCII whitespace.
const TOKENS: &[&str] = &[
    "arch",
    "single",
    "fleet",
    "task",
    "trace",
    "65536",
    "load",
    "unload",
    "swap",
    "seed",
    "write",
    "outage",
    "transient",
    "persistent",
    "corrupt",
    "-",
    "#",
    "0",
    "1",
    "7",
    "255",
    "256",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "fir4",
    "\u{3000}",
    "\u{a0}",
    "é",
    " ",
    "\t",
    "\n",
    "\r\n",
];

fn soup(indices: &[usize]) -> String {
    indices.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect()
}

/// Token-soup tokens a manifest line can name as its `.vbs` or trace file;
/// [`load_corpus`] creates a file under each.
const FILE_TOKENS: &[&str] = &["fir4", "0", "1", "7", "255"];

/// A fresh corpus directory for one case of one property (properties run
/// in parallel, so each gets its own).
fn corpus_dir(property: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vbs-parsers-{}-{property}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    dir
}

/// Writes `manifest` and a `payload` file under every [`FILE_TOKENS`]
/// name into `dir`, loads it as a corpus (errors are fine, panics are
/// not) and removes the directory.
fn load_corpus(dir: &Path, manifest: &[u8], payload: &[u8]) {
    std::fs::write(dir.join("manifest.txt"), manifest).expect("write manifest");
    for name in FILE_TOKENS {
        std::fs::write(dir.join(name), payload).expect("write corpus file");
    }
    let _ = McncCorpus::load(dir);
    std::fs::remove_dir_all(dir).expect("remove corpus dir");
}

proptest! {
    /// Arbitrary bytes, decoded lossily, never panic the trace parser.
    #[test]
    fn trace_from_text_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(0u8..=255, 0..512)
    ) {
        let _ = Trace::from_text(&String::from_utf8_lossy(&bytes));
    }

    /// Keyword-heavy token soup (far likelier than random bytes to reach
    /// the field parsers) never panics the trace parser, and every error
    /// names a line of the input.
    #[test]
    fn trace_from_text_never_panics_on_token_soup(
        tokens in collection::vec(0usize..64, 0..96)
    ) {
        let text = soup(&tokens);
        if let Err(vbs_sched::TraceError::Malformed { line, .. }) = Trace::from_text(&text) {
            prop_assert!(line >= 1 && line <= text.lines().count());
        }
    }

    /// A synthetic trace serializes and parses back to the same events.
    #[test]
    fn synthetic_traces_round_trip_through_text(
        loads in 1usize..40,
        interarrival in 0u64..8,
        duration in 0u64..40,
        priorities in 0u8..=255,
        slack in 0u64..30,
        with_deadline in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let trace = Trace::synthetic(&WorkloadSpec {
            tasks: vec!["fir4".into(), "crc4".into(), "aes5".into()],
            loads,
            mean_interarrival: interarrival,
            mean_duration: duration,
            priority_levels: priorities,
            deadline_slack: with_deadline.then_some(slack),
            seed,
        });
        let text = trace.to_text().expect("generated names are trace-safe");
        prop_assert_eq!(Trace::from_text(&text).expect("own output parses"), trace);
    }

    /// Arbitrary bytes, decoded lossily, never panic the fault-plan parser.
    #[test]
    fn fault_plan_parse_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(0u8..=255, 0..512)
    ) {
        let _ = FaultPlan::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Keyword-heavy token soup never panics the fault-plan parser.
    #[test]
    fn fault_plan_parse_never_panics_on_token_soup(
        tokens in collection::vec(0usize..64, 0..96)
    ) {
        let _ = FaultPlan::parse(&soup(&tokens));
    }

    /// Arbitrary manifest bytes never panic the corpus loader.
    #[test]
    fn corpus_load_never_panics_on_arbitrary_manifest_bytes(
        manifest in collection::vec(0u8..=255, 0..512),
        payload in collection::vec(0u8..=255, 0..128),
    ) {
        let dir = corpus_dir("bytes");
        load_corpus(&dir, &manifest, &payload);
    }

    /// Manifest lines with each keyword's arity but soup values — numbers
    /// past the field widths, names where numbers belong, files that exist
    /// (holding token soup, so `trace` lines reach the trace parser) and
    /// files that do not — never panic the corpus loader.
    #[test]
    fn corpus_load_never_panics_on_keyword_lines(
        lines in collection::vec((0usize..5, collection::vec(0usize..64, 5)), 0..12),
        payload in collection::vec(0usize..64, 0..64),
    ) {
        const ARITY: [usize; 5] = [2, 2, 3, 5, 2];
        const FIELDS: &[&str] = &["0", "1", "7", "255", "256", "65536", "4294967296", "fir4"];
        // A well-formed header, which the soup lines then override, so
        // more cases get past the manifest to the files it names.
        let header = "arch 7 1\nsingle 7 7\nfleet 1 7 7\n".to_string();
        let manifest: String = std::iter::once(header).chain(lines
            .iter()
            .map(|(keyword, fields)| {
                let fields: Vec<&str> = fields[..ARITY[*keyword]]
                    .iter()
                    .map(|&i| FIELDS[i % FIELDS.len()])
                    .collect();
                format!("{} {}\n", TOKENS[*keyword], fields.join(" "))
            }))
            .collect();
        let dir = corpus_dir("lines");
        load_corpus(&dir, manifest.as_bytes(), soup(&payload).as_bytes());
    }
}

/// Manifest numbers past the width of the field they are stored in are
/// rejected with the line that holds them instead of wrapping around (a
/// 65536-wide fabric used to load as a 0-wide one).
#[test]
fn corpus_manifest_rejects_out_of_range_numbers() {
    for (manifest, line) in [
        ("arch 7 1\nsingle 65536 7\nfleet 1 7 7\n", 2),
        ("arch 7 256\nsingle 7 7\nfleet 1 7 7\n", 1),
        ("arch 7 1\nsingle 7 7\nfleet 1 7 7\ntask t t 7 70000 1\n", 4),
    ] {
        let dir = corpus_dir("range");
        std::fs::write(dir.join("manifest.txt"), manifest).expect("write manifest");
        let loaded = McncCorpus::load(&dir);
        std::fs::remove_dir_all(&dir).expect("remove corpus dir");
        match loaded {
            Err(vbs_sched::CorpusError::Manifest { line: at, .. }) => assert_eq!(at, line),
            other => panic!("{manifest:?} was not rejected: {other:?}"),
        }
    }
}
