//! Robustness properties of the text input surfaces: the trace format
//! ([`Trace::from_text`]) and the fault-plan format ([`FaultPlan::parse`])
//! return typed errors on any input and never panic, and a generated trace
//! survives a serialize → parse round trip unchanged.

use proptest::prelude::*;
use vbs_sched::{FaultPlan, Trace, WorkloadSpec};

/// Fragments the token-soup strategies assemble lines from: every keyword
/// of both formats, numbers at and past the `u8`/`u64` limits, comment and
/// separator characters, and non-ASCII whitespace.
const TOKENS: &[&str] = &[
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
}
