//! JSONL trace rendering and the FNV-1a trace fingerprint.
//!
//! The wire format is deliberately hand-rolled: every line is rendered
//! field-by-field in a fixed order, so the bytes are a function of the
//! event stream alone — no map-iteration or float-formatting ambiguity.
//! That makes the rendered trace (and its fingerprint) a golden artifact
//! that must be byte-identical across thread counts.
//!
//! Schema, version 1. Each `(scenario, seed)` section is one header line
//! followed by one line per retained event:
//!
//! ```text
//! {"v":1,"stream":"clamshell-trace","scenario":"<name>","seed":<n>,
//!  "events":<n>,"recorded":<n>,"dropped":<n>,"fingerprint":"fnv1a:<16 hex>"}
//! {"v":1,"seq":<n>,"at_ms":<n>,"ev":"<event-name>",...variant fields}
//! ```
//!
//! Versioning contract: existing fields never change meaning or order;
//! additions bump `TRACE_SCHEMA_VERSION`.

use std::fmt::Write as _;

use crate::json;
use crate::recorder::{TraceEvent, TraceKind};

/// Bump on any change to line shape or field order.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// 64-bit FNV-1a: the workspace's one hasher for trace, report and
/// stream-checkpoint fingerprints.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Fold `bytes` in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold one `u64` as its eight little-endian bytes.
    pub fn word(&mut self, w: u64) {
        self.write(&w.to_le_bytes());
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `"fnv1a:<16 lowercase hex digits>"` — the committed/logged form.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("fnv1a:{fp:016x}")
}

/// Render one event line (no trailing newline).
pub fn render_event(event: &TraceEvent) -> String {
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "{{\"v\":{},\"seq\":{},\"at_ms\":{},\"ev\":\"{}\"",
        TRACE_SCHEMA_VERSION,
        event.seq,
        event.at_ms,
        event.kind.event_name().as_str()
    );
    match event.kind {
        TraceKind::Checkout { worker, waited_ms } => {
            let _ = write!(line, ",\"worker\":{worker},\"waited_ms\":{waited_ms}");
        }
        TraceKind::Dispatch { worker, task, assignment } => {
            let _ =
                write!(line, ",\"worker\":{worker},\"task\":{task},\"assignment\":{assignment}");
        }
        TraceKind::AssignmentDone { worker, task, assignment, span_ms } => {
            let _ = write!(
                line,
                ",\"worker\":{worker},\"task\":{task},\"assignment\":{assignment},\"span_ms\":{span_ms}"
            );
        }
        TraceKind::Walkout { worker, task, assignment } => {
            let _ =
                write!(line, ",\"worker\":{worker},\"task\":{task},\"assignment\":{assignment}");
        }
        TraceKind::ReserveTimeout { worker }
        | TraceKind::StaleRetired { worker }
        | TraceKind::MaintenanceEvict { worker } => {
            let _ = write!(line, ",\"worker\":{worker}");
        }
        TraceKind::OutageDefer { resume_ms } => {
            let _ = write!(line, ",\"resume_ms\":{resume_ms}");
        }
        TraceKind::OutageResume => {}
        TraceKind::PoolJoin { worker, occupancy } | TraceKind::PoolLeave { worker, occupancy } => {
            let _ = write!(line, ",\"worker\":{worker},\"occupancy\":{occupancy}");
        }
    }
    line.push('}');
    line
}

/// FNV-1a over every event's fixed-width encoding: `seq` and `at_ms` as
/// LE `u64`, the kind index as one byte, then the variant's payload
/// (see [`TraceKind::field_values`]) as LE `u64`s in render order.
///
/// This hashes exactly the information the rendered JSONL line carries —
/// [`render_event`] is a pure function of these fields — but skips the
/// per-event string rendering, keeping `into_report` off the formatting
/// path (the whole-run overhead guard in the `hotloop` bench depends on
/// this). Equal fingerprints therefore imply byte-identical rendered
/// traces, and the committed golden fingerprints pin the stream just as
/// tightly as hashing the text would.
pub fn fingerprint_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> u64 {
    let mut fnv = Fnv::new();
    for event in events {
        fnv.word(event.seq);
        fnv.word(event.at_ms);
        fnv.write(&[event.kind.index() as u8]);
        let (values, n) = event.kind.field_values();
        for &value in &values[..n] {
            fnv.word(value);
        }
    }
    fnv.finish()
}

/// Render the section header line (no trailing newline).
pub fn render_header(
    scenario: &str,
    seed: u64,
    events: usize,
    recorded: u64,
    dropped: u64,
    fingerprint: u64,
) -> String {
    format!(
        "{{\"v\":{},\"stream\":\"clamshell-trace\",\"scenario\":{},\"seed\":{},\"events\":{},\"recorded\":{},\"dropped\":{},\"fingerprint\":\"{}\"}}",
        TRACE_SCHEMA_VERSION,
        json::quote(scenario),
        seed,
        events,
        recorded,
        dropped,
        fingerprint_hex(fingerprint)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal structural check for the flat (non-nested) objects this
    /// renderer emits: balanced outer braces, well-paired quotes, and
    /// `"key":value` comma separation. The workspace has no JSON parser,
    /// so the CI schema validation uses python3; this keeps a sanity net
    /// inside the crate too.
    fn assert_flat_json_object(line: &str) {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        let body = &line[1..line.len() - 1];
        let mut in_str = false;
        let mut escaped = false;
        let mut pairs = Vec::new();
        let mut start = 0;
        for (i, c) in body.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                ',' if !in_str => {
                    pairs.push(&body[start..i]);
                    start = i + 1;
                }
                '{' | '}' if !in_str => panic!("nested object in flat line: {line}"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string: {line}");
        pairs.push(&body[start..]);
        for pair in pairs {
            let (key, value) = pair.split_once(':').expect("key:value pair");
            assert!(
                key.starts_with('"') && key.ends_with('"') && key.len() >= 3,
                "bad key in {line}"
            );
            let is_num = value.bytes().all(|b| b.is_ascii_digit()) && !value.is_empty();
            let is_str = value.starts_with('"') && value.ends_with('"') && value.len() >= 2;
            assert!(is_num || is_str, "bad value {value:?} in {line}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::new();
        a.write(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv::new();
        foobar.write(b"foobar");
        assert_eq!(foobar.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn event_lines_are_stable() {
        let e = TraceEvent {
            seq: 7,
            at_ms: 1250,
            kind: TraceKind::AssignmentDone { worker: 3, task: 11, assignment: 42, span_ms: 900 },
        };
        assert_eq!(
            render_event(&e),
            "{\"v\":1,\"seq\":7,\"at_ms\":1250,\"ev\":\"assignment_done\",\"worker\":3,\"task\":11,\"assignment\":42,\"span_ms\":900}"
        );
        let bare = TraceEvent { seq: 0, at_ms: 0, kind: TraceKind::OutageResume };
        assert_eq!(render_event(&bare), "{\"v\":1,\"seq\":0,\"at_ms\":0,\"ev\":\"outage_resume\"}");
    }

    #[test]
    fn every_line_parses_as_json() {
        let kinds = [
            TraceKind::Checkout { worker: 1, waited_ms: 2 },
            TraceKind::Dispatch { worker: 1, task: 2, assignment: 3 },
            TraceKind::AssignmentDone { worker: 1, task: 2, assignment: 3, span_ms: 4 },
            TraceKind::Walkout { worker: 1, task: 2, assignment: 3 },
            TraceKind::ReserveTimeout { worker: 1 },
            TraceKind::StaleRetired { worker: 1 },
            TraceKind::MaintenanceEvict { worker: 1 },
            TraceKind::OutageDefer { resume_ms: 5 },
            TraceKind::OutageResume,
            TraceKind::PoolJoin { worker: 1, occupancy: 2 },
            TraceKind::PoolLeave { worker: 1, occupancy: 2 },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let line = render_event(&TraceEvent { seq: i as u64, at_ms: 10 * i as u64, kind });
            assert_flat_json_object(&line);
            assert!(line.starts_with("{\"v\":1,\"seq\":"), "{line}");
            assert!(line.contains(",\"at_ms\":"), "{line}");
            assert!(line.contains(",\"ev\":\""), "{line}");
        }
        let header = render_header("blackout", 42, 10, 12, 2, 0xdead_beef);
        assert_flat_json_object(&header);
        assert!(header.contains("\"fingerprint\":\"fnv1a:00000000deadbeef\""));
    }

    #[test]
    fn fingerprint_tracks_event_bytes() {
        let a = TraceEvent { seq: 0, at_ms: 1, kind: TraceKind::ReserveTimeout { worker: 5 } };
        let b = TraceEvent { seq: 1, at_ms: 2, kind: TraceKind::ReserveTimeout { worker: 6 } };
        let fp_ab = fingerprint_events([&a, &b]);
        let fp_ba = fingerprint_events([&b, &a]);
        assert_ne!(fp_ab, fp_ba, "fingerprint must be order-sensitive");
        assert_eq!(fp_ab, fingerprint_events(vec![&a, &b]));
        // Same payload, different kind: the kind index byte must keep
        // the encodings distinct.
        let join =
            TraceEvent { seq: 0, at_ms: 1, kind: TraceKind::PoolJoin { worker: 5, occupancy: 2 } };
        let leave = TraceEvent { kind: TraceKind::PoolLeave { worker: 5, occupancy: 2 }, ..join };
        assert_ne!(fingerprint_events([&join]), fingerprint_events([&leave]));
    }
}
