//! Golden-master storage: committed snapshots under
//! `crates/scenarios/golden/`, one JSON file per scenario.
//!
//! The conformance suite (`tests/golden.rs`) renders the current
//! [`CompactReport`]s and requires **byte
//! equality** with the committed files — under `CLAMSHELL_THREADS=1`
//! and `=4` in CI, which is what extends the determinism contract to
//! every scenario. Regenerate intentionally with:
//!
//! ```text
//! CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test golden
//! ```

use crate::report::CompactReport;
use clamshell_obs::json;
use std::path::{Path, PathBuf};

/// The committed snapshot directory.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Snapshot path for one scenario.
pub fn golden_path(scenario: &str) -> PathBuf {
    golden_dir().join(format!("{scenario}.json"))
}

/// Render a scenario's per-seed snapshots as the committed file format:
/// a JSON array with one compact object per line (stable, diffable).
pub fn render(reports: &[CompactReport]) -> String {
    json::array_per_line(reports.iter().map(CompactReport::to_json))
}

/// Read a scenario's committed snapshot, if present.
pub fn read(scenario: &str) -> Option<String> {
    std::fs::read_to_string(golden_path(scenario)).ok()
}

/// Overwrite a scenario's committed snapshot (the bless path).
pub fn bless(scenario: &str, content: &str) {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create golden dir");
    std::fs::write(golden_path(scenario), content).expect("write golden file");
}

/// Whether this test run should regenerate snapshots instead of
/// comparing (`CLAMSHELL_BLESS` set to anything non-empty).
pub fn blessing() -> bool {
    std::env::var("CLAMSHELL_BLESS").map(|v| !v.is_empty()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_land_inside_the_crate() {
        let p = golden_path("benign");
        assert!(p.ends_with("golden/benign.json"));
        assert!(p.starts_with(env!("CARGO_MANIFEST_DIR")));
    }
}
