//! Diagnostics, suppressions, and the text / JSON renderers.

use std::fmt;

/// How bad a finding is. Errors always fail the run (exit 1); warnings
/// fail it only under `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the linted root, with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`D001`..`D006` or pragma rules `P001`..`P003`).
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
    pub hint: &'static str,
}

/// A violation that an inline `// clamshell-lint: allow(...) -- reason`
/// pragma silenced. Recorded so the allowlist stays auditable.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub file: String,
    /// Line of the suppressed violation (not of the pragma).
    pub line: usize,
    pub rule: &'static str,
    pub reason: String,
}

/// The result of a lint run over a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub suppressed: Vec<Suppression>,
    pub files_scanned: usize,
}

impl LintReport {
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Human-readable report: one block per diagnostic, then the
    /// recorded suppressions, then a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: {}[{}]: {}\n    hint: {}\n",
                d.file,
                d.line,
                d.severity.as_str(),
                d.rule,
                d.message,
                d.hint
            ));
        }
        if !self.suppressed.is_empty() {
            out.push_str("suppressions in effect:\n");
            for s in &self.suppressed {
                out.push_str(&format!(
                    "    allowed {} at {}:{} -- {}\n",
                    s.rule, s.file, s.line, s.reason
                ));
            }
        }
        out.push_str(&format!(
            "{} files scanned: {} error{}, {} warning{}, {} suppressed\n",
            self.files_scanned,
            self.errors(),
            plural(self.errors()),
            self.warnings(),
            plural(self.warnings()),
            self.suppressed.len()
        ));
        out
    }

    /// Machine-readable report. The schema is stable and covered by the
    /// CLI tests: `version`, `files_scanned`, `diagnostics[]` (`file`,
    /// `line`, `rule`, `severity`, `message`, `hint`), `suppressed[]`
    /// (`file`, `line`, `rule`, `reason`), and `summary` (`errors`,
    /// `warnings`, `suppressed`).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"severity\": {}, \
                 \"message\": {}, \"hint\": {}}}",
                json_str(&d.file),
                d.line,
                json_str(d.rule),
                json_str(d.severity.as_str()),
                json_str(&d.message),
                json_str(d.hint)
            ));
        }
        out.push_str(if self.diagnostics.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&s.file),
                s.line,
                json_str(s.rule),
                json_str(&s.reason)
            ));
        }
        out.push_str(if self.suppressed.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str(&format!(
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"suppressed\": {}}}\n",
            self.errors(),
            self.warnings(),
            self.suppressed.len()
        ));
        out.push_str("}\n");
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Minimal JSON string encoder, a deliberate copy of
/// `clamshell_obs::json::quote`: the linter has no dependencies and runs
/// first in CI, before the crates it lints have been built.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![Diagnostic {
                file: "crates/x/src/a.rs".into(),
                line: 3,
                rule: "D001",
                severity: Severity::Error,
                message: "a \"quoted\" message".into(),
                hint: "h",
            }],
            suppressed: vec![Suppression {
                file: "crates/x/src/b.rs".into(),
                line: 9,
                rule: "D006",
                reason: "invariant".into(),
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn text_report_lists_findings_and_summary() {
        let text = sample().render_text();
        assert!(text.contains("crates/x/src/a.rs:3: error[D001]"), "{text}");
        assert!(text.contains("allowed D006 at crates/x/src/b.rs:9 -- invariant"), "{text}");
        assert!(text.contains("2 files scanned: 1 error, 0 warnings, 1 suppressed"), "{text}");
    }

    #[test]
    fn json_escapes_and_balances() {
        let json = sample().render_json();
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"version\": 1"), "{json}");
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let json = LintReport::default().render_json();
        assert!(json.contains("\"diagnostics\": []"), "{json}");
        assert!(json.contains("\"suppressed\": []"), "{json}");
    }
}
