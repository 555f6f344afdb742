//! The workspace's one JSON writer: a string escaper and the committed
//! golden-file shape.
//!
//! Every JSON the workspace emits is flat and hand-rolled field by field
//! (trace lines, golden rows, shard manifests, `--format json` tables),
//! so the only shared pieces are quoting a string and laying rows out as
//! a diffable array. Numbers are written with `Display`; the committed
//! goldens hold integers only, so no float formatting is involved.

/// `s` as a quoted JSON string. `"` and `\` are backslash-escaped,
/// `\n`/`\r`/`\t` use their short forms, and every other control
/// character becomes `\u00XX`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lay out already-rendered JSON values as the committed golden-file
/// shape: `[`, one value per line with `,` separators, `]`, each line
/// newline-terminated. One row per line keeps review diffs readable.
pub fn array_per_line<S: AsRef<str>>(rows: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("[\n");
    let mut rows = rows.into_iter().peekable();
    while let Some(row) = rows.next() {
        out.push_str(row.as_ref());
        if rows.peek().is_some() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_quotes_backslashes_and_controls() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b"), r#""a\"b""#);
        assert_eq!(quote("a\\b"), r#""a\\b""#);
        assert_eq!(quote("l1\nl2\r\tx"), r#""l1\nl2\r\tx""#);
        assert_eq!(quote("\u{1}"), r#""\u0001""#);
        assert_eq!(quote("é"), "\"é\"");
    }

    #[test]
    fn array_is_one_value_per_line() {
        let text = array_per_line(["{\"a\":1}", "{\"a\":2}", "{\"a\":3}"]);
        assert_eq!(text, "[\n{\"a\":1},\n{\"a\":2},\n{\"a\":3}\n]\n");
        assert_eq!(array_per_line(Vec::<String>::new()), "[\n]\n");
    }
}
