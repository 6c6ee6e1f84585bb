//! The one JSON string escaper shared by every hand-written JSON
//! renderer in the workspace (store reports, session events, bench and
//! simulator documents).

use std::fmt::Write as _;

/// Encodes `s` as a JSON string literal, quotes included: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` use their short forms, and
/// every other control character below U+0020 becomes `\u00XX`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::json_string;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_string("plain"), r#""plain""#);
        assert_eq!(
            json_string("q\"b\\n\nr\rt\tu\u{1}"),
            r#""q\"b\\n\nr\rt\tu\u0001""#
        );
        assert_eq!(json_string("é ✓"), "\"é ✓\"");
    }
}
