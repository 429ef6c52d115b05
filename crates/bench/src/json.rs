//! Minimal JSON emission and extraction for the recorded bench files.
//!
//! The container has no serde; the bench results schema is flat enough
//! that hand-rolled helpers beat a vendored parser. Emission goes through
//! [`JsonObject`] (which owns quoting, separators, and nesting; strings
//! are escaped by `canopus_obs::json_escape`), benches that own one
//! top-level section of a shared file rewrite it with
//! [`replace_section`], and the
//! CI regression gate reads numbers back with [`extract_number`], which
//! only requires that the wanted keys are globally unique in the file —
//! the `BENCH_canopus.json` schema guarantees that for every `smoke_*`
//! key it gates on.

use canopus_obs::json_escape as escape;

/// Formats a float as a JSON number (`null` for non-finite values).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Round-trippable and stable; trailing precision is harmless.
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// An object under construction. Values are pre-rendered JSON fragments;
/// the typed `field_*` helpers render the common cases.
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field holding a raw, already-rendered JSON value.
    pub fn field_raw(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Adds a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.field_raw(key, format!("\"{}\"", escape(value)))
    }

    /// Adds a numeric field.
    pub fn field_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.field_raw(key, number(value))
    }

    /// Adds an integer field (exact, no decimal point).
    pub fn field_int(&mut self, key: &str, value: u64) -> &mut Self {
        self.field_raw(key, value.to_string())
    }

    /// Adds an array field from pre-rendered element fragments.
    pub fn field_array(&mut self, key: &str, elems: &[String]) -> &mut Self {
        self.field_raw(key, format!("[{}]", elems.join(",")))
    }

    /// Renders the object with two-space indentation of its top level.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str(&format!("  \"{}\": {}", escape(k), v));
            if i + 1 < self.fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out
    }
}

/// Extracts the numeric value of the first `"key": <number>` occurrence.
///
/// Sound for schemas whose gated keys appear exactly once (ours); returns
/// `None` when the key is absent or its value is not a plain number.
pub fn extract_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{}\"", escape(key));
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Byte range of the top-level member `"key": value` of the JSON object
/// `doc`, up to (not including) the `,` or `}` that ends it. Tracks
/// strings, so braces and commas inside string values are not structure.
fn find_member(doc: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let needle = format!("\"{}\"", escape(key));
    let bytes = doc.as_bytes();
    let mut depth = 0usize;
    let mut member_start = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1 + usize::from(bytes[i] == b'\\');
                }
                let end = (i + 1).min(bytes.len());
                let is_key = doc[end..].trim_start().starts_with(':');
                if depth == 1 && member_start.is_none() && is_key && doc[start..end] == needle {
                    member_start = Some(start);
                }
            }
            b'{' | b'[' => depth += 1,
            c @ (b',' | b'}' | b']') => {
                if let (1, Some(start)) = (depth, member_start) {
                    return Some(start..i);
                }
                if c != b',' {
                    depth = depth.saturating_sub(1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Replaces (or appends) the top-level member `key` of the JSON object
/// `doc` with `section`, a rendered JSON value; the member ends up last.
pub fn replace_section(doc: &str, key: &str, section: &str) -> String {
    let mut doc = doc.trim_end().to_string();
    if let Some(member) = find_member(&doc, key) {
        // The separating comma goes with it: the one before, or for the
        // first member the one after (and the whitespace up to the next).
        let before = doc[..member.start].trim_end();
        let range = if before.ends_with(',') {
            before.len() - 1..member.end
        } else {
            let rest = &doc[member.end..];
            let rest = rest.strip_prefix(',').map_or(rest, str::trim_start);
            member.start..doc.len() - rest.len()
        };
        doc.replace_range(range, "");
    }
    let close = doc.rfind('}').expect("bench file is a JSON object");
    let head = doc[..close].trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    let indented = section.replace('\n', "\n  ");
    format!("{head}{sep}\n  \"{}\": {indented}\n}}\n", escape(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_renders_and_extracts() {
        let mut obj = JsonObject::new();
        obj.field_int("schema_version", 1)
            .field_str("bench", "knee \"quoted\"")
            .field_num("rate", 12345.678)
            .field_array("ladder", &["1".into(), "2.5".into()]);
        let doc = obj.render();
        assert_eq!(extract_number(&doc, "schema_version"), Some(1.0));
        assert_eq!(extract_number(&doc, "rate"), Some(12345.678));
        assert_eq!(extract_number(&doc, "missing"), None);
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("[1,2.5]"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(extract_number("{\"x\": null}", "x"), None);
    }

    #[test]
    fn extract_handles_negative_and_exponent() {
        assert_eq!(extract_number("{\"a\": -2.5e3}", "a"), Some(-2500.0));
        assert_eq!(extract_number("{ \"a\" :  7 }", "a"), Some(7.0));
    }

    #[test]
    fn replace_section_appends_a_first_section() {
        let doc = "{\n  \"a\": 1\n}\n";
        let out = replace_section(doc, "section", "{\n  \"x\": 2\n}");
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"section\": {\n    \"x\": 2\n  }\n}\n"
        );
        assert_eq!(replace_section("{}", "s", "{}"), "{\n  \"s\": {}\n}\n");
    }

    #[test]
    fn replace_section_replaces_in_place_of_the_old_one() {
        let doc = "{\n  \"section\": {\"x\": {\"y\": 1}},\n  \"a\": 1\n}\n";
        let out = replace_section(doc, "section", "{\"x\": 3}");
        assert_eq!(out, "{\n  \"a\": 1,\n  \"section\": {\"x\": 3}\n}\n");
        // Idempotent, and a nested or string occurrence of the key is not
        // the section.
        assert_eq!(replace_section(&out, "section", "{\"x\": 3}"), out);
        assert_eq!(
            replace_section("{\"s\": 1}", "s", "2"),
            "{\n  \"s\": 2\n}\n"
        );
        let doc = "{\"bench\": \"section\", \"in\": {\"section\": 0}}";
        let out = replace_section(doc, "section", "1");
        assert_eq!(
            out,
            "{\"bench\": \"section\", \"in\": {\"section\": 0},\n  \"section\": 1\n}\n"
        );
    }

    #[test]
    fn replace_section_is_not_fooled_by_braces_in_strings() {
        let doc = "{\"live\": {\"shape\": \"6x6}\\\"{\", \"n\": 1}, \"a\": \"},{\"}";
        let out = replace_section(doc, "live", "{\"n\": 2}");
        assert_eq!(out, "{\"a\": \"},{\",\n  \"live\": {\"n\": 2}\n}\n");
    }
}
