//! Minimal JSON emission and extraction for the recorded bench files.
//!
//! The container has no serde; the bench results schema is flat enough
//! that hand-rolled helpers beat a vendored parser. Emission goes through
//! [`JsonObject`] (which owns quoting, separators, and nesting; strings
//! are escaped by `canopus_obs::json_escape`), and the CI regression gate
//! reads numbers back with [`extract_number`], which only requires that
//! the wanted keys are globally unique in the file — the
//! `BENCH_canopus.json` schema guarantees that for every `smoke_*` key it
//! gates on.

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
}
