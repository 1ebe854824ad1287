//! The result line and the provenance stamp, as hand-written JSON.

use std::fmt::Write as _;

/// Named metrics with units, in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Append `name = value unit`.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let fields = self.0.iter().map(|(name, value, unit)| {
            let metric = Object::default().num("value", *value).str("unit", unit);
            (name.clone(), metric.to_json())
        });
        Object(fields.collect()).to_json()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object assembled field by field.
#[derive(Debug, Default)]
pub struct Object(Vec<(String, String)>);

impl Object {
    /// A string field.
    pub fn str(mut self, key: &str, value: &str) -> Object {
        self.0.push((key.to_string(), quote(value)));
        self
    }

    /// A numeric field.
    pub fn num(mut self, key: &str, value: f64) -> Object {
        self.0.push((key.to_string(), num(value)));
        self
    }

    /// A field holding already-encoded JSON.
    pub fn raw(mut self, key: &str, json: String) -> Object {
        self.0.push((key.to_string(), json));
        self
    }

    /// The encoded object.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Host, toolchain and source the result was measured on: the git
/// commit when run from a git checkout, and always a fingerprint of the
/// repository's sources taken at build time.
pub fn provenance() -> Object {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Object::default()
        .num("host_cores", cores as f64)
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str("commit", &git_commit())
        .str("source", env!("PERFBENCH_SOURCE"))
}

/// The checked-out commit, or `"unknown"` when the working directory
/// is not the root of a git checkout (git is not asked to search the
/// directories above it).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_encode_with_units() {
        let mut m = Metrics::default();
        m.push("a_ms", 1.25, "ms");
        m.push("b", 3.0, "count");
        assert_eq!(
            m.to_json(),
            r#"{"a_ms": {"value": 1.25, "unit": "ms"}, "b": {"value": 3, "unit": "count"}}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
