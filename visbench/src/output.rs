//! The result line and the human-readable metric table.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (rounds for a median, spans for a
    /// percentile, 1 for a count).
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.value.is_finite())
    }

    /// The table printed above the result line.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|m| format!("  {:<34} {:>16.6} {:<8} n={}\n", m.name, m.value, m.unit, m.samples))
            .collect()
    }

    /// The `metrics` object of the result line.
    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (non-finite values have no JSON form and print as `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms", 10);
        m.push("setup_s", 0.5, "s", 3);
        assert_eq!(
            result_line(true, 7, 0, &m),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_and_numbers_escape_to_valid_json() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "1e-7");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
