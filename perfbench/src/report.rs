//! What one measurement process reports, and its one-line JSON form.

use crate::stats::Quantile;

/// One named figure with its unit and, for order statistics, the
/// number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` or `README.md`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`1/s`, `us`, `ms`, `s`, `ratio`, ...).
    pub unit: &'static str,
    /// Samples behind the value, when it is a statistic over samples.
    pub n: Option<usize>,
}

/// Everything a measurement process prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Jobs offered in the measured cycles.
    pub attempted: u64,
    /// Jobs offered without a decision.
    pub failed: u64,
    /// Whether every cycle's decisions matched the simulator's.
    pub correct: bool,
    /// Free-form facts about the run (job count, cycles, ...).
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Adds a plain value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n: None,
        });
    }

    /// Adds an order statistic with its sample count.
    pub fn put_q(&mut self, name: &str, q: Quantile, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: q.value,
            unit,
            n: Some(q.n),
        });
    }

    /// Adds a value computed over `n` samples.
    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n: Some(n),
        });
    }

    /// Adds a fact.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// The report as one JSON object:
    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit","n"}},"info":{..}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let n = m.n.map_or("null".to_string(), |n| n.to_string());
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    n
                )
            })
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"info\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(","),
            info.join(",")
        )
    }
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit and always prints a decimal point or
        // exponent Rust can round-trip.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.put("x", 1.5, "s");
        r.put_n("y", 2.0, "us", 7);
        r.note("k", "a\"b");
        assert_eq!(
            r.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"x\":{\"value\":1.5,\"unit\":\"s\",\"n\":null},\
             \"y\":{\"value\":2.0,\"unit\":\"us\",\"n\":7}},\"info\":{\"k\":\"a\\\"b\"}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1e-7), "1e-7");
    }
}
