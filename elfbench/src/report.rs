//! Result plumbing: named metrics, robust statistics, peak memory and the
//! one-line JSON result the benchmark ends with.

use std::fmt::Write as _;
use std::time::Duration;

/// One reported figure: a name, its value as measured and its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics (insertion order is print order).
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// One message per metric whose value is NaN or infinite.
    #[must_use]
    pub fn non_finite(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is {}", m.name, m.value))
            .collect()
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller takes at least one sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of durations, in seconds.
#[must_use]
pub fn median_secs(xs: &[Duration]) -> f64 {
    median(&xs.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// `num / den`, or 0 when there is nothing to divide by.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (10^6 bytes), from the
/// kernel's high-water mark.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// `VmHWM` line (the benchmark needs Linux procfs for this metric).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Renders the closing result object: `correct`, `attempted`, `failed` and
/// every metric with its unit. Values print with all their digits.
#[must_use]
pub fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; `non_finite` lets the caller count
        // such a value as a failure before it is written as 0.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_keeps_every_digit_and_unit() {
        let mut m = Metrics::default();
        m.push("mips", 0.123_456_789_012_3, "MIPS");
        m.push("setup_s", 2.0, "s");
        let j = render_json(true, 7, 0, &m);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"mips\": {\"value\": 0.1234567890123, \"unit\": \"MIPS\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
