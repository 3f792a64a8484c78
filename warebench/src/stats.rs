//! Exact sample statistics, process memory, and the result line.

/// Linear-interpolated quantile `q` of `values` (exact per-sample values,
/// never histogram buckets). `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples per window of [`windowed`].
pub const WINDOW: usize = 250;

/// Quantile `q` robust to the host's brief stalls (the reference VM
/// freezes for 5–40 ms most seconds): split `values` (in arrival order)
/// into consecutive windows of [`WINDOW`] samples (a short remainder joins
/// the last window) and return the median of the windows' `q`-quantiles.
/// A stall moves the few windows it overlaps, not the result. Fewer than
/// two windows' worth is a plain quantile.
pub fn windowed(values: &[f64], q: f64) -> f64 {
    let windows = values.len() / WINDOW;
    if windows < 2 {
        return quantile(values, q);
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { values.len() } else { (w + 1) * WINDOW };
            quantile(&values[w * WINDOW..end], q)
        })
        .collect();
    median(&per_window)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident memory since start (or since [`reset_peak_rss`]), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Restart peak-RSS tracking from the current resident size, so the peak
/// reported covers the measured run rather than the repeated set-ups.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value }
    }
}

/// Minimal JSON string escaping.
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

/// A JSON number with every digit of the measurement; non-finite values
/// (never expected) degrade to 0 rather than producing invalid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[3.0, 1.0], 0.5), 2.0);
    }

    #[test]
    fn windowed_quantile_ignores_one_stalled_window() {
        let mut v = vec![100.0; WINDOW * 4];
        v[..WINDOW / 10].fill(50_000.0);
        assert_eq!(windowed(&v, 0.99), 100.0);
        assert!(quantile(&v, 0.99) > 100.0);
        assert_eq!(windowed(&v[..WINDOW], 0.5), 100.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("a_us", "us", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
