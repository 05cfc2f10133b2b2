//! Small shared helpers: quantiles, the digest hash, peak RSS, and the
//! metric list a workload reports.

use std::collections::BTreeMap;

/// Distinct inputs one run cycles through.
pub const SUB_SEEDS: u64 = 4;

/// The `k`-th input seed of a run at `seed` (`k < SUB_SEEDS`): runs at
/// different seeds never share an input.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SUB_SEEDS).wrapping_add(k)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A one-line distribution summary of `values` (ms): count and quantiles.
pub fn spread_line(label: &str, values: &[f64]) -> String {
    let q = |p| quantile(values, p);
    format!(
        "{label}: n={} min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
        values.len(),
        q(0.0),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(1.0)
    )
}

/// A one-line series of `values` in run order, to show drift over a run.
pub fn series_line(label: &str, values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    format!("{label} in run order: {}", items.join(" "))
}

/// 64-bit FNV-1a, folded over each part in order: a stable hash for
/// digests that must repeat across runs, hosts and builds.
pub fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of a list of serializable parts: FNV-1a over their JSON.
pub fn digest_json(parts: &[serde::Value]) -> u64 {
    let texts: Vec<String> = parts.iter().map(|v| v.to_json_compact()).collect();
    fnv1a(texts.iter().map(|t| t.as_bytes()))
}

/// The process's peak resident set (VmHWM) in MiB, or 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metric values with units, in insertion-independent (sorted) order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The metrics as a JSON object of `{"value": v, "unit": u}` entries,
    /// values printed with every digit (`{:?}` is the shortest exact form).
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}
