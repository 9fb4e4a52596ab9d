//! Percentiles and the result line.

/// Nearest-rank quantile of an ascending slice, or `None` unless at least
/// ten samples lie beyond it (a tail read off fewer samples is noise).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 && q > 0.5 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(f64::NAN)
}

/// Sorts `values` and returns the `q` quantile, panicking when too few
/// samples back it: a benchmark that cannot report its percentile is broken.
pub fn required_quantile(name: &str, values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, q).unwrap_or_else(|| {
        panic!("{name}: {} samples cannot support the {q} quantile", values.len())
    })
}

/// Length of the windows the windowed statistics split a run into.
pub const WINDOW_S: f64 = 0.5;

/// Median over the run's whole [`WINDOW_S`] windows of the work completed
/// per second; `done` holds (seconds into the run, work) per operation. A
/// burst of outside load that stalls a minority of windows does not move it.
pub fn windowed_rate(done: &[(f64, f64)], seconds: f64) -> f64 {
    let windows = (seconds / WINDOW_S).floor().max(1.0) as usize;
    let mut work = vec![0.0; windows];
    for &(t, w) in done {
        if let Some(slot) = work.get_mut((t / WINDOW_S) as usize) {
            *slot += w;
        }
    }
    median(&work.iter().map(|w| w / WINDOW_S).collect::<Vec<_>>())
}

/// Median over the run's whole [`WINDOW_S`] windows of each window's `q`
/// quantile; `samples` holds (seconds into the run, value). Windows too
/// sparse to support the quantile are skipped; at least half must count.
pub fn windowed_quantile(name: &str, samples: &[(f64, f64)], q: f64, seconds: f64) -> f64 {
    let windows = (seconds / WINDOW_S).floor().max(1.0) as usize;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if let Some(w) = per.get_mut((t / WINDOW_S) as usize) {
            w.push(v);
        }
    }
    let qs: Vec<f64> = per
        .iter_mut()
        .filter_map(|w| {
            w.sort_by(f64::total_cmp);
            quantile(w, q)
        })
        .collect();
    assert!(qs.len() * 2 >= windows, "{name}: too few samples per window for the {q} quantile");
    median(&qs)
}

/// Metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str, usize)>,
}

impl Report {
    /// Records `name` = `value` `unit`, backed by `samples` measurements, and
    /// prints it as a human-readable line.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        println!("metric {name} = {value:.6} {unit} (n={samples})");
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// The final JSON line, restricted to `names` (in that order).
    pub fn result_line(
        &self,
        names: &[&str],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|name| {
                let (_, value, unit, _) = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
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
    fn tail_quantiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&v[..999], 0.99), None);
        assert_eq!(quantile(&v[..100], 0.9), Some(90.0));
        assert_eq!(quantile(&v[..99], 0.9), None);
        assert_eq!(quantile(&v[..3], 0.5), Some(2.0));
    }

    #[test]
    fn windowed_statistics_ignore_a_minority_of_stalled_windows() {
        // 4 s of one op per ms, except a stalled first second.
        let done: Vec<(f64, f64)> = (0..4000)
            .filter(|i| *i >= 1000 || i % 10 == 0)
            .map(|i| (i as f64 / 1e3, 1.0))
            .collect();
        assert_eq!(windowed_rate(&done, 4.0), 1000.0);
        let lat: Vec<(f64, f64)> =
            done.iter().map(|&(t, _)| (t, if t < 1.0 { 99.0 } else { 1.0 })).collect();
        assert_eq!(windowed_quantile("lat", &lat, 0.9, 4.0), 1.0);
    }
}
