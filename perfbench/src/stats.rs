//! Order statistics, the process CPU clock, timing samples, and the JSON
//! result line.

use std::fmt::Write as _;

/// The nearest-rank `q` quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// CPU seconds this process has used so far, all threads together.
///
/// A vCPU of a shared host loses time to its neighbours: the host runs
/// another guest (steal) or the guest scheduler runs another task. Wall
/// time counts those gaps and CPU time does not, so a throughput over CPU
/// time follows the program rather than the host's load.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The result line: named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// A timing as `<name>.p50`, `<name>.p99` and `<name>.n`. Callers
    /// collect at least a thousand samples where the workload allows, so
    /// p99 is the highest percentile with ten samples beyond it.
    pub fn put_timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        self.put(&format!("{name}.p50"), quantile(&v, 0.50), unit);
        self.put(&format!("{name}.p99"), quantile(&v, 0.99), unit);
        self.put(&format!("{name}.n"), v.len() as f64, "count");
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                r#"{}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#,
                if i > 0 { ", " } else { "" }
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}
