//! Metric collection and the result line.

use rankhow_obs::json::{escape, fmt_f64, Obj};

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Add one metric; a non-finite value (an empty ratio) reads 0.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    /// One human-readable line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
    }

    /// The final result line: `correct`, `attempted`, `failed` and every
    /// metric as `{"value", "unit"}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut metrics = Obj::new();
        for (name, value, unit) in &self.0 {
            let mut m = Obj::new();
            m.field_raw("value", &fmt_f64(*value));
            m.field_raw("unit", &format!("\"{}\"", escape(unit)));
            metrics.field_raw(name, &m.finish());
        }
        let mut o = Obj::new();
        o.field_bool("correct", correct);
        o.field_u64("attempted", attempted);
        o.field_u64("failed", failed);
        o.field_raw("metrics", &metrics.finish());
        o.finish()
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
