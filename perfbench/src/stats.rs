//! Order statistics over a run's samples.

/// The `q`-quantile (`0..=1`) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The mean of the samples of each group, in group order: `groups[i]`
/// names the group of `xs[i]`.
pub fn group_means(xs: &[f64], groups: &[usize]) -> Vec<f64> {
    let n = groups.iter().max().map_or(0, |&g| g + 1);
    let mut sum = vec![0.0; n];
    let mut count = vec![0usize; n];
    for (&x, &g) in xs.iter().zip(groups) {
        sum[g] += x;
        count[g] += 1;
    }
    sum.iter()
        .zip(&count)
        .filter(|&(_, &c)| c > 0)
        .map(|(s, &c)| s / c as f64)
        .collect()
}
