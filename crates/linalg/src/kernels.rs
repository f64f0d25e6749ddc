//! Arithmetic kernels: the f64 inner loops every layer above shares
//! (feature scoring, simplex pivoting, pivot selection).
//!
//! Every kernel has exactly one body.
//!
//! - **Elementwise and selection kernels** ([`axpy`], [`scale`],
//!   [`first_below`], [`argmin_first`]) are plain index-order loops. The
//!   simplex pivot selection runs on them, so the entering column is
//!   always the first index the sequential scan would pick, and node
//!   counts and proved errors do not depend on how a loop is compiled.
//! - **Reductions** ([`min_max`], [`dot`]) carry a value from one
//!   element to the next. A single accumulator serializes the loop on
//!   that dependency, so both fold into four independent accumulators
//!   and combine them at the end. This pays on the SYM-GD workload,
//!   where `min_max` spans every column of a 50k–100k-row relation: on
//!   a 2-core x86-64 container, a one-accumulator build ran the
//!   `symgd-large` benchmark slower in 6 of 8 paired runs (median p50
//!   ≈ 145 → 155 ms).
//!   `min_max` is value-identical to the sequential fold (min and max
//!   are associative on NaN-free data). `dot` reassociates the sum and
//!   may differ from the sequential fold by a few ulps, so callers use
//!   it only behind tolerance margins (the engine's witness checks use
//!   margins ≥ 1e-7).

/// `y[i] += a * x[i]` over the common prefix of `y` and `x`.
///
/// `a = -f` reproduces `y[i] -= f * x[i]` exactly: IEEE 754 negation
/// commutes with multiplication bitwise.
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (yy, &xx) in y.iter_mut().zip(x) {
        *yy += a * xx;
    }
}

/// `y[i] *= a`.
pub fn scale(y: &mut [f64], a: f64) {
    for yy in y.iter_mut() {
        *yy *= a;
    }
}

/// Dot product with four independent accumulators (reassociated — see
/// the module docs; use only behind tolerance margins). Sums over the
/// common prefix of `a` and `b`.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (aa, bb) in (&mut ac).zip(&mut bc) {
        acc[0] += aa[0] * bb[0];
        acc[1] += aa[1] * bb[1];
        acc[2] += aa[2] * bb[2];
        acc[3] += aa[3] * bb[3];
    }
    let mut tail = 0.0;
    for (&aa, &bb) in ac.remainder().iter().zip(bc.remainder()) {
        tail += aa * bb;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Per-slice `(min, max)` in one pass with four accumulators per side
/// (see the module docs). Empty input yields `(inf, −inf)`. The result
/// is value-identical to the sequential fold for NaN-free data (±0.0
/// compare equal either way).
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let mut xc = xs.chunks_exact(4);
    for xx in &mut xc {
        lo[0] = lo[0].min(xx[0]);
        lo[1] = lo[1].min(xx[1]);
        lo[2] = lo[2].min(xx[2]);
        lo[3] = lo[3].min(xx[3]);
        hi[0] = hi[0].max(xx[0]);
        hi[1] = hi[1].max(xx[1]);
        hi[2] = hi[2].max(xx[2]);
        hi[3] = hi[3].max(xx[3]);
    }
    let (mut l, mut h) = (
        lo[0].min(lo[1]).min(lo[2].min(lo[3])),
        hi[0].max(hi[1]).max(hi[2].max(hi[3])),
    );
    for &x in xc.remainder() {
        l = l.min(x);
        h = h.max(x);
    }
    (l, h)
}

/// Index of the first element strictly below `threshold`, or `None`.
/// NaN entries never compare below and are skipped.
pub fn first_below(xs: &[f64], threshold: f64) -> Option<usize> {
    xs.iter().position(|&x| x < threshold)
}

/// First index attaining the minimum value (and that value), or `None`
/// on an empty slice. Ties keep the lowest index (strict `<` scan). NaN
/// entries are skipped (they are never `<` any running best); an
/// all-NaN slice reports `+inf` at index 0, which every caller's
/// threshold check rejects.
pub fn argmin_first(xs: &[f64]) -> Option<(usize, f64)> {
    if xs.is_empty() {
        return None;
    }
    let mut v = f64::INFINITY;
    let mut i = 0;
    for (j, &x) in xs.iter().enumerate() {
        if x < v {
            v = x;
            i = j;
        }
    }
    Some((i, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ref_min_max(xs: &[f64]) -> (f64, f64) {
        xs.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &x| {
                (l.min(x), h.max(x))
            })
    }

    /// Values that force ties and sign edge cases alongside ordinary
    /// magnitudes.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            -100.0f64..100.0,
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            Just(-1.0),
            Just(0.5),
        ]
    }

    /// Ragged lengths 0..17 exercise every tail size around the
    /// four-accumulator chunk (0–3 tails at 1, 2, 3, and 4 chunks).
    fn ragged(max: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(value(), 0..max)
    }

    proptest! {
        /// The identity `Tableau::pivot` relies on: `axpy` with `a = −f`
        /// is bit-identical to the scalar elimination `y −= f·x`.
        #[test]
        fn axpy_is_bit_identical_to_scalar(mut y in ragged(17), f in value()) {
            let x: Vec<f64> = y.iter().map(|v| v * 0.37 - 1.0).collect();
            let expect: Vec<f64> = y.iter().zip(&x).map(|(&yy, &xx)| yy - f * xx).collect();
            axpy(&mut y, -f, &x);
            for (got, want) in y.iter().zip(&expect) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        /// Against an oracle built differently: the minimum over the
        /// non-NaN entries first, then the first index holding it.
        #[test]
        fn argmin_first_matches_sequential_scan(xs in ragged(17)) {
            let want = if xs.is_empty() {
                None
            } else {
                let v = xs.iter().copied().filter(|x| !x.is_nan()).fold(f64::INFINITY, f64::min);
                Some((xs.iter().position(|&x| x == v).unwrap_or(0), v))
            };
            match (argmin_first(&xs), want) {
                (None, None) => {}
                (Some((gi, gv)), Some((wi, wv))) => {
                    prop_assert_eq!(gi, wi, "index diverged on {:?}", xs);
                    prop_assert_eq!(gv, wv);
                }
                other => prop_assert!(false, "mismatch {:?}", other),
            }
        }

        #[test]
        fn min_max_matches_sequential_fold(xs in ragged(17)) {
            let (l, h) = min_max(&xs);
            let (rl, rh) = ref_min_max(&xs);
            // Value equality (±0.0 may differ in sign between folds).
            prop_assert_eq!(l, rl);
            prop_assert_eq!(h, rh);
        }

        #[test]
        fn dot_is_within_reduction_tolerance(a in ragged(17)) {
            let b: Vec<f64> = a.iter().map(|v| 1.0 - v * 0.21).collect();
            let got = dot(&a, &b);
            let want: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            // Four-accumulator reassociation: a few ulps of |terms|.
            let scale: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y).abs()).sum();
            prop_assert!((got - want).abs() <= 1e-12 * scale.max(1.0),
                "dot {} vs sequential {}", got, want);
        }
    }

    #[test]
    fn ties_resolve_to_the_first_index() {
        // Equal minima: the earliest index wins, wherever the tie sits.
        let xs = [5.0, 4.0, 3.0, 1.0, 1.0, 2.0];
        assert_eq!(argmin_first(&xs), Some((3, 1.0)));
        let xs = [2.0, 1.0, 1.0, 1.0];
        assert_eq!(argmin_first(&xs), Some((1, 1.0)));
    }

    #[test]
    fn nan_entries_are_skipped_like_the_sequential_scan() {
        let xs = [f64::NAN, 2.0, f64::NAN, 1.0, 7.0];
        assert_eq!(argmin_first(&xs), Some((3, 1.0)));
        assert_eq!(first_below(&xs, 1.5), Some(3));
        let all_nan = [f64::NAN; 5];
        let (i, v) = argmin_first(&all_nan).unwrap();
        assert_eq!(i, 0);
        assert!(v.is_infinite() && v > 0.0, "all-NaN reports +inf");
        assert_eq!(first_below(&all_nan, 0.0), None);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(argmin_first(&[]), None);
        assert_eq!(first_below(&[], 0.0), None);
        let (l, h) = min_max(&[]);
        assert!(l.is_infinite() && l > 0.0 && h.is_infinite() && h < 0.0);
        let mut y: [f64; 0] = [];
        axpy(&mut y, 2.0, &[]);
        scale(&mut y, 2.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
