//! Instance catalog: base OPT instances built from the in-repo data
//! generators at fixed generator seeds, plus the seeded relabelling that
//! turns a base instance into a run's input.
//!
//! On the exact workloads a run's `--seed` permutes the tuples and the
//! attributes of every base instance. The relabelled instance is a
//! different input (row order, column order, fingerprints, tie-break
//! paths all change) but the same problem up to isomorphism, so its
//! proved optimal error is the base instance's, and the committed table
//! in [`crate::optima`] checks the answers of every seed.

use crate::rng::Rng;
use rankhow_core::{OptProblem, Tolerances, WeightConstraints};
use rankhow_data::synthetic::{self, Distribution};
use rankhow_data::{csrankings, nba, rankfns, Dataset};
use rankhow_ranking::GivenRanking;

/// Which generator a base instance comes from.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// Synthetic relation ranked by `Σ A_i³`.
    Synthetic(Distribution),
    /// CSRankings-like institutions ranked by the geometric mean.
    Csr,
    /// NBA-like player seasons ranked by the hidden MP·PER score.
    Nba,
}

/// One base instance.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Stable label (the key of the optimum tables).
    pub name: &'static str,
    /// Generator.
    pub family: Family,
    /// Tuples.
    pub n: usize,
    /// Attributes.
    pub m: usize,
    /// Ranked tuples.
    pub k: usize,
    /// Generator seed.
    pub gen_seed: u64,
}

const fn syn(name: &'static str, d: Distribution, n: usize, k: usize, gen_seed: u64) -> Spec {
    Spec {
        name,
        family: Family::Synthetic(d),
        n,
        m: 4,
        k,
        gen_seed,
    }
}

const fn csr(name: &'static str, n: usize, m: usize, k: usize, gen_seed: u64) -> Spec {
    Spec {
        name,
        family: Family::Csr,
        n,
        m,
        k,
        gen_seed,
    }
}

const fn nba(name: &'static str, n: usize, m: usize, k: usize, gen_seed: u64) -> Spec {
    Spec {
        name,
        family: Family::Nba,
        n,
        m,
        k,
        gen_seed,
    }
}

use Distribution::{AntiCorrelated as Anti, Correlated as Corr, Uniform as Uni};

/// The `opt-exact` catalog: every instance is solved to proved
/// optimality, without limits, once per round. Solves range from 0 to
/// ~17k nodes.
pub const EXACT: &[Spec] = &[
    syn("uni-n300-k5-g51", Uni, 300, 5, 51),
    syn("uni-n300-k5-g100", Uni, 300, 5, 100),
    syn("uni-n300-k5-g102", Uni, 300, 5, 102),
    syn("uni-n300-k5-g103", Uni, 300, 5, 103),
    syn("uni-n400-k6-g52", Uni, 400, 6, 52),
    syn("uni-n400-k6-g200", Uni, 400, 6, 200),
    syn("uni-n400-k6-g201", Uni, 400, 6, 201),
    syn("uni-n400-k6-g203", Uni, 400, 6, 203),
    syn("uni-n400-k6-g204", Uni, 400, 6, 204),
    syn("cor-n300-k5-g61", Corr, 300, 5, 61),
    syn("cor-n400-k6-g302", Corr, 400, 6, 302),
    syn("cor-n400-k6-g304", Corr, 400, 6, 304),
    syn("anti-n60-k3-g71", Anti, 60, 3, 71),
    syn("anti-n60-k3-g403", Anti, 60, 3, 403),
    csr("csr-n300-m5-k5-g500", 300, 5, 5, 500),
    csr("csr-n300-m5-k5-g501", 300, 5, 5, 501),
    csr("csr-n300-m5-k5-g631", 300, 5, 5, 631),
    csr("csr-n250-m5-k6-g600", 250, 5, 6, 600),
    csr("csr-n250-m5-k6-g602", 250, 5, 6, 602),
    nba("nba-n1000-m4-k10-g701", 1000, 4, 10, 701),
    nba("nba-n1000-m4-k10-g704", 1000, 4, 10, 704),
];

const fn big(name: &'static str, n: usize, k: usize, gen_seed: u64) -> Spec {
    Spec {
        name,
        family: Family::Synthetic(Uni),
        n,
        m: 5,
        k,
        gen_seed,
    }
}

/// The `symgd-large` catalog (Fig. 3j–l setup: uniform `Σ A_i³`
/// relations, five attributes), one SYM-GD chain each per round.
pub const SYMGD: &[Spec] = &[
    big("uni-n50k-k10-g52", 50_000, 10, 52),
    big("uni-n50k-k10-g53", 50_000, 10, 53),
    big("uni-n50k-k10-g54", 50_000, 10, 54),
    big("uni-n50k-k10-g56", 50_000, 10, 56),
    big("uni-n75k-k15-g51", 75_000, 15, 51),
    big("uni-n75k-k15-g53", 75_000, 15, 53),
    big("uni-n75k-k15-g55", 75_000, 15, 55),
    big("uni-n100k-k15-g53", 100_000, 15, 53),
    big("uni-n100k-k15-g56", 100_000, 15, 56),
];

/// Base instances of the `explore-open` catalog.
pub const EXPLORE_BASES: usize = 64;

/// Generator seeds of the `explore-open` bases: even positions are
/// uniform synthetic relations (n 200, m 4, k 5), odd positions
/// CSRankings-like ones (n 200, m 5, k 5). They are the first 32 seeds of
/// each family from 3000 upward whose unconstrained solve takes 400–3000
/// nodes (25–175 ms), so every miss costs a real search and the tail
/// percentile sits on solve latencies of one scale, not on a ramp of
/// 0-node instances.
const EXPLORE_SEEDS: [u64; EXPLORE_BASES] = [
    3002, 3019, 3004, 3021, 3006, 3025, 3012, 3027, 3016, 3031, 3028, 3037, 3030, 3039, 3032, 3045,
    3034, 3049, 3036, 3053, 3042, 3057, 3048, 3063, 3052, 3065, 3058, 3067, 3064, 3075, 3070, 3079,
    3074, 3081, 3078, 3085, 3080, 3087, 3082, 3093, 3092, 3107, 3094, 3109, 3102, 3111, 3104, 3115,
    3106, 3119, 3108, 3127, 3110, 3131, 3114, 3137, 3120, 3139, 3126, 3141, 3130, 3145, 3132, 3153,
];

/// The `i`-th `explore-open` base.
pub fn explore_base(i: usize) -> Spec {
    let gen_seed = EXPLORE_SEEDS[i];
    if i.is_multiple_of(2) {
        syn("explore-uni-n200-k5", Uni, 200, 5, gen_seed)
    } else {
        csr("explore-csr-n200-m5-k5", 200, 5, 5, gen_seed)
    }
}

/// The weight-constraint variants of every `explore-open` base: none, a
/// `max_weight` sweep on attribute 0 (nested regions, so the cached
/// unconstrained root contains both), and a `min_weight` on attribute 1.
pub const VARIANTS: [Variant; 4] = [
    &[],
    &[(0, 0.5, true)],
    &[(0, 0.3, true)],
    &[(1, 0.15, false)],
];

/// A base instance's generated inputs, before any [`OptProblem`] is
/// built: the relation, the given ranking and the dataset's tolerances.
pub struct Generated {
    data: Dataset,
    given: GivenRanking,
    tol: Tolerances,
}

/// Run a base instance's generator.
pub fn generate(spec: &Spec) -> Generated {
    match spec.family {
        Family::Synthetic(dist) => {
            let data = synthetic::generate(dist, spec.n, spec.m, spec.gen_seed);
            let given = rankfns::sum_pow_ranking(&data, 3, spec.k);
            Generated {
                data,
                given,
                tol: Tolerances::paper_synthetic(),
            }
        }
        Family::Csr => {
            let gen = csrankings::generate(spec.n, spec.gen_seed);
            let attrs: Vec<usize> = (0..spec.m).collect();
            Generated {
                data: gen.dataset.select_attrs(&attrs).min_max_normalized(),
                given: gen.default_ranking(spec.k),
                tol: Tolerances::paper_csrankings(),
            }
        }
        Family::Nba => {
            let gen = nba::generate(spec.n, spec.gen_seed);
            let attrs: Vec<usize> = (0..spec.m).collect();
            Generated {
                data: gen.dataset.select_attrs(&attrs).min_max_normalized(),
                given: gen.mp_per_ranking(spec.k),
                tol: Tolerances::paper_nba(),
            }
        }
    }
}

/// A seeded relabelling: new tuple `i` is old tuple `rows[i]`, new
/// attribute `j` is old attribute `cols[j]`.
pub struct Relabel {
    rows: Vec<usize>,
    cols: Vec<usize>,
}

impl Relabel {
    /// Draw a relabelling for an `n × m` instance.
    pub fn draw(rng: &mut Rng, n: usize, m: usize) -> Self {
        Relabel {
            rows: rng.permutation(n),
            cols: rng.permutation(m),
        }
    }

    /// The identity relabelling (the base instance itself).
    pub fn identity(n: usize, m: usize) -> Self {
        Relabel {
            rows: (0..n).collect(),
            cols: (0..m).collect(),
        }
    }

    /// Build the relabelled instance (no weight constraints).
    pub fn apply(&self, gen: &Generated) -> OptProblem {
        let data = gen.data.select_rows(&self.rows).select_attrs(&self.cols);
        let positions: Vec<Option<u32>> =
            self.rows.iter().map(|&r| gen.given.position(r)).collect();
        let given = GivenRanking::from_positions(positions).expect("a permutation keeps validity");
        OptProblem::with_tolerances(data, given, gen.tol).expect("a permutation keeps validity")
    }

    /// Map an old attribute index to its relabelled index.
    pub fn attr(&self, old: usize) -> usize {
        self.cols
            .iter()
            .position(|&c| c == old)
            .expect("attribute in range")
    }
}

/// One weight-constraint variant over base attribute indices, as
/// `(attribute, bound, is_upper)` rows.
pub type Variant = &'static [(usize, f64, bool)];

/// Express `variant` over a relabelled instance's attributes.
pub fn constraints(variant: Variant, relabel: &Relabel) -> WeightConstraints {
    variant
        .iter()
        .fold(WeightConstraints::none(), |c, &(a, bound, upper)| {
            if upper {
                c.max_weight(relabel.attr(a), bound)
            } else {
                c.min_weight(relabel.attr(a), bound)
            }
        })
}
