//! Empirical integrality-gap search.
//!
//! The paper brackets the strengthened tree LP's integrality gap on
//! nested instances between 3/2 (Lemma 5.1-style constructions) and 5/3
//! (the algorithm's analysis — Lemma 3.3's 9/5 uses a 5/3-gap bound on
//! the LP: "the integrality gap of our LP on the nested version is at
//! most 5/3"). This module searches random laminar instances for large
//! `OPT / LP` ratios, reporting the best witnesses found. A witness above
//! 3/2 would localize the true gap inside the open interval; experiment
//! E12 records what the search actually finds.

use atsched_baselines::exact::nested_opt;
use atsched_core::instance::Instance;
use atsched_core::solver::{solve_nested, SolverOptions};
use atsched_workloads::generators::{random_laminar, LaminarConfig};

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Random seeds to try.
    pub seeds: u64,
    /// Machine parallelism values to sweep.
    pub gs: Vec<i64>,
    /// Horizon for generated instances (kept small so exact OPT is fast).
    pub horizon: i64,
    /// How many top candidates to re-verify with exact LP arithmetic.
    pub exact_top: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { seeds: 200, gs: vec![2, 3, 4], horizon: 14, exact_top: 5 }
    }
}

/// A gap witness: an instance together with its LP value and optimum.
#[derive(Debug, Clone)]
pub struct GapWitness {
    /// The instance.
    pub instance: Instance,
    /// Tree-LP optimum (exact for the re-verified top candidates).
    pub lp: f64,
    /// Integral optimum.
    pub opt: i64,
    /// `opt / lp`.
    pub ratio: f64,
}

/// Run the search; returns witnesses sorted by descending ratio (at most
/// `exact_top`, all re-verified with the exact rational LP).
pub fn search_tree_lp_gap(cfg: &SearchConfig) -> Vec<GapWitness> {
    let mut candidates: Vec<GapWitness> = Vec::new();
    for &g in &cfg.gs {
        for seed in 0..cfg.seeds {
            let gen_cfg = LaminarConfig {
                g,
                horizon: cfg.horizon,
                max_depth: 3,
                max_children: 3,
                jobs_per_node: (1, 2),
                max_processing: 3,
                child_percent: 65,
            };
            let inst = random_laminar(&gen_cfg, seed);
            let Ok(sol) = solve_nested(&inst, &SolverOptions::float()) else { continue };
            let lp = sol.stats.lp_objective;
            let Some(opt) = nested_opt(&inst, lp.ceil() as i64) else { continue };
            let opt = opt.active_time() as i64;
            let ratio = opt as f64 / lp.max(1e-9);
            if ratio > 1.0 + 1e-9 {
                candidates.push(GapWitness { instance: inst, lp, opt, ratio });
            }
        }
    }
    candidates.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite ratios"));
    candidates.truncate(cfg.exact_top);
    // Re-verify the survivors with exact rational arithmetic.
    for w in &mut candidates {
        let exact = solve_nested(&w.instance, &SolverOptions::exact())
            .expect("was feasible with the float LP");
        w.lp = exact.stats.lp_objective;
        w.ratio = w.opt as f64 / w.lp.max(1e-9);
    }
    candidates.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite ratios"));
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_finds_known_gap_regime() {
        // A tiny search must (a) terminate, (b) produce only valid
        // witnesses with OPT ≥ LP, (c) never exceed the algorithm's 9/5
        // certificate (the LP gap is provably < 9/5 on any instance the
        // solver handles: ALG ≤ (9/5)·LP and ALG ≥ OPT).
        let cfg = SearchConfig { seeds: 25, gs: vec![2, 3], horizon: 12, exact_top: 3 };
        let out = search_tree_lp_gap(&cfg);
        for w in &out {
            assert!(w.ratio >= 1.0);
            assert!(w.ratio < 1.8 + 1e-6, "gap witness beats the 9/5 analysis?!");
            assert!(w.opt as f64 >= w.lp - 1e-6);
        }
        // Sorted descending.
        for pair in out.windows(2) {
            assert!(pair[0].ratio >= pair[1].ratio);
        }
    }

    #[test]
    fn lemma51_family_beats_random_search_typically() {
        // The crafted family reaches OPT/LP = (g + ⌈g/2⌉)/(g+1); compare
        // with whatever a small random search finds.
        use crate::instances::{lemma51_instance, lemma51_integral_opt};
        let inst = lemma51_instance(4);
        let lp = solve_nested(&inst, &SolverOptions::exact()).unwrap().stats.lp_objective;
        let crafted = lemma51_integral_opt(4) as f64 / lp;
        assert!(crafted > 1.19, "crafted family ratio: {crafted}");
    }
}
