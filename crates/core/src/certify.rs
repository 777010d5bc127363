//! Executable version of the paper's *analysis* (§4.2–4.3): node typing,
//! the triples of Algorithm 2, and the counting/structure lemmas.
//!
//! None of this is needed to *run* the 9/5-approximation — feasibility of
//! the rounded solution is established constructively by extraction — but
//! having the analysis executable lets property tests check that the
//! quantities the proof relies on (Lemma 4.7's case split, Lemma 4.9's
//! `n₂ ≥ 2n₁` count, Lemma 4.11's triple structure) actually hold on
//! randomly generated instances, exactly as the paper claims.

use crate::lp_model::FractionalSolution;
use crate::rounding::Rounded;
use crate::tree::Forest;
use atsched_lp::Scalar;

/// Paper §4.2 node types for members of the antichain `I`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeType {
    /// `x(Des(i)) ∈ {1} ∪ [4/3, ∞)`.
    B,
    /// `x(Des(i)) ∈ (1, 4/3)` and `x̃(Des(i)) = 1`.
    C1,
    /// `x(Des(i)) ∈ (1, 4/3)` and `x̃(Des(i)) = 2`.
    C2,
}

/// Classification of every `I`-node.
#[derive(Debug, Clone)]
pub struct Typing {
    /// `(node, type)` per `I`-node, in id order.
    pub types: Vec<(usize, NodeType)>,
}

impl Typing {
    /// Nodes of a given type.
    pub fn of(&self, t: NodeType) -> Vec<usize> {
        self.types.iter().filter(|(_, ty)| *ty == t).map(|(i, _)| *i).collect()
    }
}

/// Classify the `I`-nodes (paper §4.2).
///
/// # Panics
/// Panics if a type-C node's `x̃(Des)` is not 1 or 2 — that would
/// contradict the structure the paper derives from rigidity, so it is a
/// bug, not an input condition.
pub fn classify<S: Scalar>(
    forest: &Forest,
    sol: &FractionalSolution<S>,
    top: &[usize],
    rounded: &Rounded,
) -> Typing {
    let four_thirds_num = S::from_i64(4);
    let three = S::from_i64(3);
    let one = S::one();
    let mut types = Vec::with_capacity(top.len());
    for &i in top {
        let x_des = sol.x_subtree(forest, i);
        // C ⇔ 1 < x(Des) < 4/3  ⇔  x > 1 and 3x < 4.
        let is_c =
            x_des.sub(&one).is_positive() && four_thirds_num.sub(&three.mul(&x_des)).is_positive();
        if !is_c {
            types.push((i, NodeType::B));
            continue;
        }
        let z_des: i64 = forest.descendants(i).iter().map(|&d| rounded.z[d]).sum();
        match z_des {
            1 => types.push((i, NodeType::C1)),
            2 => types.push((i, NodeType::C2)),
            other => panic!("type-C node {i} has x̃(Des) = {other}, expected 1 or 2"),
        }
    }
    Typing { types }
}

/// A triple `(i₁, i₂, i₃)`: one C₁ node charged to two C₂ nodes.
pub type Triple = (usize, usize, usize);

/// Outcome of Algorithm 2.
#[derive(Debug, Clone)]
pub struct Triples {
    /// The constructed triples.
    pub triples: Vec<Triple>,
    /// C₁ nodes that could not be covered (empty when the paper's
    /// counting lemma holds, which the tests assert).
    pub uncovered: Vec<usize>,
}

/// Are `a` and `b` siblings (same parent)?
fn brothers(forest: &Forest, a: usize, b: usize) -> bool {
    forest.nodes[a].parent.is_some() && forest.nodes[a].parent == forest.nodes[b].parent
}

/// Algorithm 2: construct disjoint triples covering every C₁ node, never
/// separating a C₁C₂ brother pair.
///
/// Processing follows the paper: ancestors of `I` with at least three
/// `I`-descendants, bottom-to-top; within a step, a C₁'s C₂ brother (if
/// any, and still unused) is taken first, and otherwise the *nearest*
/// unused C₂ nodes are preferred, avoiding C₂ nodes reserved as brothers
/// of still-uncovered C₁ nodes.
pub fn build_triples<S: Scalar>(
    forest: &Forest,
    sol: &FractionalSolution<S>,
    top: &[usize],
    rounded: &Rounded,
) -> Triples {
    let typing = classify(forest, sol, top, rounded);
    build_triples_from_typing(forest, &typing)
}

/// Triples from a precomputed typing (see [`build_triples`]).
pub fn build_triples_from_typing(forest: &Forest, typing: &Typing) -> Triples {
    let c1: Vec<usize> = typing.of(NodeType::C1);
    let c2: Vec<usize> = typing.of(NodeType::C2);
    let mut covered: Vec<usize> = Vec::new();
    let mut used: Vec<usize> = Vec::new();
    let mut triples: Vec<Triple> = Vec::new();

    // Ancestors of I with ≥ 3 I-descendants, bottom-to-top.
    let i_nodes: Vec<usize> = typing.types.iter().map(|(i, _)| *i).collect();
    let mut hosts: Vec<usize> = (0..forest.num_nodes())
        .filter(|&a| i_nodes.iter().filter(|&&t| forest.is_ancestor(a, t)).count() >= 3)
        .collect();
    hosts.sort_by_key(|&a| std::cmp::Reverse(forest.nodes[a].depth));

    for &host in &hosts {
        loop {
            // Uncovered C1 inside Des(host); take the deepest first.
            let next_c1 = c1
                .iter()
                .filter(|&&n| !covered.contains(&n) && forest.is_ancestor(host, n))
                .max_by_key(|&&n| forest.nodes[n].depth);
            let Some(&i1) = next_c1 else { break };

            let avail: Vec<usize> = c2
                .iter()
                .copied()
                .filter(|&n| !used.contains(&n) && forest.is_ancestor(host, n))
                .collect();

            let mut picks: Vec<usize> = Vec::new();
            // 1. The brother pair must stay together.
            if let Some(&b) = avail.iter().find(|&&m| brothers(forest, i1, m)) {
                picks.push(b);
            }
            // 2. Fill up preferring nearer, unreserved C2s.
            let mut rest: Vec<usize> =
                avail.iter().copied().filter(|m| !picks.contains(m)).collect();
            let reserved_set: Vec<usize> = c1
                .iter()
                .copied()
                .filter(|&n| n != i1 && !covered.contains(&n))
                .filter_map(|n| rest.iter().copied().find(|&m| brothers(forest, n, m)))
                .collect();
            rest.sort_by_key(|&m| {
                let is_reserved = reserved_set.contains(&m);
                let dist = lca_distance(forest, i1, m);
                (is_reserved, dist, m)
            });
            for m in rest {
                if picks.len() >= 2 {
                    break;
                }
                picks.push(m);
            }
            if picks.len() < 2 {
                // The counting lemma failed (should not happen); report.
                return Triples {
                    triples,
                    uncovered: c1.iter().copied().filter(|n| !covered.contains(n)).collect(),
                };
            }
            covered.push(i1);
            used.push(picks[0]);
            used.push(picks[1]);
            triples.push((i1, picks[0], picks[1]));
        }
    }
    Triples { triples, uncovered: c1.iter().copied().filter(|n| !covered.contains(n)).collect() }
}

/// Depth of the lowest common ancestor walk from `a` to `b` (smaller =
/// closer in the tree).
fn lca_distance(forest: &Forest, a: usize, b: usize) -> usize {
    let anc_a = forest.ancestors(a);
    let anc_b = forest.ancestors(b);
    for (steps, x) in anc_a.iter().enumerate() {
        if let Some(pos) = anc_b.iter().position(|y| y == x) {
            return steps + pos;
        }
    }
    usize::MAX // different trees
}

/// Lemma 4.9 check: within every subtree hosting ≥ 3 `I`-nodes,
/// `n₂ ≥ 2·n₁` (except when `n₁ = 0`, where it is trivial).
pub fn check_lemma_4_9(forest: &Forest, typing: &Typing) -> Result<(), String> {
    let c1 = typing.of(NodeType::C1);
    let c2 = typing.of(NodeType::C2);
    let i_nodes: Vec<usize> = typing.types.iter().map(|(i, _)| *i).collect();
    for a in 0..forest.num_nodes() {
        let in_sub = |set: &[usize]| set.iter().filter(|&&n| forest.is_ancestor(a, n)).count();
        if in_sub(&i_nodes) < 3 {
            continue;
        }
        let n1 = in_sub(&c1);
        let n2 = in_sub(&c2);
        if n1 > 0 && n2 < 2 * n1 {
            return Err(format!("subtree of {a}: n1 = {n1}, n2 = {n2} < 2·n1"));
        }
    }
    Ok(())
}

/// Lemma 4.11 check on constructed triples: each triple satisfies
/// (4.11a) `i₂, i₃ ∈ Des⁺(par(i₁))`, or (4.11b) `i₁, i₂` are brothers and
/// `i₃ ∈ Des⁺(par(par(i₁)))`.
///
/// Returns the fraction of triples satisfying the structural condition
/// (the paper's construction achieves 1.0; ours prefers near nodes and is
/// checked in tests to achieve it as well on generated workloads).
pub fn check_lemma_4_11(forest: &Forest, triples: &[Triple]) -> (usize, usize) {
    let mut ok = 0;
    for &(i1, i2, i3) in triples {
        let cond_a = forest.nodes[i1].parent.is_some_and(|p| {
            forest.is_ancestor(p, i2) && forest.is_ancestor(p, i3) && i2 != p && i3 != p
        });
        let cond_b = brothers(forest, i1, i2)
            && forest.nodes[i1]
                .parent
                .and_then(|p| forest.nodes[p].parent)
                .is_some_and(|gp| forest.is_ancestor(gp, i3) && i3 != gp);
        if cond_a || cond_b {
            ok += 1;
        }
    }
    (ok, triples.len())
}

/// Literal Lemma 4.1: an integral `x̃` is feasible **iff** for every job
/// subset `J'`,
///
/// ```text
/// Σ_i min(|J'(Anc(i))|, g) · x̃(i)  ≥  p(J').            (9)
/// ```
///
/// This enumerates all `2^n` subsets, so it is gated behind a job-count
/// limit; it exists to validate the paper's characterization against the
/// max-flow oracle, in both directions (see tests).
/// Returns the first violating subset if any.
pub fn check_lemma_4_1(
    forest: &Forest,
    inst: &crate::instance::Instance,
    z: &[i64],
    max_jobs: usize,
) -> Result<(), Vec<usize>> {
    let n = inst.num_jobs();
    assert!(n <= max_jobs, "Lemma 4.1 enumeration limited to {max_jobs} jobs");
    let m = forest.num_nodes();
    // Precompute Anc(i) membership per job: job j counts at node i iff
    // k(j) ∈ Anc(i), i.e. i ∈ Des(k(j)).
    let mut counts_at: Vec<Vec<usize>> = vec![Vec::new(); m]; // node → jobs
    for j in 0..n {
        for i in forest.descendants(forest.job_node[j]) {
            counts_at[i].push(j);
        }
    }
    for mask in 1u64..(1 << n) {
        let jobs: Vec<usize> = (0..n).filter(|&j| mask >> j & 1 == 1).collect();
        let volume: i64 = jobs.iter().map(|&j| inst.jobs[j].processing).sum();
        let mut capacity = 0i64;
        for i in 0..m {
            if z[i] == 0 {
                continue;
            }
            let in_subset = counts_at[i].iter().filter(|j| mask >> **j & 1 == 1).count() as i64;
            capacity += in_subset.min(inst.g) * z[i];
        }
        if capacity < volume {
            return Err(jobs);
        }
    }
    Ok(())
}

/// Triples must be disjoint and cover all C₁ nodes.
pub fn check_triples_cover(typing: &Typing, t: &Triples) -> Result<(), String> {
    if !t.uncovered.is_empty() {
        return Err(format!("uncovered C1 nodes: {:?}", t.uncovered));
    }
    let mut seen: Vec<usize> = Vec::new();
    for &(a, b, c) in &t.triples {
        for n in [a, b, c] {
            if seen.contains(&n) {
                return Err(format!("node {n} appears in two triples"));
            }
            seen.push(n);
        }
    }
    let c1 = typing.of(NodeType::C1);
    for n in c1 {
        if !t.triples.iter().any(|&(a, _, _)| a == n) {
            return Err(format!("C1 node {n} missing from triples"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-case table: (g, [(release, deadline, processing)]).
    type Cases = Vec<(i64, Vec<(i64, i64, i64)>)>;
    use crate::canonical::canonicalize;
    use crate::instance::{Instance, Job};
    use crate::lp_model::build;
    use crate::opt23;
    use crate::rounding::round;
    use crate::transform::push_down;
    use atsched_num::Ratio;

    fn full_pipeline(
        g: i64,
        jobs: Vec<(i64, i64, i64)>,
    ) -> (Forest, FractionalSolution<Ratio>, Vec<usize>, Rounded) {
        let inst = Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect())
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        let lp = build::<Ratio>(&canon, &inst, &bounds);
        let sol = lp.solve().unwrap();
        let out = push_down(&canon, sol);
        let rounded = round(&canon, &out.solution, &out.top_positive);
        (canon, out.solution, out.top_positive, rounded)
    }

    #[test]
    fn integral_solutions_classify_as_b() {
        let (canon, sol, top, rounded) = full_pipeline(1, vec![(0, 3, 3)]);
        let typing = classify(&canon, &sol, &top, &rounded);
        for (_, t) in &typing.types {
            assert_eq!(*t, NodeType::B);
        }
    }

    #[test]
    fn lemma_4_9_on_assorted_instances() {
        let cases: Cases = vec![
            (2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 20, 1), (1, 4, 2), (5, 8, 2), (9, 12, 2), (13, 16, 2)]),
            (4, vec![(0, 30, 2), (1, 6, 3), (7, 12, 3), (13, 18, 3), (19, 24, 3)]),
        ];
        for (g, jobs) in cases {
            let (canon, sol, top, rounded) = full_pipeline(g, jobs);
            let typing = classify(&canon, &sol, &top, &rounded);
            check_lemma_4_9(&canon, &typing).unwrap();
            let triples = build_triples_from_typing(&canon, &typing);
            check_triples_cover(&typing, &triples).unwrap();
        }
    }

    /// Synthetic typings: the LP rarely leaves C₁ nodes on constructible
    /// instances (every C node's round-up budget at its first ≥2-mass
    /// ancestor is positive — consistent with the paper's Lemma 4.7 case
    /// analysis), so the triple-construction code paths are additionally
    /// driven with hand-assigned types on real forests.
    #[test]
    fn synthetic_triples_wide_forest() {
        // Root with 6 child windows; I = the 6 children.
        let jobs: Vec<(i64, i64, i64)> =
            (0..6).map(|i| (3 * i, 3 * i + 2, 1)).chain(std::iter::once((0, 18, 1))).collect();
        let inst = Instance::new(3, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect())
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let children: Vec<usize> = (0..canon.num_nodes())
            .filter(|&i| {
                !canon.nodes[i].is_virtual
                    && canon.nodes[i].interval.1 - canon.nodes[i].interval.0 == 2
            })
            .collect();
        assert_eq!(children.len(), 6);
        // 2 C1 and 4 C2 nodes, placed so the counting lemma's hypothesis
        // holds in every binarization subtree (left-deep virtual chain):
        // a C1 only after two C2s to its left.
        let pattern =
            [NodeType::C2, NodeType::C2, NodeType::C1, NodeType::C2, NodeType::C2, NodeType::C1];
        let typing =
            Typing { types: children.iter().enumerate().map(|(k, &n)| (n, pattern[k])).collect() };
        check_lemma_4_9(&canon, &typing).unwrap();
        let triples = build_triples_from_typing(&canon, &typing);
        check_triples_cover(&typing, &triples).unwrap();
        assert_eq!(triples.triples.len(), 2);
        let (ok, total) = check_lemma_4_11(&canon, &triples.triples);
        assert_eq!(ok, total);
    }

    #[test]
    fn synthetic_triples_brother_pairs_stay_together() {
        // Root with three pairs of sibling windows: each pair (C1, C2)
        // is a brother pair; the third C2 comes from elsewhere.
        let mut jobs: Vec<(i64, i64, i64)> = Vec::new();
        for b in 0..3i64 {
            jobs.push((5 * b, 5 * b + 2, 1)); // left sibling
            jobs.push((5 * b + 2, 5 * b + 4, 1)); // right sibling
            jobs.push((5 * b, 5 * b + 4, 1)); // their parent window
        }
        jobs.push((0, 15, 1)); // root
        let inst = Instance::new(3, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect())
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        // Identify the sibling windows per block.
        let find = |lo: i64, hi: i64| {
            (0..canon.num_nodes())
                .find(|&i| canon.nodes[i].interval == (lo, hi) && !canon.nodes[i].is_virtual)
                .unwrap()
        };
        let mut types = Vec::new();
        for b in 0..3i64 {
            types.push((find(5 * b, 5 * b + 2), NodeType::C1));
            types.push((find(5 * b + 2, 5 * b + 4), NodeType::C2));
        }
        // Three extra C2s so n2 ≥ 2·n1 (use a second job window trick:
        // reuse parents as C2 carriers is not possible — parents are
        // ancestors of I; instead mark only 1 C1 + its brother C2 + the
        // other two blocks' siblings all C2).
        let typing = Typing {
            types: types
                .into_iter()
                .enumerate()
                .map(|(k, (n, t))| if k == 0 { (n, t) } else { (n, NodeType::C2) })
                .collect(),
        };
        check_lemma_4_9(&canon, &typing).unwrap();
        let triples = build_triples_from_typing(&canon, &typing);
        check_triples_cover(&typing, &triples).unwrap();
        assert_eq!(triples.triples.len(), 1);
        // The C1's brother must be inside its triple (pair not broken).
        let (i1, i2, i3) = triples.triples[0];
        let brother_of_i1 = (0..canon.num_nodes())
            .find(|&n| {
                n != i1
                    && canon.nodes[n].parent == canon.nodes[i1].parent
                    && canon.nodes[i1].parent.is_some()
            })
            .unwrap();
        assert!(i2 == brother_of_i1 || i3 == brother_of_i1);
    }

    #[test]
    fn lemma_4_1_matches_flow_oracle_both_directions() {
        use crate::feasibility::counts_feasible;
        // Enumerate all count vectors z on small instances; Lemma 4.1's
        // condition and max-flow feasibility must agree exactly.
        let shapes: Cases = vec![
            (2, vec![(0, 4, 2), (1, 3, 1)]),
            (1, vec![(0, 3, 1), (0, 3, 1), (1, 2, 1)]),
            (2, vec![(0, 6, 2), (1, 3, 2), (4, 6, 1)]),
            (3, vec![(0, 2, 1); 4]),
        ];
        for (g, jobs) in shapes {
            let inst = Instance::new(g, jobs.iter().map(|&(r, d, p)| Job::new(r, d, p)).collect())
                .unwrap();
            let forest = Forest::build(&inst).unwrap();
            let lens: Vec<i64> = forest.nodes.iter().map(|n| n.len()).collect();
            // Iterate the full z-grid (small by construction).
            let mut z = vec![0i64; lens.len()];
            loop {
                let flow_ok = counts_feasible(&forest, &inst, &z);
                let lemma_ok = check_lemma_4_1(&forest, &inst, &z, 8).is_ok();
                assert_eq!(flow_ok, lemma_ok, "disagreement at z = {z:?} on {jobs:?} (g = {g})");
                // Next grid point.
                let mut idx = 0;
                loop {
                    if idx == z.len() {
                        break;
                    }
                    if z[idx] < lens[idx] {
                        z[idx] += 1;
                        break;
                    }
                    z[idx] = 0;
                    idx += 1;
                }
                if idx == z.len() {
                    break;
                }
            }
        }
    }

    #[test]
    fn lemma_4_1_violating_subset_is_reported() {
        // Infeasible z must come with a concrete witness J'.
        let inst = Instance::new(1, vec![Job::new(0, 2, 1), Job::new(0, 2, 1)]).unwrap();
        let forest = Forest::build(&inst).unwrap();
        let z = vec![1i64]; // one slot for two unit jobs at g = 1
        let witness = check_lemma_4_1(&forest, &inst, &z, 8).unwrap_err();
        assert_eq!(witness, vec![0, 1]);
    }

    #[test]
    fn typing_partitions_i() {
        let (canon, sol, top, rounded) =
            full_pipeline(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        let typing = classify(&canon, &sol, &top, &rounded);
        assert_eq!(typing.types.len(), top.len());
        let total = typing.of(NodeType::B).len()
            + typing.of(NodeType::C1).len()
            + typing.of(NodeType::C2).len();
        assert_eq!(total, top.len());
    }
}
