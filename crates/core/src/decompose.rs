//! Root decomposition of a laminar instance (the shard layer's core).
//!
//! Disjoint root windows of the laminar forest are fully independent
//! subproblems: no job window spans two trees, the strengthened LP is
//! block-diagonal across trees, the Lemma 3.1 push-down and Algorithm 1
//! rounding act tree-locally, and extraction never routes a job into
//! another tree's slots. So an instance can be split at the forest
//! roots, each piece solved on its own, and the results reassembled —
//! opening exactly the slots the monolithic solve would.
//!
//! Two pieces of bookkeeping make the split exact and cache-friendly:
//!
//! * **Offset normalization** — each shard instance is shifted so its
//!   root window starts at 0. Identical subtree shapes occurring at
//!   different absolute times therefore produce *identical* shard
//!   instances, which is what lets the engine's content-keyed solve
//!   cache hit across shards. The shift is undone on merge.
//! * **Order preservation** — shard jobs keep their original relative
//!   order, so per-shard results translate back by a simple index map
//!   and the merged schedule is deterministic.
//!
//! The one configuration that does *not* decompose is
//! `RoundingChoice::Shuffled`: its tie-break RNG advances globally
//! across the whole forest, so per-tree solves would consume different
//! random streams than the monolith. Drivers decline sharding for it.

use crate::instance::{Instance, InstanceError};
use crate::schedule::Schedule;
use crate::solver::{LpAnswer, SolveResult, SolveStats, StageTimings};
use crate::tree::{Forest, TreeNode};
use atsched_num::Ratio;
use std::borrow::Borrow;

/// One independent sub-instance rooted at a single tree of the forest.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The sub-instance, shifted so its root window starts at slot 0.
    pub instance: Instance,
    /// Amount the shard was shifted down by (the root window's start);
    /// added back to every slot on merge.
    pub offset: i64,
    /// Original job ids, indexed by shard-local job id. Preserves the
    /// original relative order.
    pub jobs: Vec<usize>,
}

/// An instance split at its forest roots.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// One shard per root, ordered by root window start.
    pub shards: Vec<Shard>,
}

impl Decomposition {
    /// Number of shards (= number of forest roots).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the instance had no jobs.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// Split `inst` at the roots of its laminar forest.
///
/// Returns one [`Shard`] per root window, ordered by window start; an
/// empty instance yields an empty decomposition. Fails with
/// [`InstanceError::NotLaminar`] when windows cross.
pub fn decompose(inst: &Instance) -> Result<Decomposition, InstanceError> {
    inst.check_laminar()?;

    // Sweep jobs outer-first (r asc, d desc): a job starts a new root
    // group exactly when its release is past the current root's end —
    // within a group laminarity keeps every window inside the first.
    let mut order: Vec<usize> = (0..inst.jobs.len()).collect();
    order.sort_by_key(|&j| (inst.jobs[j].release, -inst.jobs[j].deadline));

    let mut groups: Vec<(i64, Vec<usize>)> = Vec::new(); // (root lo, members)
    let mut cur_hi = i64::MIN;
    for &j in &order {
        let job = &inst.jobs[j];
        if job.release >= cur_hi {
            groups.push((job.release, Vec::new()));
            cur_hi = job.deadline;
        }
        groups.last_mut().expect("group opened above").1.push(j);
    }

    let mut shards = Vec::with_capacity(groups.len());
    for (lo, mut members) in groups {
        // Original relative order, so shard-local ids map back trivially.
        members.sort_unstable();
        let jobs = members.iter().map(|&j| inst.jobs[j]).collect();
        let sub = Instance::new(inst.g, jobs)?.shifted(-lo);
        shards.push(Shard { instance: sub, offset: lo, jobs: members });
    }
    Ok(Decomposition { shards })
}

/// Reassemble per-shard solve results into one [`SolveResult`] for the
/// original instance.
///
/// Slots are shifted back by each shard's offset (root windows are
/// disjoint and shards are ordered, so concatenation stays sorted),
/// shard-local job ids are mapped through [`Shard::jobs`], the canonical
/// forests are reindexed side by side, and stats/certificate vectors are
/// summed. The exact LP objective is re-summed over big rationals, so
/// the merged value matches the monolithic solve's rendering; the LP
/// answer is the costliest one any shard needed. Stage timings are
/// summed across shards — they measure work done, not wall
/// clock, when shards ran concurrently.
///
/// `parts` must be positionally parallel to `dec.shards`; they may be
/// owned or shared (`&SolveResult`, `Arc<SolveResult>`). The merged
/// schedule is re-verified against `inst`; a failure here is a bug in
/// the decomposition, not in the input.
pub fn merge<P: Borrow<SolveResult>>(
    inst: &Instance,
    dec: &Decomposition,
    parts: &[P],
) -> SolveResult {
    assert_eq!(parts.len(), dec.shards.len(), "one result per shard");

    // Exact capacities: a session keeps the merged result for its
    // lifetime, so growth slack would stay allocated with it.
    let total = |len: fn(&SolveResult) -> usize| parts.iter().map(|p| len(p.borrow())).sum();
    let mut slots: Vec<i64> = Vec::with_capacity(total(|p| p.schedule.slots.len()));
    let mut assignment: Vec<Vec<usize>> =
        Vec::with_capacity(total(|p| p.schedule.assignment.len()));
    let mut z: Vec<i64> = Vec::with_capacity(total(|p| p.z.len()));
    let mut nodes: Vec<TreeNode> = Vec::with_capacity(total(|p| p.forest.nodes.len()));
    let mut roots: Vec<usize> = Vec::with_capacity(total(|p| p.forest.roots.len()));
    let mut job_node = vec![usize::MAX; inst.num_jobs()];

    let mut stats = SolveStats {
        nodes_original: 0,
        nodes_canonical: 0,
        lp_objective: 0.0,
        lp_objective_exact: None,
        transform_moves: 0,
        rounded_up: 0,
        opened_slots: 0,
        active_slots: 0,
        repair_opened: 0,
        polish_closed: 0,
        opened_over_lp: 1.0,
        lp_answer: LpAnswer::Tree,
        timings: StageTimings::default(),
    };
    let mut exact_sum: Option<Ratio> = Some(Ratio::zero());

    for (shard, part) in dec.shards.iter().zip(parts) {
        let part = part.borrow();
        let off = shard.offset;
        slots.extend(part.schedule.slots.iter().map(|&t| t + off));
        assignment.extend(
            part.schedule
                .assignment
                .iter()
                .map(|jobs| jobs.iter().map(|&k| shard.jobs[k]).collect::<Vec<usize>>()),
        );
        z.extend(part.z.iter().copied());

        // Reindex the shard's canonical forest next to the ones already
        // merged: node ids get a base offset, intervals and own slots
        // shift back to absolute time, job lists map to original ids.
        let base = nodes.len();
        for node in &part.forest.nodes {
            nodes.push(TreeNode {
                interval: (node.interval.0 + off, node.interval.1 + off),
                parent: node.parent.map(|p| p + base),
                children: node.children.iter().map(|&c| c + base).collect(),
                jobs: node.jobs.iter().map(|&k| shard.jobs[k]).collect(),
                own_slots: node.own_slots.iter().map(|&t| t + off).collect(),
                is_virtual: node.is_virtual,
                depth: node.depth,
            });
        }
        roots.extend(part.forest.roots.iter().map(|&r| r + base));
        for (k, &orig) in shard.jobs.iter().enumerate() {
            job_node[orig] = part.forest.job_node[k] + base;
        }

        let s = &part.stats;
        stats.nodes_original += s.nodes_original;
        stats.nodes_canonical += s.nodes_canonical;
        stats.lp_objective += s.lp_objective;
        stats.transform_moves += s.transform_moves;
        stats.rounded_up += s.rounded_up;
        stats.opened_slots += s.opened_slots;
        stats.active_slots += s.active_slots;
        stats.repair_opened += s.repair_opened;
        stats.polish_closed += s.polish_closed;
        stats.timings.canonicalize += s.timings.canonicalize;
        stats.lp_answer = stats.lp_answer.max(s.lp_answer);
        stats.timings.lp += s.timings.lp;
        stats.timings.lp_declined += s.timings.lp_declined;
        stats.timings.transform += s.timings.transform;
        stats.timings.round += s.timings.round;
        stats.timings.extract += s.timings.extract;
        stats.timings.verify += s.timings.verify;
        exact_sum = match (exact_sum, &s.lp_objective_exact) {
            (Some(mut acc), Some(txt)) => txt.parse::<Ratio>().ok().map(|r| {
                acc += &r;
                acc
            }),
            _ => None,
        };
    }

    stats.lp_objective_exact = exact_sum.map(|r| r.to_string());
    stats.opened_over_lp =
        if stats.lp_objective > 0.0 { stats.opened_slots as f64 / stats.lp_objective } else { 1.0 };

    let schedule = Schedule::new(slots, assignment);
    schedule.verify(inst).expect("merged shard schedule must verify; this is a bug");
    let forest = Forest { nodes, roots, job_node };
    // The solver's forest is the *canonical* one, whose invariant is
    // deliberately looser than `Forest::validate` (a virtual hull may
    // contain parent-owned slots) — so check the canonical contract.
    debug_assert!(
        crate::canonical::validate_canonical(&forest, inst).is_ok(),
        "merged forest not canonical: {:?}",
        crate::canonical::validate_canonical(&forest, inst)
    );
    SolveResult { schedule, stats, z, forest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Job;
    use crate::solver::{solve_nested, SolverOptions};

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    #[test]
    fn empty_instance_decomposes_to_nothing() {
        let dec = decompose(&inst(2, vec![])).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn single_root_is_one_shard() {
        let i = inst(2, vec![(3, 11, 2), (4, 7, 1)]);
        let dec = decompose(&i).unwrap();
        assert_eq!(dec.len(), 1);
        let shard = &dec.shards[0];
        // Normalized to start at 0.
        assert_eq!(shard.offset, 3);
        assert_eq!(shard.instance.horizon(), Some((0, 8)));
        assert_eq!(shard.jobs, vec![0, 1]);
    }

    #[test]
    fn roots_split_and_keep_original_job_order() {
        // Jobs deliberately interleave the two roots.
        let i = inst(2, vec![(10, 14, 2), (0, 5, 1), (11, 13, 1), (1, 4, 1)]);
        let dec = decompose(&i).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec.shards[0].offset, 0);
        assert_eq!(dec.shards[0].jobs, vec![1, 3]);
        assert_eq!(dec.shards[1].offset, 10);
        assert_eq!(dec.shards[1].jobs, vec![0, 2]);
        // Second shard normalized: windows (0,4) and (1,3).
        assert_eq!(dec.shards[1].instance.jobs[0], Job::new(0, 4, 2));
        assert_eq!(dec.shards[1].instance.jobs[1], Job::new(1, 3, 1));
    }

    #[test]
    fn identical_subtrees_normalize_to_identical_shards() {
        let i = inst(2, vec![(0, 4, 2), (1, 3, 1), (20, 24, 2), (21, 23, 1)]);
        let dec = decompose(&i).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec.shards[0].instance, dec.shards[1].instance);
    }

    #[test]
    fn touching_windows_are_separate_roots() {
        // [0,4) and [4,8) share an endpoint but are disjoint.
        let i = inst(1, vec![(0, 4, 1), (4, 8, 1)]);
        let dec = decompose(&i).unwrap();
        assert_eq!(dec.len(), 2);
    }

    #[test]
    fn non_laminar_is_rejected() {
        let i = inst(1, vec![(0, 5, 1), (3, 8, 1)]);
        assert!(matches!(decompose(&i), Err(InstanceError::NotLaminar(_, _))));
    }

    #[test]
    fn merge_reassembles_the_monolithic_result() {
        let cases = vec![
            inst(2, vec![(0, 3, 2), (5, 9, 1), (5, 9, 1), (12, 14, 2)]),
            inst(2, vec![(10, 14, 2), (0, 5, 1), (11, 13, 1), (1, 4, 1)]),
            inst(3, vec![(0, 2, 1), (0, 2, 1), (4, 6, 1), (8, 12, 3), (9, 11, 1)]),
        ];
        let opts = SolverOptions::exact();
        for i in cases {
            let whole = solve_nested(&i, &opts).unwrap();
            let dec = decompose(&i).unwrap();
            assert!(dec.len() >= 2, "case must be multi-root");
            let parts: Vec<SolveResult> =
                dec.shards.iter().map(|s| solve_nested(&s.instance, &opts).unwrap()).collect();
            let merged = merge(&i, &dec, &parts);

            merged.schedule.verify(&i).unwrap();
            assert_eq!(merged.stats.opened_slots, whole.stats.opened_slots);
            assert_eq!(merged.stats.active_slots, whole.stats.active_slots);
            assert_eq!(merged.z.iter().sum::<i64>(), whole.z.iter().sum::<i64>());
            assert_eq!(merged.stats.lp_objective_exact, whole.stats.lp_objective_exact);
            assert!((merged.stats.lp_objective - whole.stats.lp_objective).abs() < 1e-9);
            crate::canonical::validate_canonical(&merged.forest, &i).unwrap();
        }
    }

    #[test]
    fn merge_preserves_certificate_consistency() {
        // The merged (z, forest) pair must satisfy the Lemma 4.1
        // characterization exactly as the per-shard pairs did.
        let i = inst(2, vec![(0, 4, 2), (1, 3, 1), (8, 12, 2), (9, 11, 1)]);
        let opts = SolverOptions::exact();
        let dec = decompose(&i).unwrap();
        let parts: Vec<SolveResult> =
            dec.shards.iter().map(|s| solve_nested(&s.instance, &opts).unwrap()).collect();
        let merged = merge(&i, &dec, &parts);
        crate::certify::check_lemma_4_1(&merged.forest, &i, &merged.z, 16).unwrap();
    }

    #[test]
    fn merge_allocates_no_growth_slack() {
        // Five roots, so pushing part by part into empty vectors would
        // have left spare capacity behind.
        let i = inst(
            2,
            (0..5).flat_map(|r| [(10 * r, 10 * r + 6, 2), (10 * r + 1, 10 * r + 4, 1)]).collect(),
        );
        let opts = SolverOptions::exact();
        let dec = decompose(&i).unwrap();
        let parts: Vec<SolveResult> =
            dec.shards.iter().map(|s| solve_nested(&s.instance, &opts).unwrap()).collect();
        let merged = merge(&i, &dec, &parts);
        let slots = &merged.schedule.slots;
        let assignment = &merged.schedule.assignment;
        assert_eq!(slots.capacity(), slots.len());
        assert_eq!(assignment.capacity(), assignment.len());
        assert_eq!(merged.z.capacity(), merged.z.len());
        assert_eq!(merged.forest.nodes.capacity(), merged.forest.nodes.len());
        assert_eq!(merged.forest.roots.capacity(), merged.forest.roots.len());
    }

    #[test]
    fn infeasible_shard_surfaces_on_its_own() {
        // Root [0,2) is infeasible for g=1 with 3 unit jobs; root [5,9)
        // is fine. Decomposition isolates the infeasibility.
        let i = inst(1, vec![(0, 2, 1), (0, 2, 1), (0, 2, 1), (5, 9, 2)]);
        let dec = decompose(&i).unwrap();
        assert_eq!(dec.len(), 2);
        let first = solve_nested(&dec.shards[0].instance, &SolverOptions::exact());
        assert!(matches!(first, Err(crate::solver::SolveError::Infeasible)));
        let second = solve_nested(&dec.shards[1].instance, &SolverOptions::exact());
        assert!(second.is_ok());
    }
}
