//! Max-flow feasibility tests and schedule extraction (paper §1 and the
//! network of Lemma 4.1).
//!
//! Two equivalent views are provided:
//!
//! * **Concrete slots** — `source → job (cap p_j) → slot (cap 1) → sink
//!   (cap g)`, one node per open slot. Used for final schedules and for
//!   the baselines, which manipulate explicit slot sets.
//! * **Per-node counts** — `source → job (cap p_j) → tree node (cap z_i)
//!   → sink (cap g·z_i)`, the aggregated network from the paper's proof of
//!   Lemma 4.1. Own slots of a node are interchangeable, so `z_i` open
//!   slots in node `i` behave exactly like any concrete choice of `z_i`
//!   own slots. Used by the rounding pipeline and the exact solver, where
//!   it keeps networks small.

use crate::instance::Instance;
use crate::tree::Forest;
use atsched_flow::{EdgeRef, FlowNetwork};

/// Source and sink of the concrete-slot network.
const SOURCE: usize = 0;
const SINK: usize = 1;

/// The concrete-slot network `source → job (cap p_j) → slot (cap 1) →
/// sink (cap g)`, and every job → slot edge as `(job, slot index, edge)`.
/// Slots must be sorted and distinct.
fn slot_network(inst: &Instance, slots: &[i64]) -> (FlowNetwork, Vec<(usize, usize, EdgeRef)>) {
    debug_assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots must be sorted+distinct");
    let n = inst.num_jobs();
    let job_base = 2usize;
    let slot_base = 2 + n;
    let mut net = FlowNetwork::new(2 + n + slots.len());
    let mut job_slot_edges = Vec::new();
    for (j, job) in inst.jobs.iter().enumerate() {
        net.add_edge(SOURCE, job_base + j, job.processing);
        // Window slots: binary-search the open-slot range.
        let lo = slots.partition_point(|&x| x < job.release);
        let hi = slots.partition_point(|&x| x < job.deadline);
        for k in lo..hi {
            job_slot_edges.push((j, k, net.add_edge(job_base + j, slot_base + k, 1)));
        }
    }
    for k in 0..slots.len() {
        net.add_edge(slot_base + k, SINK, inst.g);
    }
    (net, job_slot_edges)
}

/// Maximum total job volume schedulable when exactly the given slots are
/// open. Slots must be sorted and distinct.
pub fn max_schedulable_volume(inst: &Instance, slots: &[i64]) -> i64 {
    slot_network(inst, slots).0.max_flow(SOURCE, SINK)
}

/// Can all jobs be fully scheduled with exactly the given open slots?
pub fn slots_feasible(inst: &Instance, slots: &[i64]) -> bool {
    max_schedulable_volume(inst, slots) == inst.total_volume()
}

/// Extract a concrete assignment (job ids per open slot) when feasible.
///
/// Returns `None` when the slot set cannot schedule all jobs.
pub fn extract_assignment(inst: &Instance, slots: &[i64]) -> Option<Vec<Vec<usize>>> {
    let (mut net, job_slot_edges) = slot_network(inst, slots);
    if net.max_flow(SOURCE, SINK) != inst.total_volume() {
        return None;
    }
    let mut assignment = vec![Vec::new(); slots.len()];
    for (j, k, e) in job_slot_edges {
        if net.flow_on(e) > 0 {
            assignment[k].push(j);
        }
    }
    Some(assignment)
}

/// Feasibility of per-node open counts `z` (one entry per forest node)
/// via the aggregated network of Lemma 4.1.
///
/// # Panics
/// Panics if `z` has the wrong length or an entry exceeds `L(i)`.
pub fn counts_feasible(forest: &Forest, inst: &Instance, z: &[i64]) -> bool {
    assert_eq!(z.len(), forest.num_nodes());
    for (i, n) in forest.nodes.iter().enumerate() {
        assert!(0 <= z[i] && z[i] <= n.len(), "z[{i}] = {} outside [0, L = {}]", z[i], n.len());
    }
    let n = inst.num_jobs();
    let s = 0usize;
    let t = 1usize;
    let job_base = 2usize;
    let node_base = 2 + n;
    let mut net = FlowNetwork::new(2 + n + forest.num_nodes());
    for (j, job) in inst.jobs.iter().enumerate() {
        net.add_edge(s, job_base + j, job.processing);
        for i in forest.descendants(forest.job_node[j]) {
            if z[i] > 0 {
                net.add_edge(job_base + j, node_base + i, z[i]);
            }
        }
    }
    for (i, &zi) in z.iter().enumerate().take(forest.num_nodes()) {
        if zi > 0 {
            net.add_edge(node_base + i, t, inst.g * zi);
        }
    }
    net.max_flow(s, t) == inst.total_volume()
}

/// Materialize per-node counts into concrete slots (the leftmost `z_i`
/// own slots of each node), sorted.
pub fn counts_to_slots(forest: &Forest, z: &[i64]) -> Vec<i64> {
    assert_eq!(z.len(), forest.num_nodes());
    let mut slots = Vec::new();
    for (i, n) in forest.nodes.iter().enumerate() {
        slots.extend_from_slice(&n.own_slots[..z[i] as usize]);
    }
    slots.sort_unstable();
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Job;

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    #[test]
    fn trivial_feasible() {
        let i = inst(2, vec![(0, 2, 1), (0, 2, 1)]);
        assert!(slots_feasible(&i, &[0]));
        assert!(slots_feasible(&i, &[1]));
        assert!(slots_feasible(&i, &[0, 1]));
    }

    #[test]
    fn capacity_binds() {
        let i = inst(2, vec![(0, 2, 1), (0, 2, 1), (0, 2, 1)]);
        assert!(!slots_feasible(&i, &[0])); // 3 units > g = 2
        assert!(slots_feasible(&i, &[0, 1]));
    }

    #[test]
    fn window_binds() {
        let i = inst(5, vec![(0, 2, 1), (4, 6, 1)]);
        assert!(!slots_feasible(&i, &[0])); // second job's window missed
        assert!(slots_feasible(&i, &[1, 4]));
        assert!(!slots_feasible(&i, &[2, 3])); // both outside windows
    }

    #[test]
    fn preemption_not_duplication() {
        // p = 2 needs two *distinct* slots even with huge g.
        let i = inst(10, vec![(0, 3, 2)]);
        assert!(!slots_feasible(&i, &[1]));
        assert!(slots_feasible(&i, &[0, 2]));
    }

    #[test]
    fn volume_reports_partial() {
        let i = inst(1, vec![(0, 4, 2), (0, 4, 2)]);
        assert_eq!(max_schedulable_volume(&i, &[0, 1]), 2);
        assert_eq!(max_schedulable_volume(&i, &[0, 1, 2, 3]), 4);
    }

    #[test]
    fn extraction_matches_feasibility() {
        let i = inst(2, vec![(0, 4, 2), (1, 3, 1), (1, 3, 1)]);
        let a = extract_assignment(&i, &[1, 2]).unwrap();
        // Validate by hand: every slot ≤ g jobs, no dup within a slot.
        let mut per_job = vec![0i64; 3];
        for (k, lst) in a.iter().enumerate() {
            assert!(lst.len() as i64 <= 2);
            let mut uniq = lst.clone();
            uniq.dedup();
            assert_eq!(uniq.len(), lst.len());
            for &j in lst {
                per_job[j] += 1;
                let _ = k;
            }
        }
        assert_eq!(per_job, vec![2, 1, 1]);
        assert!(extract_assignment(&i, &[1]).is_none());
    }

    #[test]
    fn counts_view_matches_slots_view() {
        let i = inst(2, vec![(0, 6, 2), (1, 4, 2), (1, 4, 1)]);
        let f = Forest::build(&i).unwrap();
        // Nodes: [0,6) root and [1,4) child.
        let root = f.roots[0];
        let child = f.nodes[root].children[0];
        let mut z = vec![0i64; f.num_nodes()];
        z[child] = 2;
        // Two slots inside [1,4): can fit (2+2+1=5 > 2*2=4)? No.
        assert!(!counts_feasible(&f, &i, &z));
        z[root] = 1;
        assert!(counts_feasible(&f, &i, &z));
        let slots = counts_to_slots(&f, &z);
        assert_eq!(slots.len(), 3);
        assert!(slots_feasible(&i, &slots));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn counts_bounds_checked() {
        let i = inst(1, vec![(0, 2, 1)]);
        let f = Forest::build(&i).unwrap();
        let _ = counts_feasible(&f, &i, &[3]);
    }
}
