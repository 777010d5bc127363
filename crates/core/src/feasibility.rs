//! Feasibility tests and schedule extraction (paper §1 and the network
//! of Lemma 4.1).
//!
//! **The laminar greedy** answers both questions the solver asks, with
//! no max-flow. Take the jobs innermost window first, and give each one
//! the `p_j` open slots of its window with the most spare capacity. On
//! laminar windows that is exact (DESIGN §15.5): a later job's window
//! either contains the current job's window or misses it, so a feasible
//! completion that disagrees with the greedy can swap slots with a later
//! job until it agrees. The units of one node at one spare level are one
//! run, so nothing is sized by `g` or `p_j`. Two entry points:
//!
//! * [`Laminar::assign`]: open slots of capacity `g`,
//!   each job needs `p_j` distinct ones; returns per-slot job lists. The
//!   solver's extraction and polish loop call it, and the deep-ceiling
//!   oracle of [`opt23`](crate::opt23) calls its feasibility check,
//!   [`Laminar::feasible`].
//! * [`GroupTree::certify`]: node `i` holds `g·x(i)` micro-slots of
//!   capacity `g`, each job needs `p·g` distinct ones; certifies a
//!   fractional `x` and returns an exact LP `y`. The tree path's pin and
//!   re-pin call it.
//!
//! Each greedy call counts as the flow call it replaces: one
//! `flow.max_flow_calls`, one `flow.laminar_calls`, and one
//! `flow.augmenting_paths` per run of units a job takes (a
//! source → job → slot → sink augmentation). `flow.bfs_phases` is
//! Dinic's alone.
//!
//! **Max-flow (Dinic)** stays for callers whose windows need not be
//! laminar (the baselines) and as the greedy's test oracle. Two
//! equivalent views are provided:
//!
//! * **Concrete slots** — `source → job (cap p_j) → slot (cap 1) → sink
//!   (cap g)`, one node per open slot. Used for final schedules and for
//!   the baselines, which manipulate explicit slot sets.
//! * **Per-node counts** — `source → job (cap p_j) → tree node (cap z_i)
//!   → sink (cap g·z_i)`, the aggregated network from the paper's proof of
//!   Lemma 4.1. Own slots of a node are interchangeable, so `z_i` open
//!   slots in node `i` behave exactly like any concrete choice of `z_i`
//!   own slots. Used by the exact solver, where it keeps networks small.

use crate::instance::Instance;
use crate::lp_model::JobGroup;
use crate::tree::Forest;
use crate::treelp::TreeDecline;
use atsched_flow::{EdgeRef, FlowNetwork};
use atsched_num::Ratio;
use atsched_obs as obs;
use std::cmp::Reverse;

/// `count` interchangeable units of bin `bin`, each with `level` spare
/// capacity.
#[derive(Debug, Clone, Copy)]
struct Run {
    level: i64,
    count: i64,
    bin: usize,
}

/// The laminar greedy over bins in preorder: `end[b]` is one past the
/// last bin of `b`'s subtree, and bin `b` holds `units[b]` units of
/// capacity `cap`. `demands` lists `(bin, need)` with bins
/// non-increasing, so each demand comes after every demand inside its
/// bin's subtree. Each demand takes `need` distinct units of its bin's
/// subtree, most spare capacity first, and reports every run it takes
/// from as `take(demand, bin, count)`.
///
/// Returns false when some demand finds fewer than `need` units with
/// room: then no assignment of the demands exists.
fn greedy(
    end: &[usize],
    units: &[i64],
    cap: i64,
    demands: &[(usize, i64)],
    mut take: impl FnMut(usize, usize, i64),
) -> bool {
    // The runs of every finished subtree, each subtree contiguous and
    // after the runs of the subtrees finished before it.
    let mut runs: Vec<Run> = Vec::with_capacity(end.len() + demands.len());
    // Where each bin's runs begin.
    let mut start = vec![0usize; end.len()];
    let mut next = 0;
    let mut paths = 0u64;
    let mut feasible = true;
    'bins: for b in (0..end.len()).rev() {
        start[b] = runs.len();
        if units[b] > 0 {
            runs.push(Run { level: cap, count: units[b], bin: b });
        }
        if demands.get(next).is_none_or(|&(bin, _)| bin != b) {
            continue;
        }
        // The subtree's last bin in preorder is the first one finished.
        let lo = start[end[b] - 1];
        runs[lo..].sort_by_key(|r| Reverse(r.level));
        while let Some(&(_, need)) = demands.get(next).filter(|&&(bin, _)| bin == b) {
            match take_most_spare(&mut runs, lo, need, |bin, count| take(next, bin, count)) {
                Some(taken) => paths += taken,
                None => {
                    feasible = false;
                    break 'bins;
                }
            }
            next += 1;
        }
    }
    debug_assert!(!feasible || next == demands.len(), "demands out of order");
    obs::counter_add("flow.max_flow_calls", 1);
    obs::counter_add("flow.laminar_calls", 1);
    obs::counter_add("flow.augmenting_paths", paths);
    feasible
}

/// Take `need` distinct units from `runs[lo..]` (sorted by level,
/// highest first), most spare capacity first, and restore the order.
/// Returns the number of runs taken from, or `None` when fewer than
/// `need` units have room.
fn take_most_spare(
    runs: &mut Vec<Run>,
    lo: usize,
    need: i64,
    mut take: impl FnMut(usize, i64),
) -> Option<u64> {
    if need == 0 {
        return Some(0);
    }
    // Runs `lo..=k` are taken from: all of each, except `last` of run k.
    let (mut left, mut k) = (need, lo);
    let last = loop {
        let run = runs.get(k).filter(|r| r.level > 0)?;
        let t = left.min(run.count);
        take(run.bin, t);
        left -= t;
        if left == 0 {
            break t;
        }
        k += 1;
    };
    // Every taken unit loses one level of spare capacity. The runs at
    // the boundary level `c` split into untaken ones, which stay at `c`,
    // and taken ones, which drop to `c - 1` and so move behind them.
    let c = runs[k].level;
    let s = lo + runs[lo..k].partition_point(|r| r.level > c);
    let e = k + 1 + runs[k + 1..].partition_point(|r| r.level == c);
    for r in &mut runs[lo..k] {
        r.level -= 1;
    }
    if last < runs[k].count {
        runs[k].count -= last;
        let bin = runs[k].bin;
        runs[s..e].rotate_left(k - s);
        runs.insert(e, Run { level: c - 1, count: last, bin });
    } else {
        runs[k].level -= 1;
        runs[s..e].rotate_left(k + 1 - s);
    }
    Some((k + 1 - lo) as u64)
}

/// A laminar job set laid out for the greedy: its distinct windows in
/// preorder, each job hung on its own window.
///
/// A slot belongs to the innermost window that contains it, so the
/// windows play the forest nodes of Lemma 4.1 and a window's slots its
/// own slots. Built once, it answers any number of open-slot sets.
#[derive(Debug, Clone)]
pub struct Laminar {
    /// Distinct windows, release ascending, then deadline descending:
    /// a preorder of the window forest.
    windows: Vec<(i64, i64)>,
    /// Per window, one past the last window of its subtree.
    end: Vec<usize>,
    /// `(window, p_j)` per job, innermost window first.
    demands: Vec<(usize, i64)>,
    /// The job of each demand (ascending within a window).
    jobs: Vec<usize>,
}

impl Laminar {
    /// Lay out jobs given as `(release, deadline, processing)`.
    ///
    /// # Panics
    /// Panics if two windows cross.
    pub(crate) fn new(jobs: &[(i64, i64, i64)]) -> Self {
        Laminar::lay_out(jobs.iter().copied())
    }

    /// Lay out an instance's jobs (its windows must be laminar).
    pub fn of(inst: &Instance) -> Self {
        Laminar::lay_out(inst.jobs.iter().map(|j| (j.release, j.deadline, j.processing)))
    }

    /// Lay out `(release, deadline, processing)` triples, read twice.
    fn lay_out(jobs: impl Iterator<Item = (i64, i64, i64)> + Clone) -> Self {
        let mut windows: Vec<(i64, i64)> = jobs.clone().map(|(r, d, _)| (r, d)).collect();
        windows.sort_unstable_by_key(|&(r, d)| (r, Reverse(d)));
        windows.dedup();
        let mut end = vec![windows.len(); windows.len()];
        let mut open: Vec<usize> = Vec::new();
        for (w, &(r, d)) in windows.iter().enumerate() {
            while let Some(&top) = open.last().filter(|&&top| windows[top].1 <= r) {
                end[top] = w;
                open.pop();
            }
            if let Some(&top) = open.last() {
                assert!(d <= windows[top].1, "windows {:?} and {:?} cross", windows[top], (r, d));
            }
            open.push(w);
        }
        let mut order: Vec<(usize, usize, i64)> = jobs
            .enumerate()
            .map(|(j, (r, d, p))| {
                let key = (r, Reverse(d));
                let w = windows.binary_search_by_key(&key, |&(r, d)| (r, Reverse(d)));
                (w.expect("every job's window is laid out"), j, p)
            })
            .collect();
        order.sort_unstable_by_key(|&(w, j, _)| (Reverse(w), j));
        let demands = order.iter().map(|&(w, _, p)| (w, p)).collect();
        let jobs = order.iter().map(|&(_, j, _)| j).collect();
        Laminar { windows, end, demands, jobs }
    }

    /// The innermost window of each slot (`None` outside every window)
    /// and the open-slot count of each window. Slots must be sorted.
    fn bins(&self, slots: &[i64]) -> (Vec<Option<usize>>, Vec<i64>) {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots must be sorted+distinct");
        let mut bin_of = Vec::with_capacity(slots.len());
        let mut units = vec![0i64; self.windows.len()];
        // The windows open at the current slot, outermost first.
        let mut open: Vec<usize> = Vec::new();
        let close = |open: &mut Vec<usize>, at: i64| {
            while open.last().is_some_and(|&top| self.windows[top].1 <= at) {
                open.pop();
            }
        };
        let mut next = 0;
        for &t in slots {
            while next < self.windows.len() && self.windows[next].0 <= t {
                close(&mut open, self.windows[next].0);
                open.push(next);
                next += 1;
            }
            close(&mut open, t);
            let bin = open.last().copied();
            if let Some(w) = bin {
                units[w] += 1;
            }
            bin_of.push(bin);
        }
        (bin_of, units)
    }

    /// Can every job run in exactly these open slots (sorted, distinct),
    /// at most `g` jobs per slot?
    pub fn feasible(&self, g: i64, slots: &[i64]) -> bool {
        let (_, units) = self.bins(slots);
        greedy(&self.end, &units, g, &self.demands, |_, _, _| {})
    }

    /// Assign every job to `p_j` distinct open slots of its window, at
    /// most `g` jobs per slot: the job ids of each slot (ascending,
    /// parallel to `slots`), or `None` when the slots cannot schedule
    /// every job. Slots must be sorted and distinct.
    pub fn assign(&self, g: i64, slots: &[i64]) -> Option<Vec<Vec<usize>>> {
        let (bin_of, units) = self.bins(slots);
        // Each window's slots, in order: a counting sort by window.
        let mut first = vec![0usize; self.windows.len() + 1];
        for (w, &u) in units.iter().enumerate() {
            first[w + 1] = first[w] + u as usize;
        }
        let mut next = first.clone();
        let mut by_window = vec![0usize; first[self.windows.len()]];
        for (k, w) in bin_of.iter().enumerate().filter_map(|(k, w)| Some((k, (*w)?))) {
            by_window[next[w]] = k;
            next[w] += 1;
        }
        // McNaughton's wrap-around inside each window: every run a job
        // takes goes on the window's next slots, cyclically. A job takes
        // at most one unit per slot and the window at most `g` per slot,
        // so the wrap never repeats a slot for a job nor overfills one.
        next.copy_from_slice(&first);
        let mut assignment = vec![Vec::new(); slots.len()];
        let feasible = greedy(&self.end, &units, g, &self.demands, |d, w, count| {
            for _ in 0..count {
                assignment[by_window[next[w]]].push(self.jobs[d]);
                next[w] = if next[w] + 1 == first[w + 1] { first[w] } else { next[w] + 1 };
            }
        });
        if !feasible {
            return None;
        }
        for jobs in &mut assignment {
            jobs.sort_unstable();
        }
        Some(assignment)
    }
}

/// One tree of a laminar forest with the job groups on its nodes, laid
/// out for the greedy: one diagonal block of the LP.
#[derive(Debug, Clone)]
pub struct GroupTree {
    /// The tree's nodes in preorder (the order of
    /// [`Forest::descendants`]).
    nodes: Vec<usize>,
    /// Per position, one past the last position of its subtree.
    end: Vec<usize>,
    /// `(group id, position of the group's node)`, ids ascending.
    groups: Vec<(usize, usize)>,
    /// Indices into `groups`, innermost node first.
    innermost: Vec<usize>,
}

impl GroupTree {
    /// One `GroupTree` per root of `forest`, in root order. `groups` are
    /// the forest's job groups ([`crate::lp_model::group_jobs`]).
    pub fn forest(forest: &Forest, groups: &[JobGroup]) -> Vec<GroupTree> {
        let m = forest.num_nodes();
        let (mut position, mut tree_of) = (vec![0usize; m], vec![0usize; m]);
        let mut trees: Vec<GroupTree> = Vec::with_capacity(forest.roots.len());
        for (t, &root) in forest.roots.iter().enumerate() {
            let (mut nodes, mut end) = (Vec::new(), Vec::new());
            // Entries `(node, None)` enter a node, `(_, Some(k))` leave
            // position k once its subtree is laid out.
            let mut stack = vec![(root, None)];
            while let Some((id, leave)) = stack.pop() {
                if let Some(k) = leave {
                    end[k] = nodes.len();
                    continue;
                }
                position[id] = nodes.len();
                tree_of[id] = t;
                stack.push((id, Some(nodes.len())));
                nodes.push(id);
                end.push(0);
                stack.extend(forest.nodes[id].children.iter().map(|&c| (c, None)));
            }
            trees.push(GroupTree { nodes, end, groups: Vec::new(), innermost: Vec::new() });
        }
        for (gid, grp) in groups.iter().enumerate() {
            trees[tree_of[grp.node]].groups.push((gid, position[grp.node]));
        }
        for tree in &mut trees {
            tree.innermost = (0..tree.groups.len()).collect();
            tree.innermost.sort_by_key(|&s| Reverse(tree.groups[s].1));
        }
        trees
    }

    /// The tree's root.
    pub(crate) fn root(&self) -> usize {
        self.nodes[0]
    }

    /// The tree's nodes in preorder.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Certify the tree's block of a fractional `x` (indexed by forest
    /// node): is there a `y` that meets the LP's constraints (2), (3) and
    /// (5) with it? Returns that exact `y` for each node of
    /// [`nodes`](GroupTree::nodes), one `(group id, y)` per group whose
    /// node is an ancestor, ids ascending (empty for nodes that own no
    /// slots), or why `x` does not certify.
    ///
    /// This is the `g`-scaled Lemma 4.1 network seen as slots: node `i`
    /// holds `g·x(i)` micro-slots of capacity `g`, and each job needs
    /// `p·g` distinct ones. Dividing the micro-slots a group takes at a
    /// node by `g` gives its `y`. Declines `NonIntegralScale` when some
    /// `g·x(i)` is not an integer and `Overflow` when a capacity of that
    /// network does not fit `i64`, exactly where the network would.
    pub fn certify(
        &self,
        forest: &Forest,
        groups: &[JobGroup],
        g: i64,
        x: &[Ratio],
    ) -> Result<Vec<Vec<(usize, Ratio)>>, TreeDecline> {
        let scale = Ratio::from_i64(g);
        // g·x(i) as exact integers, aligned with `nodes`.
        let mut micro = Vec::with_capacity(self.nodes.len());
        for &i in &self.nodes {
            let scaled = &x[i] * &scale;
            if !scaled.is_integer() {
                return Err(TreeDecline::NonIntegralScale { node: i });
            }
            micro.push(scaled.floor().to_i64().ok_or(TreeDecline::Overflow)?);
        }
        let owns = |k: usize| !forest.nodes[self.nodes[k]].is_empty();
        // Every capacity of the network, checked as building it would:
        // source → group `q·p·g` (and their sum), group → node `q·g·x`,
        // node → sink `g·g·x`. Each group's micro-slots per node of its
        // subtree get a slot in `flow`, from `offset`.
        let (mut total, mut len) = (0i64, 0usize);
        let mut offset = Vec::with_capacity(self.groups.len());
        for &(gid, at) in &self.groups {
            let q = groups[gid].count();
            let need = q.checked_mul(groups[gid].processing).and_then(|v| v.checked_mul(g));
            total = need.and_then(|v| total.checked_add(v)).ok_or(TreeDecline::Overflow)?;
            for k in (at..self.end[at]).filter(|&k| owns(k)) {
                q.checked_mul(micro[k]).ok_or(TreeDecline::Overflow)?;
            }
            offset.push(len);
            len += self.end[at] - at;
        }
        for k in (0..self.nodes.len()).filter(|&k| owns(k)) {
            g.checked_mul(micro[k]).ok_or(TreeDecline::Overflow)?;
        }

        let units: Vec<i64> =
            (0..self.nodes.len()).map(|k| if owns(k) { micro[k] } else { 0 }).collect();
        // Every job of a group is one demand of p·g micro-slots.
        let mut demands = Vec::new();
        let mut owner = Vec::new();
        for &s in &self.innermost {
            let (gid, at) = self.groups[s];
            let grp = &groups[gid];
            for _ in 0..grp.count() {
                demands.push((at, grp.processing * g));
                owner.push(s);
            }
        }
        let mut flow = vec![0i64; len];
        let feasible = greedy(&self.end, &units, g, &demands, |d, k, count| {
            let s = owner[d];
            flow[offset[s] + k - self.groups[s].1] += count;
        });
        if !feasible {
            return Err(TreeDecline::FlowInfeasible);
        }
        let mut y = vec![Vec::new(); self.nodes.len()];
        for (s, &(gid, at)) in self.groups.iter().enumerate() {
            for k in (at..self.end[at]).filter(|&k| owns(k)) {
                y[k].push((gid, Ratio::from_frac(flow[offset[s] + k - at], g)));
            }
        }
        Ok(y)
    }
}

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
    use crate::schedule::Schedule;

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
    fn greedy_extraction_schedules_exactly_what_the_flow_does() {
        let i = inst(2, vec![(0, 4, 2), (1, 3, 1), (1, 3, 1)]);
        for slots in [&[1, 2][..], &[1], &[0, 3], &[0, 1, 2, 3], &[-1, 1, 2, 7]] {
            let greedy = Laminar::of(&i).assign(i.g, slots);
            assert_eq!(greedy.is_some(), slots_feasible(&i, slots), "{slots:?}");
            assert_eq!(Laminar::of(&i).feasible(i.g, slots), slots_feasible(&i, slots));
            if let Some(a) = greedy {
                Schedule::new(slots.to_vec(), a).verify(&i).unwrap();
            }
        }
        // Slots outside every window stay empty; lists are ascending.
        let a = Laminar::of(&i).assign(i.g, &[-1, 1, 2, 7]).unwrap();
        assert!(a[0].is_empty() && a[3].is_empty());
        assert!(a.iter().all(|jobs| jobs.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn greedy_takes_the_slots_with_the_most_room() {
        // The inner unit job fills slot 2 to g = 1, so the outer p = 2
        // job must take slots 1 and 3, not the full slot: a max-spare
        // choice, where "leftmost first" would fail.
        let i = inst(1, vec![(0, 4, 2), (2, 3, 1)]);
        let greedy = Laminar::of(&i);
        assert_eq!(greedy.assign(1, &[1, 2, 3]).unwrap(), vec![vec![0], vec![1], vec![0]]);
        assert!(greedy.assign(1, &[1, 2]).is_none());
    }

    #[test]
    #[should_panic(expected = "cross")]
    fn crossing_windows_are_refused() {
        let _ = Laminar::new(&[(0, 3, 1), (2, 5, 1)]);
    }

    #[test]
    fn huge_g_is_answered_without_memory_in_g() {
        // g = 2^40: capacities are run levels, never array lengths.
        let g = 1i64 << 40;
        let i = inst(g, vec![(0, 4, 2), (0, 4, 2), (0, 4, 2)]);
        let greedy = Laminar::of(&i);
        assert_eq!(greedy.assign(g, &[0, 1]).unwrap(), vec![vec![0, 1, 2], vec![0, 1, 2]]);
        assert!(greedy.assign(g, &[0]).is_none());

        // Certification counts g·x micro-slots per node and p·g per job.
        let f = Forest::build(&i).unwrap();
        let groups = crate::lp_model::group_jobs(&f, &i);
        let trees = GroupTree::forest(&f, &groups);
        let certify = |x: Ratio| trees[0].certify(&f, &groups, g, &[x]);
        // x = 2: node → sink carries g·g·x, past i64.
        assert_eq!(certify(Ratio::from_i64(2)).unwrap_err(), TreeDecline::Overflow);
        // x = 2^-20: 2^20 micro-slots against 2^41 per job.
        assert_eq!(certify(Ratio::from_frac(1, 1 << 20)).unwrap_err(), TreeDecline::FlowInfeasible);
        assert_eq!(
            certify(Ratio::from_frac(1, 3)).unwrap_err(),
            TreeDecline::NonIntegralScale { node: 0 }
        );

        // The whole solve answers too, through the simplex.
        let r = crate::solver::solve_nested(&i, &crate::solver::SolverOptions::default()).unwrap();
        r.schedule.verify(&i).unwrap();
        assert_eq!(r.stats.active_slots, 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn counts_bounds_checked() {
        let i = inst(1, vec![(0, 2, 1)]);
        let f = Forest::build(&i).unwrap();
        let _ = counts_feasible(&f, &i, &[3]);
    }
}
