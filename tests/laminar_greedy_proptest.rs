//! Oracle tests for the laminar greedy (`core::feasibility`), with
//! Dinic's max-flow as the oracle.
//!
//! The greedy replaced two max-flow calls on the laminar path: schedule
//! extraction ([`Laminar::assign`] against
//! [`extract_assignment`]) and the tree path's certification of a
//! pinned `x` ([`GroupTree::certify`] against the `g`-scaled Lemma 4.1
//! network it replaced, rebuilt here). Both must decide every case the
//! way the flow does, and what they return must be valid on its own: a
//! schedule that passes [`Schedule::verify`], a `y` that passes
//! [`FractionalSolution::check`].

use nested_active_time::core::canonical::canonicalize;
use nested_active_time::core::decompose::decompose;
use nested_active_time::core::feasibility::{extract_assignment, GroupTree, Laminar};
use nested_active_time::core::instance::{Instance, Job};
use nested_active_time::core::lp_model::{group_jobs, FractionalSolution, JobGroup};
use nested_active_time::core::opt23;
use nested_active_time::core::schedule::Schedule;
use nested_active_time::core::solver::{solve_nested, SolverOptions};
use nested_active_time::core::tree::Forest;
use nested_active_time::core::treelp::{TreeDecline, TreeDp, TreeOutcome};
use nested_active_time::flow::FlowNetwork;
use nested_active_time::num::Ratio;
use nested_active_time::obs;
use nested_active_time::workloads::generators::{
    random_laminar, random_multi_root, LaminarConfig, MultiRootConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The parallelisms under test: both ends of the spare-capacity levels.
const GS: [i64; 5] = [1, 2, 3, 4, 8];

fn any_g() -> impl Strategy<Value = i64> {
    (0usize..GS.len()).prop_map(|k| GS[k])
}

/// A random subset of `[-1, horizon]`, each slot kept with probability
/// `keep` percent. The two end slots lie outside every window.
fn open_slots(horizon: i64, keep: u32, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (-1..=horizon).filter(|_| rng.gen_range(0..100u32) < keep).collect()
}

/// Greedy and Dinic agree on whether `slots` schedule `inst`; a greedy
/// schedule verifies, and the feasibility check alone agrees too.
fn assert_assign_matches_dinic(inst: &Instance, slots: &[i64]) -> Result<(), TestCaseError> {
    let laminar = Laminar::of(inst);
    let greedy = laminar.assign(inst.g, slots);
    let dinic = extract_assignment(inst, slots);
    prop_assert_eq!(greedy.is_some(), dinic.is_some(), "slots {:?}", slots);
    prop_assert_eq!(laminar.feasible(inst.g, slots), dinic.is_some());
    if let Some(assignment) = greedy {
        let schedule = Schedule::new(slots.to_vec(), assignment);
        prop_assert!(schedule.verify(inst).is_ok(), "{:?}", schedule.verify(inst));
    }
    Ok(())
}

/// The certification the greedy replaced: one tree's job groups on the
/// `g`-scaled Lemma 4.1 network, source → group `q·p·g`, group → node
/// `q·g·x`, node → sink `g·g·x`, with `y` read off the flow.
fn dinic_certify(
    forest: &Forest,
    groups: &[JobGroup],
    tree: &GroupTree,
    g: i64,
    x: &[Ratio],
) -> Result<Vec<Vec<(usize, Ratio)>>, TreeDecline> {
    let nodes = tree.nodes();
    let mut local = vec![usize::MAX; forest.num_nodes()];
    for (k, &i) in nodes.iter().enumerate() {
        local[i] = k;
    }
    let mut xs = Vec::new();
    for &i in nodes {
        let scaled = &x[i] * &Ratio::from_i64(g);
        if !scaled.is_integer() {
            return Err(TreeDecline::NonIntegralScale { node: i });
        }
        xs.push(scaled.floor().to_i64().ok_or(TreeDecline::Overflow)?);
    }
    let ids: Vec<usize> =
        (0..groups.len()).filter(|&gid| local[groups[gid].node] != usize::MAX).collect();
    let mut net = FlowNetwork::new(2 + ids.len() + nodes.len());
    let node_at = |k: usize| 2 + ids.len() + k;
    let mut total = 0i64;
    let mut edges = Vec::new();
    for (slot, &gid) in ids.iter().enumerate() {
        let grp = &groups[gid];
        let need = grp
            .count()
            .checked_mul(grp.processing)
            .and_then(|v| v.checked_mul(g))
            .ok_or(TreeDecline::Overflow)?;
        total = total.checked_add(need).ok_or(TreeDecline::Overflow)?;
        net.add_edge(0, 2 + slot, need);
        for i in forest.descendants(grp.node) {
            if forest.nodes[i].is_empty() {
                continue;
            }
            let k = local[i];
            let cap = grp.count().checked_mul(xs[k]).ok_or(TreeDecline::Overflow)?;
            edges.push((k, gid, net.add_edge(2 + slot, node_at(k), cap)));
        }
    }
    for (k, &i) in nodes.iter().enumerate() {
        if !forest.nodes[i].is_empty() {
            net.add_edge(node_at(k), 1, g.checked_mul(xs[k]).ok_or(TreeDecline::Overflow)?);
        }
    }
    if net.max_flow(0, 1) != total {
        return Err(TreeDecline::FlowInfeasible);
    }
    let mut y = vec![Vec::new(); nodes.len()];
    for (k, gid, e) in edges {
        y[k].push((gid, Ratio::from_frac(net.flow_on(e), g)));
    }
    Ok(y)
}

/// One random laminar tree, canonicalized, with its demand DP.
struct Tree {
    inst: Instance,
    canon: Forest,
    groups: Vec<JobGroup>,
    dp: TreeDp,
}

fn tree(g: i64, horizon: i64, seed: u64) -> Tree {
    let inst = random_laminar(&LaminarConfig { g, horizon, ..Default::default() }, seed);
    let canon = canonicalize(&Forest::build(&inst).unwrap(), &inst);
    let bounds = opt23::compute(&canon, &inst);
    let dp = TreeDp::new(&canon, &inst, &bounds, true, 3);
    let groups = group_jobs(&canon, &inst);
    Tree { inst, canon, groups, dp }
}

/// Greedy and Dinic certify `x` alike; a certified `y` meets the LP's
/// constraints (2), (3) and (5) exactly.
fn assert_certify_matches_dinic(t: &Tree, x: &[Ratio]) -> Result<(), TestCaseError> {
    let trees = GroupTree::forest(&t.canon, &t.groups);
    prop_assert_eq!(trees.len(), 1, "random_laminar draws one tree");
    let greedy = trees[0].certify(&t.canon, &t.groups, t.inst.g, x);
    let dinic = dinic_certify(&t.canon, &t.groups, &trees[0], t.inst.g, x);
    match (greedy, dinic) {
        (Ok(harvested), Ok(_)) => {
            let mut y = vec![Vec::new(); t.canon.num_nodes()];
            for (&i, yi) in trees[0].nodes().iter().zip(harvested) {
                y[i] = yi;
            }
            let objective = x.iter().sum();
            let sol = FractionalSolution { x: x.to_vec(), y, objective };
            let checked = sol.check(&t.canon, &t.inst, &t.groups);
            prop_assert!(checked.is_ok(), "{:?} for x = {:?}", checked, x);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => {
            prop_assert!(false, "greedy {:?} vs dinic {:?} on x = {:?}", a.err(), b.err(), x)
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random laminar trees against random open-slot sets.
    #[test]
    fn prop_assign_matches_dinic_on_random_slot_sets(
        g in any_g(),
        horizon in 4i64..=24,
        keep in 20u32..=100,
        seed in any::<u64>(),
    ) {
        let inst = random_laminar(&LaminarConfig { g, horizon, ..Default::default() }, seed);
        assert_assign_matches_dinic(&inst, &open_slots(horizon, keep, seed))?;
    }

    /// Tie-heavy windows: many short jobs per window, so slots share
    /// spare levels and the greedy's choices tie at every step.
    #[test]
    fn prop_assign_matches_dinic_on_tie_heavy_windows(
        g in any_g(),
        horizon in 3i64..=12,
        keep in 30u32..=100,
        seed in any::<u64>(),
    ) {
        let cfg = LaminarConfig {
            g,
            horizon,
            jobs_per_node: (2, 5),
            max_processing: 2,
            ..Default::default()
        };
        let inst = random_laminar(&cfg, seed);
        assert_assign_matches_dinic(&inst, &open_slots(horizon, keep, seed))?;
    }

    /// Certification at the tree attempt's pin, at that pin moved by
    /// ±1/g at one node, and at random `x` on the 1/g grid (with some
    /// off it, where both must decline `scale` at the same node).
    #[test]
    fn prop_certify_matches_dinic(
        g in any_g(),
        horizon in 4i64..=24,
        seed in any::<u64>(),
    ) {
        let t = tree(g, horizon, seed);
        prop_assume!(!matches!(t.dp.solve(&t.canon, &t.inst), Ok(TreeOutcome::Infeasible)));
        let pinned = t.dp.pinned(&t.canon);
        assert_certify_matches_dinic(&t, &pinned)?;

        let mut rng = StdRng::seed_from_u64(seed);
        let m = t.canon.num_nodes();
        let step = Ratio::from_frac(1, g);
        let node = rng.gen_range(0..m);
        for delta in [&step, &-&step] {
            let mut moved = pinned.clone();
            moved[node] = &moved[node] + delta;
            let len = Ratio::from_i64(t.canon.nodes[node].len());
            if !moved[node].is_negative() && moved[node] <= len {
                assert_certify_matches_dinic(&t, &moved)?;
            }
        }

        let grid = if rng.gen_range(0..5) == 0 { 2 * g } else { g };
        let random: Vec<Ratio> = (0..m)
            .map(|i| {
                let top = grid * t.canon.nodes[i].len();
                Ratio::from_frac(rng.gen_range(0..=top), grid)
            })
            .collect();
        assert_certify_matches_dinic(&t, &random)?;
    }

    /// On 2–3-root forests the whole-forest assignment is the merge of
    /// the per-root ones: roots never share a slot or a run.
    #[test]
    fn prop_forest_assignment_is_the_merge_of_its_roots(
        roots in 2usize..=3,
        g in any_g(),
        horizon in 4i64..=12,
        keep in 40u32..=100,
        seed in any::<u64>(),
    ) {
        let base = LaminarConfig { g, horizon, ..Default::default() };
        let inst = random_multi_root(&MultiRootConfig { base, roots, gap: 1 }, seed);
        let span = inst.jobs.iter().map(|j| j.deadline).max().unwrap();
        let slots = open_slots(span, keep, seed);
        let whole = Laminar::of(&inst).assign(g, &slots);
        let mut merged = vec![Vec::new(); slots.len()];
        let mut every_root = true;
        for shard in decompose(&inst).unwrap().shards {
            let (hi, lo) = (shard.instance.jobs.iter().map(|j| j.deadline).max().unwrap(), 0);
            let at: Vec<usize> = (0..slots.len())
                .filter(|&k| (lo..hi).contains(&(slots[k] - shard.offset)))
                .collect();
            let local: Vec<i64> = at.iter().map(|&k| slots[k] - shard.offset).collect();
            match Laminar::of(&shard.instance).assign(g, &local) {
                Some(part) => {
                    for (&k, jobs) in at.iter().zip(part) {
                        merged[k] = jobs.into_iter().map(|j| shard.jobs[j]).collect();
                    }
                }
                None => every_root = false,
            }
        }
        match whole {
            Some(whole) => {
                prop_assert!(every_root);
                prop_assert_eq!(whole, merged);
            }
            None => prop_assert!(!every_root),
        }
    }
}

/// The solver's default path runs no max-flow: every certification and
/// extraction goes through the greedy, which counts as the flow layer
/// (`flow.max_flow_calls`, `flow.augmenting_paths`) and as
/// `flow.laminar_calls`, but never runs a BFS phase.
#[test]
fn default_path_runs_no_max_flow() {
    let cfg = LaminarConfig { g: 4, horizon: 48, ..Default::default() };
    let mut corpus: Vec<Instance> =
        (10_000..10_060).map(|seed| random_laminar(&cfg, seed)).collect();
    // A demand the tree DP undershoots (4 against an optimum of 5): the
    // tree declines, the simplex answers, and the re-pin certifies.
    let jobs = vec![Job::new(0, 8, 4), Job::new(4, 5, 1), Job::new(4, 5, 1)];
    corpus.push(Instance::new(2, jobs).unwrap());
    let registry = Arc::new(obs::Registry::new());
    obs::with_collector(obs::Collector::new(Arc::clone(&registry)), || {
        for inst in &corpus {
            solve_nested(inst, &SolverOptions::default()).unwrap();
        }
    });
    let snap = registry.snapshot();
    assert_eq!(snap.counter("flow.bfs_phases"), None, "{snap:?}");
    let calls = snap.counter("flow.laminar_calls").unwrap_or(0);
    assert!(calls >= 2 * corpus.len() as u64, "certify and extract per solve: {snap:?}");
    assert_eq!(snap.counter("flow.max_flow_calls"), Some(calls));
    assert!(snap.counter("flow.augmenting_paths").unwrap_or(0) > 0, "{snap:?}");
    // Both LP answers ran: tree-certified pins and re-pinned simplex optima.
    assert!(snap.counter("lp.tree_solved").unwrap_or(0) > 0, "{snap:?}");
    assert!(snap.counter("lp.tree_fallback.flow").unwrap_or(0) > 0, "{snap:?}");
    assert!(snap.counter("lp.repin.pinned").unwrap_or(0) > 0, "{snap:?}");
}
