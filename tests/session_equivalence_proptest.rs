//! Property: incremental sessions are observationally identical to
//! cold solving — for any multi-root laminar base instance and any
//! sequence of deltas (adds, removes, re-windows, including bridge
//! jobs that merge forest roots and removals that split them again),
//! every `Session::amend` outcome is bit-identical to a fresh
//! `Engine::solve_one` of the amended instance: same `z` vector, same
//! schedule, the schedule verifies, and on small instances the
//! Lemma 4.1 support-structure certificate holds.
//!
//! The cold reference engine runs with its cache *off*, so nothing the
//! session reuses (spliced shards, cached parts) can leak into the
//! baseline. Sessions must match it under either exact LP strategy too:
//! the property draws `lp` from {certified, exact}.

use nested_active_time::core::certify::check_lemma_4_1;
use nested_active_time::core::delta::{apply, JobDelta};
use nested_active_time::core::instance::{Instance, Job};
use nested_active_time::core::solver::{LpStrategy, ShardMode, SolverOptions};
use nested_active_time::engine::{Engine, EngineConfig, Outcome};
use proptest::prelude::*;

/// Each root block occupies `[16b, 16b + 8)`; dyadic windows inside a
/// block keep the instance laminar by construction.
const BLOCK: i64 = 16;
const SPAN: i64 = 8;
const LEVELS: u32 = 3;

fn dyadic_job_in_block(blocks: i64) -> impl Strategy<Value = Job> {
    (0..blocks, 0..=LEVELS, any::<u32>(), 1i64..4).prop_map(|(b, level, idx, p)| {
        let width = 1i64 << (LEVELS - level);
        let positions = 1u32 << level;
        let i = (idx % positions) as i64;
        let base = BLOCK * b;
        Job::new(base + i * width, base + (i + 1) * width, p.min(width))
    })
}

/// A job whose window contains blocks `0..=j` whole: adding one merges
/// those roots under a single new root; removing it splits them again.
fn bridge_job(blocks: i64) -> impl Strategy<Value = Job> {
    (1..blocks, 1i64..3).prop_map(|(j, p)| Job::new(0, BLOCK * j + SPAN, p))
}

#[derive(Debug, Clone)]
enum Op {
    Add(Job),
    Remove(usize),
    Modify(usize, Job),
}

fn op(blocks: i64) -> impl Strategy<Value = Op> {
    (0u32..8, dyadic_job_in_block(blocks), bridge_job(blocks), any::<u32>()).prop_map(
        |(sel, dyadic, bridge, raw)| match sel {
            0..=2 => Op::Add(dyadic),
            3 => Op::Add(bridge),
            4 | 5 => Op::Remove(raw as usize),
            _ => Op::Modify(raw as usize, dyadic),
        },
    )
}

/// Lower raw ops onto a delta against `current`, resolving indices
/// modulo the live job count and skipping ops that would reference the
/// same pre-amend job twice (the API rejects duplicates by design).
fn build_delta(current: &Instance, ops: &[Op]) -> Option<JobDelta> {
    let n = current.num_jobs();
    let mut delta = JobDelta::new();
    let mut touched = Vec::new();
    let mut any = false;
    for op in ops {
        match op {
            Op::Add(job) => {
                delta = delta.add(*job);
                any = true;
            }
            Op::Remove(raw) if n > 1 => {
                let id = raw % n;
                if !touched.contains(&id) {
                    touched.push(id);
                    delta = delta.remove(id);
                    any = true;
                }
            }
            Op::Modify(raw, job) if n > 0 => {
                let id = raw % n;
                if !touched.contains(&id) {
                    touched.push(id);
                    delta = delta.modify_window(id, job.release, job.deadline);
                    any = true;
                }
            }
            _ => {}
        }
    }
    any.then_some(delta)
}

fn assert_matches_cold(
    label: &str,
    inst: &Instance,
    session_outcome: &Outcome,
    cold: &Engine,
    opts: &SolverOptions,
) -> Result<(), TestCaseError> {
    let reference = cold.solve_one(inst, opts);
    match (session_outcome, &reference) {
        (Outcome::Solved(s), Outcome::Solved(r)) => {
            prop_assert_eq!(&s.result.z, &r.result.z, "{}: z diverged", label);
            prop_assert_eq!(&s.result.schedule, &r.result.schedule, "{}: schedule diverged", label);
            prop_assert_eq!(
                s.result.stats.active_slots,
                r.result.stats.active_slots,
                "{}: active slots diverged",
                label
            );
            prop_assert!(
                s.result.schedule.verify(inst).is_ok(),
                "{}: schedule fails verification",
                label
            );
            if inst.num_jobs() <= 12 {
                prop_assert!(
                    check_lemma_4_1(&s.result.forest, inst, &s.result.z, 12).is_ok(),
                    "{}: Lemma 4.1 certificate failed",
                    label
                );
            }
        }
        (Outcome::Infeasible, Outcome::Infeasible) => {}
        (Outcome::Failed(s), Outcome::Failed(r)) => {
            prop_assert_eq!(s, r, "{}: failures diverged", label);
        }
        (got, want) => {
            return Err(TestCaseError::Fail(format!(
                "{label}: session said {}, cold solve said {}",
                got.label(),
                want.label()
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn amend_sequences_match_cold_solves(
        blocks in 2i64..4,
        base_jobs in proptest::collection::vec(any::<u32>(), 2..10),
        deltas in proptest::collection::vec(proptest::collection::vec(op(4), 1..4), 1..4),
        shard_force in any::<bool>(),
        exact_lp in any::<bool>(),
    ) {
        // Deterministically place the base jobs using the dyadic grid.
        let jobs: Vec<Job> = base_jobs
            .iter()
            .enumerate()
            .map(|(k, &seed)| {
                let b = (k as i64) % blocks;
                let level = seed % (LEVELS + 1);
                let width = 1i64 << (LEVELS - level);
                let positions = 1u32 << level;
                let i = ((seed / 7) % positions) as i64;
                let base = BLOCK * b;
                Job::new(base + i * width, base + (i + 1) * width, ((seed % 3) as i64 + 1).min(width))
            })
            .collect();
        let Ok(base) = Instance::new(2, jobs) else { return Ok(()) };

        let opts = SolverOptions {
            lp: if exact_lp { LpStrategy::Exact } else { LpStrategy::Certified },
            shard: if shard_force { ShardMode::Force } else { ShardMode::Auto },
            ..SolverOptions::exact()
        };

        let engine = Engine::new(EngineConfig::default());
        let cold = Engine::new(EngineConfig::default().cache(false));

        let session = engine.open_session(base.clone(), &opts);
        assert_matches_cold("open", &base, &session.outcome(), &cold, &opts)?;

        let mut current = base;
        for (step, ops) in deltas.iter().enumerate() {
            let Some(delta) = build_delta(&current, ops) else { continue };
            let expected = match apply(&current, &delta) {
                Ok(next) => next,
                Err(_) => continue, // e.g. removal leaves zero jobs
            };
            let outcome = session.amend(&delta).expect("delta pre-validated");
            prop_assert_eq!(
                &session.instance(),
                &expected,
                "step {}: session instance diverged from apply()",
                step
            );
            assert_matches_cold(&format!("amend {step}"), &expected, &outcome, &cold, &opts)?;
            current = expected;
        }
    }
}
