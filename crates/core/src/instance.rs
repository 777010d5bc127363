//! Problem instances: jobs with windows, and the machine parallelism `g`.

use std::fmt;

/// One job: processing time `p` must fit inside the window `[r, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Job {
    /// Release time (window start, inclusive).
    pub release: i64,
    /// Deadline (window end, exclusive).
    pub deadline: i64,
    /// Processing time in slots: the job must be assigned to exactly
    /// `processing` distinct slots inside `[release, deadline)`.
    pub processing: i64,
}

impl Job {
    /// Construct a job; validity is checked when building an [`Instance`].
    pub fn new(release: i64, deadline: i64, processing: i64) -> Self {
        Job { release, deadline, processing }
    }

    /// Window length `d - r` in slots.
    pub fn window_len(&self) -> i64 {
        self.deadline - self.release
    }

    /// Does slot `t` (covering `[t, t+1)`) lie inside the window?
    pub fn window_contains(&self, t: i64) -> bool {
        self.release <= t && t < self.deadline
    }
}

/// Why an instance failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// `g < 1`.
    BadParallelism(i64),
    /// A job had `p < 1`.
    BadProcessing(usize),
    /// A job's window is too short for its processing time.
    WindowTooShort(usize),
    /// Two windows cross (overlap without nesting) — the instance is not
    /// laminar. Carries the offending job indices.
    NotLaminar(usize, usize),
    /// The instance admits no feasible schedule even with every slot open.
    Infeasible,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::BadParallelism(g) => write!(f, "machine parallelism g = {g} < 1"),
            InstanceError::BadProcessing(j) => write!(f, "job {j} has processing time < 1"),
            InstanceError::WindowTooShort(j) => {
                write!(f, "job {j}'s window is shorter than its processing time")
            }
            InstanceError::NotLaminar(a, b) => {
                write!(f, "windows of jobs {a} and {b} cross; instance is not laminar")
            }
            InstanceError::Infeasible => {
                write!(f, "instance is infeasible even with all slots open")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A validated active-time scheduling instance.
///
/// Construction checks the per-job sanity conditions (`p ≥ 1`,
/// `d ≥ r + p`, `g ≥ 1`). It does *not* require laminarity — general
/// instances are valid inputs for the baselines and the per-slot LPs —
/// and does not check global feasibility (use
/// [`Instance::is_feasible_all_open`]); the nested solver checks both.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Instance {
    /// Machine parallelism: jobs per active slot.
    pub g: i64,
    /// The jobs. Job ids used throughout the workspace are indices into
    /// this vector.
    pub jobs: Vec<Job>,
}

impl Instance {
    /// Validate and construct.
    pub fn new(g: i64, jobs: Vec<Job>) -> Result<Self, InstanceError> {
        if g < 1 {
            return Err(InstanceError::BadParallelism(g));
        }
        for (idx, j) in jobs.iter().enumerate() {
            if j.processing < 1 {
                return Err(InstanceError::BadProcessing(idx));
            }
            if j.window_len() < j.processing {
                return Err(InstanceError::WindowTooShort(idx));
            }
        }
        Ok(Instance { g, jobs })
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Total processing volume `Σ p_j`.
    pub fn total_volume(&self) -> i64 {
        self.jobs.iter().map(|j| j.processing).sum()
    }

    /// The half-open hull `[min r, max d)` of all windows, or `None` when
    /// there are no jobs.
    pub fn horizon(&self) -> Option<(i64, i64)> {
        if self.jobs.is_empty() {
            return None;
        }
        let lo = self.jobs.iter().map(|j| j.release).min().unwrap();
        let hi = self.jobs.iter().map(|j| j.deadline).max().unwrap();
        Some((lo, hi))
    }

    /// All slot indices inside at least one job window, sorted.
    ///
    /// These are the only slots worth opening; any schedule restricted to
    /// them is as good as the unrestricted one.
    pub fn candidate_slots(&self) -> Vec<i64> {
        let mut events: Vec<(i64, i64)> =
            self.jobs.iter().map(|j| (j.release, j.deadline)).collect();
        events.sort_unstable();
        let mut out = Vec::new();
        let mut covered_until = i64::MIN;
        for (r, d) in events {
            let start = r.max(covered_until);
            for t in start..d {
                out.push(t);
            }
            covered_until = covered_until.max(d);
        }
        out
    }

    /// Are the windows laminar (pairwise nested or disjoint)?
    ///
    /// Returns the first crossing pair on failure.
    pub fn check_laminar(&self) -> Result<(), InstanceError> {
        // Sort windows (keeping job ids) by (r asc, d desc); sweep with a
        // stack of currently-open windows.
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&i| (self.jobs[i].release, -self.jobs[i].deadline));
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            let (r, d) = (self.jobs[i].release, self.jobs[i].deadline);
            while let Some(&top) = stack.last() {
                if self.jobs[top].deadline <= r {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                // `top` is still open: r < d_top. Nested requires d <= d_top.
                if d > self.jobs[top].deadline {
                    return Err(InstanceError::NotLaminar(top, i));
                }
            }
            stack.push(i);
        }
        Ok(())
    }

    /// Feasibility with *every* candidate slot open, via max-flow
    /// (paper §1: "testing feasibility is an easy exercise applying max
    /// flow").
    pub fn is_feasible_all_open(&self) -> bool {
        let slots = self.candidate_slots();
        crate::feasibility::slots_feasible(self, &slots)
    }

    /// The same instance translated in time by `delta` (negative allowed;
    /// the whole library supports negative slot indices).
    pub fn shifted(&self, delta: i64) -> Instance {
        Instance {
            g: self.g,
            jobs: self
                .jobs
                .iter()
                .map(|j| Job::new(j.release + delta, j.deadline + delta, j.processing))
                .collect(),
        }
    }

    /// Concatenate instances that share the same `g` (job ids of later
    /// parts are offset by the earlier parts' job counts). Useful for
    /// composing adversarial families; the result is re-validated.
    pub fn merged(parts: &[&Instance]) -> Result<Instance, InstanceError> {
        let g = parts.first().map(|p| p.g).unwrap_or(1);
        if let Some(bad) = parts.iter().find(|p| p.g != g) {
            return Err(InstanceError::BadParallelism(bad.g));
        }
        let jobs: Vec<Job> = parts.iter().flat_map(|p| p.jobs.iter().copied()).collect();
        Instance::new(g, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(matches!(Instance::new(0, vec![]), Err(InstanceError::BadParallelism(0))));
        assert!(matches!(
            Instance::new(1, vec![Job::new(0, 2, 0)]),
            Err(InstanceError::BadProcessing(0))
        ));
        assert!(matches!(
            Instance::new(1, vec![Job::new(0, 2, 3)]),
            Err(InstanceError::WindowTooShort(0))
        ));
    }

    #[test]
    fn laminar_accepts_nested_and_disjoint() {
        let inst = Instance::new(
            2,
            vec![
                Job::new(0, 10, 1),
                Job::new(1, 4, 2),
                Job::new(2, 3, 1),
                Job::new(5, 8, 1),
                Job::new(1, 4, 1), // duplicate window
            ],
        )
        .unwrap();
        assert!(inst.check_laminar().is_ok());
    }

    #[test]
    fn laminar_rejects_crossing() {
        let inst = Instance::new(1, vec![Job::new(0, 5, 1), Job::new(3, 8, 1)]).unwrap();
        let err = inst.check_laminar().unwrap_err();
        assert!(matches!(err, InstanceError::NotLaminar(0, 1)));
    }

    #[test]
    fn laminar_shared_endpoints_are_fine() {
        // [0,4) ⊃ [0,2) and [0,4) ⊃ [2,4): shared endpoints, still laminar.
        let inst = Instance::new(1, vec![Job::new(0, 4, 1), Job::new(0, 2, 1), Job::new(2, 4, 1)])
            .unwrap();
        assert!(inst.check_laminar().is_ok());
    }

    #[test]
    fn candidate_slots_merge_overlaps() {
        let inst =
            Instance::new(1, vec![Job::new(0, 3, 1), Job::new(1, 2, 1), Job::new(10, 12, 1)])
                .unwrap();
        assert_eq!(inst.candidate_slots(), vec![0, 1, 2, 10, 11]);
    }

    #[test]
    fn horizon_and_volume() {
        let inst = Instance::new(3, vec![Job::new(2, 6, 2), Job::new(0, 3, 1)]).unwrap();
        assert_eq!(inst.horizon(), Some((0, 6)));
        assert_eq!(inst.total_volume(), 3);
        assert_eq!(Instance::new(1, vec![]).unwrap().horizon(), None);
    }

    #[test]
    fn shifted_supports_negative_time() {
        let inst = Instance::new(2, vec![Job::new(0, 6, 2), Job::new(1, 4, 1)]).unwrap();
        let moved = inst.shifted(-10);
        assert_eq!(moved.horizon(), Some((-10, -4)));
        assert!(moved.check_laminar().is_ok());
        assert!(moved.is_feasible_all_open());
        assert_eq!(moved.candidate_slots(), (-10..-4).collect::<Vec<i64>>());
        // Solving at negative coordinates works end to end.
        let r =
            crate::solver::solve_nested(&moved, &crate::solver::SolverOptions::exact()).unwrap();
        r.schedule.verify(&moved).unwrap();
        assert!(r.schedule.slots.iter().all(|&t| t < 0));
    }

    #[test]
    fn merged_concatenates_and_validates() {
        let a = Instance::new(2, vec![Job::new(0, 3, 1)]).unwrap();
        let b = Instance::new(2, vec![Job::new(5, 8, 2)]).unwrap();
        let m = Instance::merged(&[&a, &b]).unwrap();
        assert_eq!(m.num_jobs(), 2);
        assert!(m.check_laminar().is_ok());
        let c = Instance::new(3, vec![Job::new(0, 2, 1)]).unwrap();
        assert!(matches!(Instance::merged(&[&a, &c]), Err(InstanceError::BadParallelism(3))));
        assert_eq!(Instance::merged(&[]).unwrap().num_jobs(), 0);
    }

    #[test]
    fn job_window_contains() {
        let j = Job::new(2, 5, 1);
        assert!(!j.window_contains(1));
        assert!(j.window_contains(2));
        assert!(j.window_contains(4));
        assert!(!j.window_contains(5));
    }
}
