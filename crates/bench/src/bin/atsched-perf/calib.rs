//! Host speed, measured with a fixed integer kernel, and the scaling of
//! reported times to a reference speed.
//!
//! The 2-vCPU host the bounds were set on shares its cores with other
//! tenants. Its speed drifts with their load by up to 1.8× over minutes,
//! and by up to 12% within one run, moving every timing of every
//! workload together, and steal time does not show it. A run therefore
//! times [`kernel`] on every core at several points — before its set-up,
//! and in an untraced run after the set-up and after each segment of
//! the measured phase, while the program is idle — and scales every time
//! it reports by `(REFERENCE_MS / kernel time)^ELASTICITY` (rates the
//! other way), with the kernel time the geometric mean over the points.
//! On a host at the reference speed, scaled and measured values agree.
//!
//! The kernel is register arithmetic only: no memory traffic, no
//! allocation, nothing from the program. A change to the program cannot
//! move it, so scaling divides out the host's speed and keeps the
//! program's. Over twelve 20-s runs per workload, taken across a 19-min
//! span, scaling by the kernel times before and after a run cut the
//! run-to-run spread (IQR / median) of `p50_ms`, `p99_ms` and
//! `goodput_ops` from 0.13–0.24 to 0.06–0.15. Over ten 25-s runs in five
//! segments of each of `solve-cold`, `solve-hot` and `batch-roots`, the
//! points between the segments cut it further, from 0.066–0.105 to
//! 0.036–0.089.
//!
//! The program slows more than the kernel when the host slows: its
//! times move as about the second power of the kernel time (see
//! [`ELASTICITY`]), as the neighbours that slow the kernel's registers
//! also take the caches and memory bandwidth the program needs.

use crate::workloads::CLIENTS;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Time per [`kernel`] call at the reference speed, ms: the median over
/// 48 runs on the host the bounds were set on.
pub const REFERENCE_MS: f64 = 5.4;

/// How far the program's times move per unit move of the kernel time,
/// on a log scale. Fitted on the host the bounds were set on: across
/// 20 sets of 10–36 untraced runs, 288 in all (four workloads; `p50_ms`,
/// `p99_ms`, `goodput_ops`), the log of each metric against the log of
/// the kernel time has slopes of 0.7–6.8, quartiles 1.6, 2.0 and 2.3,
/// and the mean run-to-run
/// spread (IQR / median) of the scaled metrics is least at 1.75: 0.083,
/// against 0.115 at 1 (scaling proportional to the kernel time) and
/// 0.085 at 2.
pub const ELASTICITY: f64 = 1.75;

/// The fixed work: a dependent chain of xorshift steps and rotate-adds.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((x & 31) as u32));
    }
    acc
}

/// The host's time per [`kernel`] call now, ms: the median of `calls`
/// calls on each of [`CLIENTS`] threads at once (one per core), averaged
/// over the threads.
pub fn kernel_ms(calls: usize) -> f64 {
    let per_thread: Vec<f64> = thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS as u64)
            .map(|t| {
                s.spawn(move || {
                    let mut times: Vec<f64> = (0..calls as u64)
                        .map(|call| {
                            let start = Instant::now();
                            black_box(kernel(black_box(t << 32 | call)));
                            start.elapsed().as_secs_f64() * 1e3
                        })
                        .collect();
                    times.sort_by(f64::total_cmp);
                    times[calls / 2]
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("calibration thread panicked")).collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// The factor that scales a run's times to the reference speed, from
/// the kernel times at its points (their geometric mean).
pub fn scale(kernel_ms: &[f64]) -> f64 {
    let log_mean = kernel_ms.iter().map(|k| k.ln()).sum::<f64>() / kernel_ms.len() as f64;
    (REFERENCE_MS / log_mean.exp()).powf(ELASTICITY)
}

/// `value` in `unit` at the reference speed, for a run whose factor is
/// `scale`: times are multiplied by it, rates divided, other units kept.
pub fn at_reference(value: f64, unit: &str, scale: f64) -> f64 {
    match unit {
        "ms" | "s" => value * scale,
        "ops/s" => value / scale,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_down_and_rates_up_on_a_slow_host() {
        // A host at half the reference speed takes twice the kernel time,
        // and the program's times grow by 2^ELASTICITY.
        let s = scale(&[2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS]);
        assert!((s - 0.5f64.powf(ELASTICITY)).abs() < 1e-12, "{s}");
        assert_eq!(at_reference(8.0, "ms", 0.5), 4.0);
        assert_eq!(at_reference(3.0, "s", 0.5), 1.5);
        assert_eq!(at_reference(100.0, "ops/s", 0.5), 200.0);
        assert_eq!(at_reference(17.0, "MiB", 0.5), 17.0);
        assert_eq!(at_reference(0.4, "fraction", 0.5), 0.4);
        // The points enter as a geometric mean.
        let s = scale(&[REFERENCE_MS / 2.0, REFERENCE_MS, REFERENCE_MS * 2.0]);
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn the_kernel_is_deterministic_and_timed() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
        let ms = kernel_ms(1);
        assert!(ms.is_finite() && ms > 0.0, "{ms}");
    }
}
