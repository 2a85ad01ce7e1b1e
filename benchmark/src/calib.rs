//! A fixed piece of work that measures how fast the host is right now.
//!
//! On a shared sandbox the same binary on the same seed runs up to 30 %
//! slower for tens of seconds at a time (a busy sibling hyper-thread, a
//! clocked-down core) with the process still holding its CPU, so no
//! statistic over a run's own iterations can see it. [`spin`] is timed
//! right before and after every measured section; dividing the section's
//! wall-clock by the spins around it gives its cost in *reference-host
//! seconds*, which is what the end-to-end time metrics report (the raw
//! seconds stay in `results.json`).
//!
//! The loop touches no simulator code, so no change to the simulator can
//! move it. It mixes what a discrete-event simulator is made of: dependent
//! loads over a cache-sized table, data-dependent branches and integer
//! arithmetic.

use std::hint::black_box;
use std::time::Instant;

/// What one [`spin`] takes on an undisturbed core of the sandbox this
/// benchmark was defined on: the reference host's speed, fixed here so
/// reference seconds are close to real seconds there.
pub const NOMINAL_SPIN_S: f64 = 0.060;

const TABLE_WORDS: usize = 1 << 19; // 4 MB: larger than L2, smaller than L3
const STEPS: u32 = 1_200_000;

/// The calibration loop's working set.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator { table }
    }

    /// Run the fixed work once; seconds it took.
    pub fn spin(&mut self) -> f64 {
        let start = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut at = 0usize;
        let mut acc = 0u64;
        for step in 0..STEPS {
            let word = self.table[at];
            // A branch the predictor cannot learn, as in event dispatch.
            if word & 1 == 0 {
                acc = acc.wrapping_add(word >> 3);
            } else {
                acc ^= word.rotate_left(step & 31);
            }
            self.table[at] = word.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(acc);
            at = (word ^ acc) as usize & mask;
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_does_its_work_every_time() {
        let mut calibrator = Calibrator::new();
        let before = calibrator.table.clone();
        assert!(calibrator.spin() > 0.0);
        assert_ne!(
            calibrator.table, before,
            "the loop must not be optimised away"
        );
    }
}
