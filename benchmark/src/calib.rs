//! The reference kernel: a fixed piece of the benchmark's own work, timed
//! beside every operation to tell how fast the machine is running *now*.
//!
//! This sandbox's host drifts: identical code runs 10–30 % slower for
//! minutes at a time, longer than a run lasts, so no estimator over a
//! run's own samples can remove it. The kernel is timed immediately before
//! every operation; a block's timing metrics are divided by the block's
//! median kernel time relative to [`NOMINAL_MS`], which expresses them at
//! the speed of the reference box (see `README.md`, "Why reference speed").

use std::time::Instant;

/// What one pass of the kernel costs on the undisturbed 2-core reference
/// box. Frozen: it only fixes the scale of the reported milliseconds.
pub const NOMINAL_MS: f64 = 0.42;

const KEYS: usize = 8192;
const SORTS_PER_PASS: usize = 4;

/// Sorts the same 8 192 pseudo-random keys four times: branchy,
/// cache-resident, single-threaded — like the sweeps it stands beside.
pub struct Reference {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Reference {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys: Vec<u64> = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            scratch: keys.clone(),
            keys,
        }
    }

    /// One pass, in milliseconds.
    pub fn pass_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..SORTS_PER_PASS {
            self.scratch.copy_from_slice(&self.keys);
            self.scratch.sort_unstable();
            sum = sum.wrapping_add(self.scratch[KEYS / 2]);
        }
        std::hint::black_box(sum);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// How much slower than the reference box the machine runs right now:
    /// the median of `passes` passes over [`NOMINAL_MS`].
    pub fn slowdown_now(&mut self, passes: usize) -> f64 {
        let ms: Vec<f64> = (0..passes).map(|_| self.pass_ms()).collect();
        slowdown(&ms)
    }
}

/// The slowdown a set of pass times shows: their median over
/// [`NOMINAL_MS`].
pub fn slowdown(pass_ms: &[f64]) -> f64 {
    crate::stats::median(pass_ms) / NOMINAL_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_its_work_and_scales_linearly() {
        let mut reference = Reference::new();
        assert!(reference.pass_ms() > 0.0);
        assert!(reference.scratch.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(reference.keys, reference.scratch);
        assert_eq!(
            slowdown(&[NOMINAL_MS, 2.0 * NOMINAL_MS, 3.0 * NOMINAL_MS]),
            2.0
        );
    }
}
