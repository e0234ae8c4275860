//! A fixed reference kernel that measures how fast the machine is right
//! now.
//!
//! The benchmark runs on a shared machine whose speed changes by about 2×
//! for minutes at a time: other tenants share the cores, and the same
//! `sensor_churn` step of the same code takes 72 µs on a quiet host and
//! 120–160 µs on a busy one (a quiet `serve_bursty` tick 10 µs and 18 µs).
//! No estimator over the system under test's own times removes a slowdown
//! that lasts a whole run. So every pass also times this kernel, in short
//! blocks between blocks of the system's steps, and the gated times are
//! reported in units of the kernel's step.
//!
//! What the neighbours slow is branchy code: a dependent multiply chain
//! kept its time while the monitoring step slowed, and among candidate
//! kernels timed beside `sensor_churn`'s steps (40 ms groups over a 25 s
//! run on a busy host) a sort of random keys and calls through a table of
//! boxed closures followed the step most closely (log-log correlation
//! 0.90 and 0.83, slope 0.89 and 0.91), while random reads of a 256 KiB
//! or 4 MiB table, a B-tree and a hash map did not (0.43–0.62). The kernel
//! is those two: one step walks 1,024 values, checks each through its
//! node's boxed filter, and ranks them all by sorting a copy. Over ten
//! seeds on a busy host it took the spread of `sensor_churn`'s step p50
//! from 0.065 in microseconds to 0.011 in reference steps.
//!
//! `serve_bursty`'s burst ticks are bound by memory latency on both cores
//! instead, which this kernel, timed on the driver's core, does not share:
//! there the rate spread only falls from 0.17 to 0.13. A random pointer
//! chase over 64 MiB followed the bursts better (correlation 0.62 against
//! 0.33) but would mistrack the branchy step of `sensor_churn`.
//!
//! It is written here, independent of the repository's crates, so a change
//! to the program under test never changes it.

const N: usize = 1_024;
const SEED: u64 = 0x2545_F491_4F6C_DD1D;

type Filter = Box<dyn Fn(u64, u64) -> bool>;

pub struct Reference {
    values: Vec<u64>,
    filters: Vec<Filter>,
    ranked: Vec<u64>,
    rng: u64,
}

impl Reference {
    pub fn new() -> Self {
        let filters = (0..N as u64)
            .map(|i| -> Filter {
                match i % 3 {
                    0 => Box::new(move |v, m| v ^ i > m),
                    1 => Box::new(move |v, m| v.wrapping_mul(i | 1) < m),
                    _ => Box::new(move |v, m| v.rotate_left((i % 61) as u32) > m),
                }
            })
            .collect();
        Reference {
            values: vec![0; N],
            filters,
            ranked: Vec::with_capacity(N),
            rng: SEED,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// One step; returns a digest so the work cannot be optimized away.
    pub fn step(&mut self) -> u64 {
        for i in 0..N {
            self.values[i] = self.values[i].wrapping_add(self.next() >> 12);
        }
        let bar = self.next();
        let mut violations = 0u64;
        for (v, filter) in self.values.iter().zip(&self.filters) {
            violations += u64::from(filter(*v, bar));
        }
        self.ranked.clear();
        self.ranked.extend_from_slice(&self.values);
        self.ranked.sort_unstable();
        violations ^ self.ranked[N / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel does the same work on every run.
    #[test]
    fn fixed_work() {
        let digests = || {
            let mut r = Reference::new();
            (0..100).map(|_| r.step()).collect::<Vec<_>>()
        };
        assert_eq!(digests(), digests());
    }
}
