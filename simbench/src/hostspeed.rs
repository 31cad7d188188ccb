//! Host-speed reference probe.
//!
//! The host is shared, and its speed drifts by tens of percent over
//! minutes: every repetition of a run can be slow together, and the
//! fastest repetition of a slow run is slower than the median of a fast
//! one. The drift is common to any code the host runs, so the benchmark
//! times a fixed kernel of its own between repetitions and scales each
//! repetition's host times by `NOMINAL_S / probe_s`, where `probe_s` is
//! the kernel's time measured around that repetition. A change to the
//! simulator moves its own times but not the probe's, so it still shows
//! in full; the host's drift moves both and cancels.
//!
//! Most of the drift comes from other tenants' use of the shared caches
//! and memory, so the kernel is mostly memory-bound: hashed table probes
//! and a binary heap over 2 MiB, like the simulator's hot paths, then
//! random read-modify-writes over 16, 64 and 32 MiB arrays in turn, so
//! each array comes back to the kernel after the others have pushed it
//! out of the core's caches. Of the kernels tried it left the smallest
//! run-to-run spread over all four workloads. Its memory is allocated
//! once, so the simulator's heap state cannot change what it measures.

use crate::gen::Rng;
use crate::report::median;
use std::time::Instant;

/// The probe's time on the reference host, s. Scaled host times read as
/// host seconds on a host that runs the probe in exactly this long.
pub const NOMINAL_S: f64 = 0.030;
/// Table operations in one probe.
const TABLE_OPS: u32 = 300_000;
/// Table slots (a power of two): 2 MiB of keys and values.
const SLOTS: usize = 1 << 17;
/// Distinct keys the table draws from.
const KEYS: u64 = 1 << 16;
/// Read-modify-writes per array in one probe.
const RMW_OPS: u32 = 300_000;
/// Array lengths in `u64`s, in the order the probe visits them: 16, 64
/// and 32 MiB.
const ARRAYS: [usize; 3] = [1 << 21, 1 << 23, 1 << 22];

/// The probe's preallocated state.
#[derive(Debug)]
pub struct Probe {
    keys: Vec<u64>,
    vals: Vec<u64>,
    heap: Vec<u64>,
    arrays: Vec<Vec<u64>>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Allocates and touches the probe's memory once.
    pub fn new() -> Self {
        Probe {
            keys: vec![0; SLOTS],
            vals: vec![0; SLOTS],
            heap: Vec::with_capacity(TABLE_OPS as usize),
            arrays: ARRAYS.iter().map(|&n| vec![1; n]).collect(),
        }
    }

    /// Runs the kernel once and returns its host time, s.
    pub fn once(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = self.table();
        for a in &mut self.arrays {
            let mut rng = Rng::new(99);
            for _ in 0..RMW_OPS {
                let i = rng.next_u64() as usize & (a.len() - 1);
                a[i] = a[i].wrapping_add(acc);
                acc = acc.wrapping_add(a[i]);
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Runs the kernel until `budget_s` has passed (at least once) and
    /// returns the median probe time, s.
    pub fn sample(&mut self, budget_s: f64) -> f64 {
        let mut times = vec![self.once()];
        while times.iter().sum::<f64>() < budget_s {
            times.push(self.once());
        }
        median(&times)
    }

    /// Hashed inserts and lookups mixed with heap pushes and pops.
    fn table(&mut self) -> u64 {
        self.keys.fill(0);
        self.heap.clear();
        let mut rng = Rng::new(0x5eed_0f90_be00);
        let mut acc = 0u64;
        for i in 0..TABLE_OPS {
            let r = rng.next_u64();
            let key = 1 + (r >> 3) % KEYS;
            match r & 3 {
                0 => *self.slot(key) = u64::from(i),
                1 => acc = acc.wrapping_add(*self.slot(key)),
                2 => self.push(r >> 16),
                _ => acc ^= self.pop().unwrap_or(0),
            }
        }
        acc
    }

    /// The value slot for `key`, inserting it by linear probing.
    fn slot(&mut self, key: u64) -> &mut u64 {
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 47) as usize;
        while self.keys[i] != key && self.keys[i] != 0 {
            i = (i + 1) & (SLOTS - 1);
        }
        self.keys[i] = key;
        &mut self.vals[i]
    }

    fn push(&mut self, v: u64) {
        let h = &mut self.heap;
        h.push(v);
        let mut i = h.len() - 1;
        while i > 0 && h[(i - 1) / 2] > h[i] {
            h.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
    }

    fn pop(&mut self) -> Option<u64> {
        let h = &mut self.heap;
        let top = *h.first()?;
        let last = h.pop()?;
        if h.is_empty() {
            return Some(top);
        }
        h[0] = last;
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < h.len() && h[l] < h[m] {
                m = l;
            }
            if r < h.len() && h[r] < h[m] {
                m = r;
            }
            if m == i {
                return Some(top);
            }
            h.swap(i, m);
            i = m;
        }
    }
}
