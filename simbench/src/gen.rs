//! Seeded input generators.
//!
//! The benchmark owns its random stream and its op mix, so a change to
//! the simulator's own RNG or report crates cannot move the inputs. The
//! mix is the hot-path stress mix: 50% loads, 30% stores, 10% fetch-add,
//! 5% non-cacheable pushes and 5% prefetches, with one access in five
//! aimed at a small hot set.

use simcxl_coherence::{AtomicKind, MemOp};
use simcxl_mem::PhysAddr;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined entirely by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); multiply-shift, no modulo bias
    /// worth measuring at these bounds.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// One external request, fully decided before the timed section.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Index into the engine's cache-agent roster.
    pub agent: usize,
    /// The operation.
    pub op: MemOp,
    /// Target address.
    pub addr: PhysAddr,
    /// Issue offset in picoseconds: within its wave for the wave loop,
    /// absolute for the upfront loop.
    pub at_ps: u64,
}

/// Shape of the stress address space.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Peer caches the requests are spread over.
    pub caches: usize,
    /// Lines in the hot set (20% of accesses).
    pub hot_lines: u64,
    /// Lines in the cold set (the other 80%).
    pub cold_lines: u64,
}

/// The stress shape: 8 caches, a 16-line hot set and 16k cold lines
/// striped over four 1 GiB NUMA nodes.
pub const STRESS_MIX: Mix = Mix {
    caches: 8,
    hot_lines: 16,
    cold_lines: 16_384,
};

impl Mix {
    fn addr(&self, rng: &mut Rng) -> PhysAddr {
        let line = if rng.below(5) == 0 {
            rng.below(self.hot_lines)
        } else {
            self.hot_lines + rng.below(self.cold_lines)
        };
        // Lines go round-robin over the four NUMA nodes.
        PhysAddr::new(((line % 4) << 30) | ((line / 4) * 64))
    }

    fn op(rng: &mut Rng) -> MemOp {
        match rng.below(20) {
            0..=9 => MemOp::Load,
            10..=15 => MemOp::Store {
                value: rng.next_u64(),
            },
            16 | 17 => MemOp::Rmw {
                kind: AtomicKind::FetchAdd,
                operand: 1,
                operand2: 0,
            },
            18 => MemOp::NcPush {
                value: rng.next_u64(),
            },
            _ => MemOp::Prefetch,
        }
    }

    /// `n` requests in waves: each op's `at_ps` is uniform within a
    /// `window_ps` wave window.
    pub fn waves(&self, seed: u64, n: usize, window_ps: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| Op {
                agent: rng.below(self.caches as u64) as usize,
                at_ps: rng.below(window_ps),
                op: Self::op(&mut rng),
                addr: self.addr(&mut rng),
            })
            .collect()
    }

    /// `n` requests issued up front, request `i` at `i` ns plus under
    /// 1 ns of jitter.
    pub fn upfront(&self, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        (0..n as u64)
            .map(|i| Op {
                agent: rng.below(self.caches as u64) as usize,
                op: Self::op(&mut rng),
                addr: self.addr(&mut rng),
                at_ps: i * 1000 + rng.below(999),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = STRESS_MIX.waves(7, 500, 4_000_000);
        let b = STRESS_MIX.waves(7, 500, 4_000_000);
        let c = STRESS_MIX.waves(8, 500, 4_000_000);
        let key = |v: &[Op]| {
            v.iter()
                .map(|o| (o.agent, o.addr, o.at_ps))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| r.below(5) < 5));
    }
}
