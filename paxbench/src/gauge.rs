//! A host-speed gauge: a fixed slice of work, independent of the program
//! under test, timed on the client thread between requests, at most once
//! every `INTERVAL`.
//!
//! The slice walks a fixed arena tree bottom-up, folds each node's children
//! into a per-node value, collects the matching nodes into a fresh vector and
//! counts labels in a hash map: the same mix of branchy arena walks, small
//! allocations and hashing as a site pass, but with inputs that never change,
//! so its time moves only with the speed of the host. On a shared host that
//! speed drifts by 20 % and more within minutes; the CPU-bound workloads
//! divide their times by [`slowdown`] to report them at the reference speed.
//! The mean slice time, not the median, is used, so that time the host takes
//! the CPU away counts in the gauge as it counts in the requests.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean slice time, in microseconds, on the host the scaled figures refer
/// to: a calm two-vCPU guest on an Intel Xeon host.
pub const REFERENCE_US: f64 = 75.0;
/// Nodes in the gauge's tree.
const NODES: usize = 4096;
/// Distinct labels.
const LABELS: u32 = 24;
/// Minimum wall time between two samples.
const INTERVAL: Duration = Duration::from_millis(10);

/// The fixed tree every slice walks.
struct Tree {
    /// Parent of each node; node 0 is the root and every parent precedes
    /// its children.
    parent: Vec<u32>,
    label: Vec<u32>,
}

impl Tree {
    fn new() -> Tree {
        // A fixed linear congruential sequence: the tree never depends on
        // the workload seed.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut parent = vec![0u32; NODES];
        let mut label = vec![0u32; NODES];
        for node in 1..NODES {
            parent[node] = next() % node as u32;
            label[node] = next() % LABELS;
        }
        Tree { parent, label }
    }

    /// One pass of fixed work; the result depends on all of it.
    fn pass(&self) -> u64 {
        let mut value = vec![0u64; NODES];
        for node in (1..NODES).rev() {
            let mine = value[node].rotate_left(7) ^ u64::from(self.label[node]);
            let up = self.parent[node] as usize;
            value[up] = value[up].wrapping_add(mine.wrapping_mul(0x100_0000_01B3));
        }
        let matches: Vec<u32> = (0..NODES as u32)
            .filter(|&n| value[n as usize] % 3 == u64::from(self.label[n as usize]) % 3)
            .collect();
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &n in &matches {
            *counts.entry(self.label[n as usize]).or_default() += 1;
        }
        value[0] ^ matches.len() as u64 ^ counts.values().map(|&c| u64::from(c)).sum::<u64>()
    }
}

/// The gauge: the fixed tree and the samples taken so far.
pub struct Gauge {
    tree: Tree,
    /// Nanoseconds of each timed slice.
    pub samples: Vec<u64>,
    next: Instant,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge { tree: Tree::new(), samples: Vec::new(), next: Instant::now() }
    }

    /// Time one slice if at least `INTERVAL` has passed since the last.
    pub fn tick(&mut self) {
        let start = Instant::now();
        if start < self.next {
            return;
        }
        // An untimed pass first brings the tree back into the caches the
        // request just used, so the timed pass measures the host, not how
        // much of the cache the program under test took.
        black_box(self.tree.pass());
        let timed = Instant::now();
        black_box(self.tree.pass());
        self.samples.push(timed.elapsed().as_nanos() as u64);
        self.next = Instant::now() + INTERVAL;
    }
}

/// How much slower than the reference host a window ran whose slices took
/// `mean_us` on average: a time measured in it, divided by this, is the time
/// at the reference speed.
pub fn slowdown(mean_us: f64) -> f64 {
    if mean_us > 0.0 {
        mean_us / REFERENCE_US
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slice_is_the_same_work_every_time() {
        let tree = Tree::new();
        assert!(tree.parent.iter().enumerate().skip(1).all(|(n, &p)| (p as usize) < n));
        assert_eq!(tree.pass(), Tree::new().pass());
    }

    #[test]
    fn slices_are_taken_at_most_once_per_interval() {
        let mut gauge = Gauge::new();
        gauge.tick();
        gauge.tick();
        assert_eq!(gauge.samples.len(), 1);
        std::thread::sleep(INTERVAL);
        gauge.tick();
        assert_eq!(gauge.samples.len(), 2);
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert_eq!(slowdown(REFERENCE_US), 1.0);
        assert_eq!(slowdown(2.0 * REFERENCE_US), 2.0);
        assert_eq!(slowdown(0.0), 1.0);
    }
}
