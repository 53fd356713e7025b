//! A fixed reference kernel that gauges the host's speed as it is now.
//!
//! The host is shared: other guests load the same cores and caches, and
//! that shifts every host timing by tens of percent, for seconds or for
//! whole minutes. The benchmark runs this kernel after every timed block
//! of simulated ops and after every set-up, and reports each host time
//! divided by the kernel's time just then, multiplied by [`NOMINAL_MS`]:
//! the time the work would take on a host that runs the kernel in
//! [`NOMINAL_MS`]. The kernel never changes, so a change to the simulator
//! moves a rescaled time as it moves the raw one.
//!
//! The kernel does the kinds of work the simulator's hot paths do: a
//! scalar scan of a 400 KB queue (the LB's LRU, the NVMe backlog), hash
//! lookups (flow tables, tree nodes, KV) and 4 KiB page allocations
//! (flash images, payloads). Each run makes one untimed pass to fill the
//! caches and times a second pass, so the kernel gauges the host, not how
//! much of the cache the simulator's last block evicted.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use hyperion_sim::rng::SplitMix64;

/// Kernel time, in ms, of the host that rescaled times refer to: about
/// what the kernel takes on an idle 2-vCPU Xeon KVM guest.
pub const NOMINAL_MS: f64 = 0.12;

/// Entries in the scanned queue (400 KB, like a 50k-flow LRU).
const QUEUE: u64 = 50_000;
/// Full scans per pass.
const SCANS: usize = 3;
/// Keys in the hash table (about 100 KB, so the warm-up pass caches it).
const TABLE: u64 = 4_096;
/// Lookups per pass.
const LOOKUPS: usize = 3_000;
/// 4 KiB pages allocated, filled and dropped per pass.
const PAGES: usize = 16;

/// Kernel timings on each side of a block whose median gauges the host
/// for that block: the kernel's own jitter averages out, while a change
/// of host load that lasts longer than a few blocks still shows.
const WINDOW: usize = 4;

/// The kernel's state, built once per run.
#[derive(Debug)]
pub(crate) struct Reference {
    queue: VecDeque<u64>,
    table: HashMap<u64, u64>,
    keys: SplitMix64,
}

impl Reference {
    pub(crate) fn new() -> Reference {
        let mut ids = SplitMix64::new(0x5eed);
        Reference {
            queue: (0..QUEUE).collect(),
            table: (0..TABLE)
                .map(|i| (ids.next_u64() % (TABLE * 2), i))
                .collect(),
            keys: SplitMix64::new(0xca11),
        }
    }

    /// Runs the kernel: one warm-up pass, one timed pass. Returns the
    /// timed pass's host time in ms.
    pub(crate) fn run(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        t.elapsed().as_secs_f64() * 1e3
    }

    fn pass(&mut self) {
        for _ in 0..SCANS {
            // The last entry: a full scan, as for the hottest LRU flow.
            let needle = black_box(QUEUE - 1);
            let pos = self.queue.iter().position(|&f| f == needle);
            black_box(pos);
        }
        let mut hits = 0u64;
        for _ in 0..LOOKUPS {
            let k = self.keys.next_u64() % (TABLE * 2);
            hits += self.table.get(&k).copied().unwrap_or(0);
        }
        black_box(hits);
        for i in 0..PAGES {
            black_box(vec![i as u8; 4096]);
        }
    }
}

/// Rescales consecutive block times (`ms`) by the kernel times measured
/// after each block (`kernel_ms`), each block against the median kernel
/// time of the [`WINDOW`] blocks on either side of it.
pub(crate) fn rescale_blocks(ms: &[f64], kernel_ms: &[f64]) -> Vec<f64> {
    let n = kernel_ms.len();
    ms.iter()
        .enumerate()
        .map(|(i, &x)| {
            let window = &kernel_ms[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(n)];
            x * (NOMINAL_MS / crate::median(window))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_is_rescaled_by_the_kernel_times_around_it() {
        // Kernel at the nominal speed: block times pass through.
        assert_eq!(rescale_blocks(&[3.0, 5.0], &[NOMINAL_MS; 2]), [3.0, 5.0]);
        // Host twice as slow for the whole episode: times halve.
        let slow = [2.0 * NOMINAL_MS; 12];
        assert_eq!(rescale_blocks(&[4.0; 12], &slow), [2.0; 12]);
        // One jittery kernel run among nine does not move its block.
        let mut jitter = [NOMINAL_MS; 12];
        jitter[6] = 10.0 * NOMINAL_MS;
        assert_eq!(rescale_blocks(&[1.0; 12], &jitter)[6], 1.0);
    }

    #[test]
    fn the_kernel_takes_host_time() {
        let mut kernel = Reference::new();
        assert!(kernel.run() > 0.0);
    }
}
