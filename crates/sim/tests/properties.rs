//! Property-based tests for the simulation kernel's core invariants.

use hyperion_sim::resource::Resource;
use hyperion_sim::rng::{Rng, Zipf};
use hyperion_sim::stats::Histogram;
use hyperion_sim::time::Ns;
use proptest::prelude::*;

proptest! {
    /// A resource never starts a job before its arrival, never before the
    /// previous job on a single server finishes, and conserves busy time.
    #[test]
    fn resource_fifo_invariants(
        arrivals in proptest::collection::vec((0u64..10_000, 1u64..1_000), 1..200),
    ) {
        let mut r = Resource::new("r", 1);
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut prev_done = Ns::ZERO;
        let mut total_service = 0u64;
        for (at, svc) in sorted {
            let done = r.access(Ns(at), Ns(svc));
            // Completion is after arrival plus service.
            prop_assert!(done >= Ns(at + svc));
            // Single server: strictly serialized.
            prop_assert!(done >= prev_done + Ns(svc));
            prev_done = done;
            total_service += svc;
        }
        prop_assert_eq!(r.busy_time(), Ns(total_service));
    }

    /// A k-server resource completes a batch no later than a 1-server one.
    #[test]
    fn more_servers_never_slower(
        jobs in proptest::collection::vec(1u64..500, 1..100),
        k in 2usize..8,
    ) {
        let mut one = Resource::new("one", 1);
        let mut many = Resource::new("many", k);
        let mut last_one = Ns::ZERO;
        let mut last_many = Ns::ZERO;
        for &svc in &jobs {
            last_one = last_one.max(one.access(Ns::ZERO, Ns(svc)));
            last_many = last_many.max(many.access(Ns::ZERO, Ns(svc)));
        }
        prop_assert!(last_many <= last_one);
    }

    /// Identically seeded RNGs agree on every derived sampling operation.
    #[test]
    fn rng_determinism(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = Rng::seeded(seed);
        let mut b = Rng::seeded(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_below(bound), b.next_below(bound));
        }
    }

    /// Histogram percentiles are monotone in p and bracketed by min/max.
    #[test]
    fn histogram_percentile_monotone(
        samples in proptest::collection::vec(0u64..10_000_000, 1..500),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut prev = 0u64;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= prev, "p{p} regressed: {v} < {prev}");
            prop_assert!(v >= h.min() && v <= h.max());
            prev = v;
        }
    }

    /// Zipf samples always fall inside the item range.
    #[test]
    fn zipf_in_range(seed in any::<u64>(), n in 1u64..100_000, theta in 0.0f64..0.999) {
        let z = Zipf::new(n, theta);
        let mut rng = Rng::seeded(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
