//! Crash-injection property tests: single-level-store recovery after a
//! crash under random segment workloads.

use hyperion_mem::seglevel::{AllocHint, SegmentId, SingleLevelStore};
use hyperion_nvme::device::NvmeDevice;
use hyperion_sim::time::Ns;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The single-level store: durable segments persisted before a crash
    /// are intact after recovery, volatile ones are gone, and the
    /// allocator never hands out space that would clobber survivors.
    #[test]
    fn seglevel_recovery_under_random_workloads(
        segments in proptest::collection::vec(
            (1u128..64, 512u64..16_384, any::<bool>()),
            1..12,
        ),
    ) {
        let devices = vec![
            NvmeDevice::new_block(1 << 18),
            NvmeDevice::new_block(1 << 18),
        ];
        let mut store = SingleLevelStore::new(devices);
        let mut t = Ns::ZERO;
        let mut durable_set = std::collections::HashMap::new();
        for (i, &(id_raw, len, durable)) in segments.iter().enumerate() {
            let id = SegmentId(id_raw + i as u128 * 1_000); // unique
            let hint = if durable { AllocHint::Durable } else { AllocHint::Balanced };
            t = store.create(id, len, hint, t).expect("create");
            let fill = (i as u8).wrapping_add(1);
            let payload = vec![fill; (len / 2) as usize];
            t = store.write(id, 0, &payload, t).expect("write");
            if durable {
                durable_set.insert(id, (payload, len));
            }
        }
        t = store.persist_table(t).expect("persist");
        let (mut recovered, mut t) = store.crash_and_recover(t).expect("recover");

        // All durable segments intact.
        for (id, (payload, _len)) in &durable_set {
            let (back, done) = recovered
                .read(*id, 0, payload.len() as u64, t)
                .expect("read");
            t = done;
            prop_assert_eq!(back.as_ref(), payload.as_slice());
        }
        prop_assert_eq!(recovered.num_segments(), durable_set.len());

        // New allocations never corrupt survivors.
        let fresh = SegmentId(u128::MAX);
        t = recovered
            .create(fresh, 8_192, AllocHint::Durable, t)
            .expect("create");
        t = recovered.write(fresh, 0, &[0xEE; 4_096], t).expect("write");
        for (id, (payload, _)) in &durable_set {
            let (back, done) = recovered
                .read(*id, 0, payload.len() as u64, t)
                .expect("read");
            t = done;
            prop_assert_eq!(back.as_ref(), payload.as_slice());
        }
    }
}
