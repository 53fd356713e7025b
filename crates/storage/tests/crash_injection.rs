//! Crash-injection property tests: single-level-store recovery after a
//! crash under random segment workloads.

use hyperion_mem::seglevel::{SegmentId, SingleLevelStore};
use hyperion_nvme::device::NvmeDevice;
use hyperion_sim::time::Ns;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The single-level store: segments in the table persisted before a
    /// crash are intact after recovery, segments created after that
    /// `persist_table` are gone, and the allocator never hands out space
    /// that would clobber survivors.
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
        let mut persisted = std::collections::HashMap::new();
        let mut unlisted = Vec::new();
        // Segments flagged `true` are created before the table is
        // persisted, the others after it.
        for before in [true, false] {
            for (i, &(id_raw, len, flag)) in segments.iter().enumerate() {
                if flag != before {
                    continue;
                }
                let id = SegmentId(id_raw + i as u128 * 1_000); // unique
                t = store.create(id, len, t).expect("create");
                let fill = (i as u8).wrapping_add(1);
                let payload = vec![fill; (len / 2) as usize];
                t = store.write(id, 0, &payload, t).expect("write");
                if before {
                    persisted.insert(id, payload);
                } else {
                    unlisted.push(id);
                }
            }
            if before {
                t = store.persist_table(t).expect("persist");
            }
        }
        let (mut recovered, mut t) = store.crash_and_recover(t).expect("recover");

        // All persisted segments intact, the later ones gone.
        for (id, payload) in &persisted {
            let (back, done) = recovered
                .read(*id, 0, payload.len() as u64, t)
                .expect("read");
            t = done;
            prop_assert_eq!(back.as_ref(), payload.as_slice());
        }
        for id in &unlisted {
            prop_assert!(recovered.entry(*id).is_err());
        }
        prop_assert_eq!(recovered.num_segments(), persisted.len());

        // New allocations never corrupt survivors.
        let fresh = SegmentId(u128::MAX);
        t = recovered.create(fresh, 8_192, t).expect("create");
        t = recovered.write(fresh, 0, &[0xEE; 4_096], t).expect("write");
        for (id, payload) in &persisted {
            let (back, done) = recovered
                .read(*id, 0, payload.len() as u64, t)
                .expect("read");
            t = done;
            prop_assert_eq!(back.as_ref(), payload.as_slice());
        }
    }
}
