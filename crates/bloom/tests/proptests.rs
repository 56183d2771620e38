//! Property tests of the Bloom filter and the time-ordered chain.

use almanac_bloom::{BloomChain, BloomFilter, ChainConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn never_false_negative(keys in proptest::collection::hash_set(any::<u64>(), 1..512)) {
        let mut f = BloomFilter::new(1 << 14, 4);
        for k in &keys {
            f.insert(*k);
        }
        for k in &keys {
            prop_assert!(f.contains(*k));
        }
    }

    #[test]
    fn chain_never_false_negative_across_segments(
        keys in proptest::collection::vec(any::<u64>(), 1..300),
        capacity in 4u64..64,
    ) {
        let mut chain = BloomChain::new(ChainConfig {
            bits_per_filter: 1 << 12,
            hashes: 4,
            capacity,
        });
        for (i, k) in keys.iter().enumerate() {
            chain.insert(*k, i as u64);
        }
        for k in &keys {
            prop_assert!(chain.contains(*k));
        }
    }

    #[test]
    fn chain_creation_times_monotonic(
        n in 1usize..400,
        capacity in 1u64..32,
    ) {
        let mut chain = BloomChain::new(ChainConfig {
            bits_per_filter: 256,
            hashes: 2,
            capacity,
        });
        for i in 0..n as u64 {
            chain.insert(i, i * 10);
        }
        let infos = chain.infos();
        prop_assert!(infos.windows(2).all(|w| w[0].created_at <= w[1].created_at));
        prop_assert!(infos.windows(2).all(|w| w[0].id < w[1].id));
        // Every sealed filter except the active one is at capacity.
        for info in &infos[..infos.len().saturating_sub(1)] {
            prop_assert_eq!(info.count, capacity);
        }
    }

    #[test]
    fn dropping_oldest_shrinks_window(
        n in 20u64..200,
    ) {
        let mut chain = BloomChain::new(ChainConfig {
            bits_per_filter: 256,
            hashes: 2,
            capacity: 8,
        });
        for i in 0..n {
            chain.insert(i, i);
        }
        while chain.len() > 1 {
            let before = chain.retention_start().unwrap();
            chain.drop_oldest();
            let after = chain.retention_start().unwrap();
            prop_assert!(after >= before);
        }
    }

    #[test]
    fn is_live_matches_the_live_filter_list(
        steps in proptest::collection::vec(0u8..8, 1..300),
        capacity in 1u64..8,
    ) {
        // Step 0 drops the oldest filter, any other step inserts a key.
        let mut chain = BloomChain::new(ChainConfig {
            bits_per_filter: 256,
            hashes: 2,
            capacity,
        });
        let mut issued = 0;
        for (i, step) in steps.iter().enumerate() {
            if *step == 0 {
                chain.drop_oldest();
            } else {
                issued = issued.max(chain.insert(i as u64, i as u64) + 1);
            }
            let infos = chain.infos();
            // Every id issued so far, plus the next one.
            for id in 0..=issued {
                prop_assert_eq!(chain.is_live(id), infos.iter().any(|i| i.id == id));
            }
        }
    }
}
