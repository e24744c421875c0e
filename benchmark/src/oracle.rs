//! Reference results. Every workload cycles a known report slice per
//! connection, so what the server must hold is `cycles × slice +
//! prefix` — computed here with the library's own merge primitives
//! (reference implementations stay the library's; only the multiset
//! arithmetic is ours) and compared bit for bit.

use trajshare_aggregate::{
    crc32, AggregateCounts, Aggregator, Report, WindowConfig, WindowedAggregator,
};

/// How many whole passes over a slice of `slice_len` reports, and how
/// many reports of one more partial pass, make up `sent` reports.
pub fn split_sent(sent: u64, slice_len: u64) -> (u64, u64) {
    assert!(slice_len > 0, "empty slice cannot be cycled");
    (sent / slice_len, sent % slice_len)
}

/// `k` copies of `unit` merged together, in O(log k) merges.
fn scaled<T: Clone>(unit: &T, zero: T, mut k: u64, merge: impl Fn(&mut T, &T)) -> T {
    let mut result = zero;
    let mut power = unit.clone();
    while k > 0 {
        if k & 1 == 1 {
            merge(&mut result, &power);
        }
        k >>= 1;
        if k > 0 {
            let copy = power.clone();
            merge(&mut power, &copy);
        }
    }
    result
}

fn counts_of(tiles: &[u16], reports: &[Report]) -> AggregateCounts {
    let mut agg = Aggregator::from_region_tiles(tiles.to_vec());
    agg.ingest_batch(reports);
    agg.into_counts()
}

/// Counters a collector must hold after one connection sent the first
/// `sent` reports of the endless repetition of `slice`.
pub fn expected_counts(tiles: &[u16], slice: &[Report], sent: u64) -> AggregateCounts {
    let (cycles, prefix) = split_sent(sent, slice.len() as u64);
    let mut total = scaled(
        &counts_of(tiles, slice),
        AggregateCounts::new(tiles.len()),
        cycles,
        AggregateCounts::merge,
    );
    total.merge(&counts_of(tiles, &slice[..prefix as usize]));
    total
}

fn ring_of(tiles: &[u16], window: WindowConfig, reports: &[Report]) -> WindowedAggregator {
    let mut ring = WindowedAggregator::new(tiles.to_vec(), window);
    for r in reports {
        ring.ingest(r);
    }
    ring
}

/// The window ring for the same multiset, valid when every timestamp
/// in `slice` stays inside the ring's span (nothing is evicted, so the
/// ring is a plain sum per window).
pub fn expected_ring(
    tiles: &[u16],
    window: WindowConfig,
    slice: &[Report],
    sent: u64,
) -> WindowedAggregator {
    let (cycles, prefix) = split_sent(sent, slice.len() as u64);
    let mut total = scaled(
        &ring_of(tiles, window, slice),
        WindowedAggregator::new(tiles.to_vec(), window),
        cycles,
        WindowedAggregator::merge_ring,
    );
    total.merge_ring(&ring_of(tiles, window, &slice[..prefix as usize]));
    total
}

/// A fingerprint of a ring's live windows — ids and counters only, so
/// two rings holding the same data agree whatever their spend
/// annotations or late/evicted tallies say. Each window's snapshot is
/// hashed *without* its trailing CRC-32: a CRC taken over bytes that
/// end in their own CRC is a constant, blind to the data.
pub fn ring_data_crc(ring: &WindowedAggregator) -> u32 {
    let mut bytes = Vec::new();
    for (id, counts) in ring.windows() {
        let snapshot = counts.encode_snapshot();
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&snapshot[..snapshot.len() - 4]);
    }
    crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(i: u32) -> Report {
        Report {
            t: u64::from(i % 4) * 10,
            eps_prime: 0.5 + f64::from(i % 3),
            len: 3,
            unigrams: vec![(0, i % 6), (1, (i + 1) % 6), (2, (i + 2) % 6)],
            exact: vec![(0, i % 6)],
            transitions: vec![(i % 6, (i + 1) % 6)],
        }
    }

    #[test]
    fn sent_splits_into_cycles_and_prefix() {
        assert_eq!(split_sent(0, 7), (0, 0));
        assert_eq!(split_sent(6, 7), (0, 6));
        assert_eq!(split_sent(7, 7), (1, 0));
        assert_eq!(split_sent(23, 7), (3, 2));
    }

    #[test]
    fn scaled_counts_equal_feeding_every_report() {
        let tiles = vec![0u16; 6];
        let slice: Vec<Report> = (0..7).map(toy).collect();
        for sent in [0u64, 3, 7, 23, 70, 75] {
            let mut brute = Aggregator::from_region_tiles(tiles.clone());
            for i in 0..sent {
                brute.ingest(&slice[(i % 7) as usize]);
            }
            assert_eq!(
                &expected_counts(&tiles, &slice, sent),
                brute.counts(),
                "sent = {sent}"
            );
        }
    }

    #[test]
    fn scaled_ring_equals_feeding_every_report() {
        let tiles = vec![0u16; 6];
        let window = WindowConfig {
            window_len: 10,
            num_windows: 8,
        };
        let slice: Vec<Report> = (0..9).map(toy).collect();
        for sent in [4u64, 9, 40] {
            let mut brute = WindowedAggregator::new(tiles.clone(), window);
            for i in 0..sent {
                brute.ingest(&slice[(i % 9) as usize]);
            }
            let want = expected_ring(&tiles, window, &slice, sent);
            assert_eq!(want.encode_ring(), brute.encode_ring(), "sent = {sent}");
            assert_eq!(ring_data_crc(&want), ring_data_crc(&brute));
        }
    }

    #[test]
    fn ring_fingerprint_sees_the_data() {
        let tiles = vec![0u16; 6];
        let window = WindowConfig {
            window_len: 10,
            num_windows: 8,
        };
        let slice: Vec<Report> = (0..9).map(toy).collect();
        let a = expected_ring(&tiles, window, &slice, 9);
        let b = expected_ring(&tiles, window, &slice, 10);
        assert_eq!(a.windows().len(), b.windows().len());
        assert_ne!(ring_data_crc(&a), ring_data_crc(&b));
    }
}
