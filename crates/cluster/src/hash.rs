//! Consistent hashing of reports onto workers.
//!
//! The ring maps a `u64` key to one of N workers through `vnodes`
//! virtual points per worker, so adding or removing a worker moves only
//! `~1/N` of the key space — reports keep landing on the same worker
//! across cluster reconfigurations, which keeps per-worker WALs and
//! window rings warm. Correctness never depends on placement: the
//! cluster's merge is exact and partition-independent, so the key is
//! purely a balance/locality lever (which is also why the router may
//! fail a batch over to another live worker when its home is down).
//!
//! **Routing key.** The TSR3 wire format is deliberately anonymous —
//! there is no user id to hash (the LDP threat model excludes
//! authenticated identities). [`report_key`] therefore uses the
//! report's full content hash as a user-key proxy (distinct users'
//! perturbed reports collide only cosmically), falling back to the
//! report's single region for one-point reports, so the sparse
//! single-check-in traffic of one region co-locates on one worker.

use trajshare_aggregate::{BatchRow, Report, ReportBatch};

/// Splitmix64 finalizer — the workspace's deterministic mixing idiom
/// (`loadgen`, `user_seed`).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over a byte slice, 64-bit, continued from state `h` — cheap,
/// allocation-free, and good enough for load spreading (adversarial
/// collisions only let a client self-concentrate its *own* reports,
/// which plain TCP already allows).
#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Region-affine key: every one-point report for region `r` shares it
/// regardless of its ε′ or timestamp.
#[inline]
fn region_key(r: u32) -> u64 {
    mix64(0x5265_6769_6F6E_0000 ^ r as u64)
}

/// The routing key of one report: content hash (user-key proxy), or the
/// region id for single-point reports. `payload` is the report's exact
/// wire payload (already validated by decode), so the hash costs one
/// pass over bytes the router just read.
pub fn report_key(report: &Report, payload: &[u8]) -> u64 {
    match report.unigrams.as_slice() {
        [(_, r)] => region_key(*r),
        _ => fnv1a(FNV_OFFSET, payload),
    }
}

/// [`report_key`] of row `row` of `batch`, computed straight from the
/// columns: the hash walks the fields in [`Report::encode`] order, so
/// it equals `report_key(&r, &r.encode())` for the same report without
/// building the `Report` or its bytes — a report's home worker does not
/// depend on how it was framed.
pub(crate) fn column_key(batch: &ReportBatch, row: &BatchRow) -> u64 {
    if row.uni.len() == 1 {
        return region_key(batch.uni_region[row.uni.start]);
    }
    let mut h = fnv1a(FNV_OFFSET, &Report::MAGIC);
    h = fnv1a(h, &batch.t_of(row.index).to_le_bytes());
    h = fnv1a(h, &batch.eps_nano.to_le_bytes());
    h = fnv1a(h, &batch.len.to_le_bytes());
    for n in [row.uni.len(), row.exact.len(), row.trans.len()] {
        h = fnv1a(h, &(n as u32).to_le_bytes());
    }
    let pairs = |mut h: u64, pos: &[u16], region: &[u32]| {
        for (p, r) in pos.iter().zip(region) {
            h = fnv1a(h, &p.to_le_bytes());
            h = fnv1a(h, &r.to_le_bytes());
        }
        h
    };
    h = pairs(
        h,
        &batch.uni_pos[row.uni.clone()],
        &batch.uni_region[row.uni.clone()],
    );
    h = pairs(
        h,
        &batch.exact_pos[row.exact.clone()],
        &batch.exact_region[row.exact.clone()],
    );
    let (tails, heads) = (
        &batch.trans_tail[row.trans.clone()],
        &batch.trans_head[row.trans.clone()],
    );
    for (a, b) in tails.iter().zip(heads) {
        h = fnv1a(h, &a.to_le_bytes());
        h = fnv1a(h, &b.to_le_bytes());
    }
    h
}

/// A consistent-hash ring over `num_workers` workers with `vnodes`
/// virtual points each. Points are derived purely from (worker index,
/// vnode index), so every router instance with the same worker list
/// computes the identical ring.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, worker)` sorted by point.
    points: Vec<(u64, usize)>,
    num_workers: usize,
}

impl HashRing {
    /// Builds the ring. `vnodes` is clamped to at least 1.
    pub fn new(num_workers: usize, vnodes: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(num_workers * vnodes);
        for w in 0..num_workers {
            for v in 0..vnodes {
                points.push((mix64((w as u64) << 32 | v as u64), w));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            num_workers,
        }
    }

    /// Workers on the ring.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The worker owning `key`: the first ring point at or after
    /// `mix64(key)`, wrapping.
    pub fn worker_for(&self, key: u64) -> usize {
        let h = mix64(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_workers() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        let mut hits = [0usize; 4];
        for key in 0..20_000u64 {
            let w = a.worker_for(key);
            assert_eq!(w, b.worker_for(key), "identical rings disagree");
            hits[w] += 1;
        }
        // Every worker owns a healthy share (loose bound: ≥ half of the
        // uniform share — consistent hashing with 64 vnodes is well
        // inside this).
        for (w, &n) in hits.iter().enumerate() {
            assert!(n >= 20_000 / 4 / 2, "worker {w} got only {n} of 20000");
        }
    }

    #[test]
    fn removing_a_worker_moves_only_its_keys() {
        let four = HashRing::new(4, 64);
        let three = HashRing::new(3, 64);
        let mut moved = 0usize;
        let mut total = 0usize;
        for key in 0..20_000u64 {
            let w4 = four.worker_for(key);
            let w3 = three.worker_for(key);
            total += 1;
            if w4 < 3 && w3 != w4 {
                moved += 1;
            }
        }
        // Keys owned by surviving workers mostly stay put: the point of
        // consistent hashing over modulo hashing. (Modulo would move
        // ~2/3 of them; allow up to half of the removed worker's share
        // in churn.)
        assert!(
            moved < total / 8,
            "{moved}/{total} keys moved among surviving workers"
        );
    }

    #[test]
    fn single_point_reports_are_region_affine() {
        let ring = HashRing::new(8, 64);
        let report = |r: u32, t: u64, eps: f64| Report {
            t,
            eps_prime: eps,
            len: 1,
            unigrams: vec![(0, r)],
            exact: vec![(0, r)],
            transitions: vec![],
        };
        // Same region, different timestamps/budgets → same worker.
        let a = report(7, 0, 0.5);
        let b = report(7, 999, 2.0);
        let ka = report_key(&a, &a.encode());
        let kb = report_key(&b, &b.encode());
        assert_eq!(ka, kb);
        assert_eq!(ring.worker_for(ka), ring.worker_for(kb));
        // Multi-point reports key on content: two distinct trajectories
        // (almost surely) hash apart.
        let mut c = report(7, 0, 0.5);
        c.unigrams.push((1, 9));
        c.exact.push((1, 9));
        let mut d = c.clone();
        d.unigrams[1].1 = 10;
        d.exact[1].1 = 10;
        assert_ne!(report_key(&c, &c.encode()), report_key(&d, &d.encode()));
    }

    proptest::proptest! {
        /// The column key is `report_key` of the same report, at any row
        /// offset, including the one-unigram region-affine case.
        #[test]
        fn column_key_equals_report_key(
            t in 0u64..=u64::MAX,
            nano in 0u64..64_000_000_000u64,
            len in 0u16..=u16::MAX,
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec((0u16..=u16::MAX, 0u32..=u32::MAX), 0..6),
                    proptest::collection::vec((0u16..=u16::MAX, 0u32..=u32::MAX), 0..3),
                    proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..6),
                    0u32..=u32::MAX,
                ),
                1..5,
            ),
        ) {
            // The first row fixes `base_t`; later rows sit at or after it.
            let reports: Vec<Report> = rows
                .into_iter()
                .enumerate()
                .map(|(i, (unigrams, exact, transitions, dt))| Report {
                    t: t.saturating_add(if i == 0 { 0 } else { dt as u64 }),
                    eps_prime: nano as f64 / 1e9,
                    len,
                    unigrams,
                    exact,
                    transitions,
                })
                .collect();
            let batch = ReportBatch::from_reports(&reports).expect("one key, deltas fit");
            for (row, r) in batch.rows().zip(&reports) {
                proptest::prop_assert_eq!(column_key(&batch, &row), report_key(r, &r.encode()));
            }
            let point = Report {
                unigrams: vec![(0, nano as u32)],
                exact: vec![(0, nano as u32)],
                transitions: vec![],
                ..reports[0].clone()
            };
            let batch = ReportBatch::from_reports(std::slice::from_ref(&point)).unwrap();
            let row = batch.rows().next().unwrap();
            proptest::prop_assert_eq!(column_key(&batch, &row), report_key(&point, &point.encode()));
        }
    }
}
