//! Offline stand-in for the `rayon` parallel-iterator subset this
//! workspace uses: `par_iter()` / `par_chunks()` with `map` + `collect` /
//! `reduce`, executed on `std::thread::scope` workers over contiguous
//! index segments.
//!
//! Semantics notes (both match how the workspace calls these APIs):
//!
//! * `collect` preserves input order (each worker owns a contiguous
//!   segment; segments are concatenated in order),
//! * `reduce` combines per-worker accumulators in an unspecified grouping,
//!   so the operator must be associative — and, because segment boundaries
//!   depend on the worker count, *commutative* too for results to be
//!   machine-independent. The aggregation counters this workspace reduces
//!   are element-wise `u64` sums, which qualify.

/// Worker count: the machine's available parallelism, at most `jobs`.
fn workers_for(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(jobs).max(1)
}

/// Splits `0..n` into `w` contiguous near-equal segments.
fn segments(n: usize, w: usize) -> Vec<(usize, usize)> {
    let base = n / w;
    let extra = n % w;
    let mut out = Vec::with_capacity(w);
    let mut start = 0;
    for k in 0..w {
        let len = base + usize::from(k < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Runs `produce(i)` for every `i in 0..n` across worker threads and
/// returns the results in index order.
fn parallel_collect<U, F>(n: usize, produce: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let w = workers_for(n);
    if w <= 1 {
        return (0..n).map(produce).collect();
    }
    let segs = segments(n, w);
    let produce = &produce;
    let mut out: Vec<Vec<U>> = Vec::with_capacity(w);
    std::thread::scope(|scope| {
        let handles: Vec<_> = segs
            .iter()
            .map(|&(a, b)| scope.spawn(move || (a..b).map(produce).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            out.push(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// Runs `produce(i)` for every `i in 0..n` across worker threads, folding
/// each worker's results with `op` from `identity()`, then folding the
/// per-worker accumulators.
fn parallel_reduce<U, F, ID, OP>(n: usize, produce: F, identity: ID, op: OP) -> U
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    ID: Fn() -> U + Sync,
    OP: Fn(U, U) -> U + Sync,
{
    let w = workers_for(n);
    if w <= 1 {
        return (0..n).map(produce).fold(identity(), &op);
    }
    let segs = segments(n, w);
    let produce = &produce;
    let identity = &identity;
    let op = &op;
    let mut accs: Vec<U> = Vec::with_capacity(w);
    std::thread::scope(|scope| {
        let handles: Vec<_> = segs
            .iter()
            .map(|&(a, b)| scope.spawn(move || (a..b).map(produce).fold(identity(), op)))
            .collect();
        for h in handles {
            accs.push(h.join().expect("rayon-shim worker panicked"));
        }
    });
    accs.into_iter().fold(identity(), op)
}

/// Extension methods on slices (reachable from `Vec` through deref).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-element chunks (last may be shorter).
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;

    /// Parallel iterator over elements.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunks { data: self, size }
    }

    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { data: self }
    }
}

pub struct ParChunks<'a, T> {
    data: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    pub fn map<U, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a [T]) -> U + Sync,
    {
        ParChunksMap {
            data: self.data,
            size: self.size,
            f,
        }
    }

    pub fn count(self) -> usize {
        self.data.chunks(self.size).count()
    }
}

pub struct ParChunksMap<'a, T, F> {
    data: &'a [T],
    size: usize,
    f: F,
}

impl<'a, T: Sync, F> ParChunksMap<'a, T, F> {
    fn chunk(&self, i: usize) -> &'a [T] {
        let a = i * self.size;
        let b = (a + self.size).min(self.data.len());
        &self.data[a..b]
    }

    fn num_chunks(&self) -> usize {
        self.data.len().div_ceil(self.size)
    }

    pub fn reduce<U, ID, OP>(self, identity: ID, op: OP) -> U
    where
        U: Send,
        F: Fn(&'a [T]) -> U + Sync,
        ID: Fn() -> U + Sync,
        OP: Fn(U, U) -> U + Sync,
    {
        let n = self.num_chunks();
        parallel_reduce(n, |i| (self.f)(self.chunk(i)), identity, op)
    }

    pub fn collect<U, C>(self) -> C
    where
        U: Send,
        F: Fn(&'a [T]) -> U + Sync,
        C: FromIterator<U>,
    {
        let n = self.num_chunks();
        parallel_collect(n, |i| (self.f)(self.chunk(i)))
            .into_iter()
            .collect()
    }
}

pub struct ParIter<'a, T> {
    data: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<U, F>(self, f: F) -> ParIterMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParIterMap { data: self.data, f }
    }
}

pub struct ParIterMap<'a, T, F> {
    data: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParIterMap<'a, T, F> {
    pub fn collect<U, C>(self) -> C
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
        C: FromIterator<U>,
    {
        parallel_collect(self.data.len(), |i| (self.f)(&self.data[i]))
            .into_iter()
            .collect()
    }

    pub fn reduce<U, ID, OP>(self, identity: ID, op: OP) -> U
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
        ID: Fn() -> U + Sync,
        OP: Fn(U, U) -> U + Sync,
    {
        parallel_reduce(self.data.len(), |i| (self.f)(&self.data[i]), identity, op)
    }
}

pub mod prelude {
    pub use crate::ParallelSlice;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_reduce_sums_like_serial() {
        let data: Vec<u64> = (0..10_000).collect();
        let serial: u64 = data.iter().sum();
        let parallel = data
            .par_chunks(97)
            .map(|c| c.iter().sum::<u64>())
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_iter_collect_preserves_order() {
        let data: Vec<u32> = (0..5000).collect();
        let doubled: Vec<u32> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled.len(), 5000);
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, 2 * i as u32);
        }
    }

    #[test]
    fn vectorwise_merge_reduce() {
        // The aggregation-counter shape: element-wise u64 vector sums.
        let reports: Vec<usize> = (0..1000).map(|i| i % 7).collect();
        let hist = reports
            .par_chunks(64)
            .map(|chunk| {
                let mut h = vec![0u64; 7];
                for &r in chunk {
                    h[r] += 1;
                }
                h
            })
            .reduce(
                || vec![0u64; 7],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            );
        assert_eq!(hist.iter().sum::<u64>(), 1000);
        assert_eq!(hist[0], 143);
    }

    #[test]
    fn empty_input_yields_identity() {
        let data: Vec<u64> = Vec::new();
        let r = data
            .par_chunks(8)
            .map(|c| c.len() as u64)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(r, 0);
        let v: Vec<u64> = data.par_iter().map(|&x| x).collect();
        assert!(v.is_empty());
    }
}
