//! Offline stand-in for the `crossbeam` API subset this workspace uses:
//! `crossbeam::thread::scope` (on top of `std::thread::scope`) and
//! bounded MPMC `crossbeam::channel`s (on a `Mutex<VecDeque>` + two
//! condvars — far less clever than crossbeam's lock-free ring, but with
//! identical blocking/disconnection semantics for the capacities the
//! ingestion service runs at).
//!
//! Semantics difference in `thread::scope`: if a spawned thread panics,
//! `std::thread::scope` resumes the panic on the owning thread rather
//! than returning `Err` — every caller in this workspace immediately
//! `.expect()`s the result, so the observable behavior (a panic with the
//! worker's payload) is the same.

pub mod channel {
    //! Bounded multi-producer multi-consumer channels with blocking
    //! `send`/`recv`, non-blocking `try_*` variants, and timeouts —
    //! mirroring the `crossbeam-channel` API surface the service uses
    //! for its accept → worker hand-off (the bounded queue is the
    //! backpressure mechanism: a full queue refuses new connections).

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        cap: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Creates a bounded channel holding at most `cap` in-flight items.
    /// Zero-capacity rendezvous channels are not supported (nothing in
    /// this workspace uses them).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "zero-capacity channels are not supported");
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// The sending half; clonable for multiple producers.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half; clonable for multiple consumers.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// `send` on a channel with no receivers left; carries the item back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why `try_send` failed.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The queue is at capacity — the caller should shed load.
        Full(T),
        /// No receivers remain.
        Disconnected(T),
    }

    /// Why `send_timeout` failed.
    #[derive(Debug, PartialEq, Eq)]
    pub enum SendTimeoutError<T> {
        /// The queue stayed at capacity for the whole timeout.
        Timeout(T),
        /// No receivers remain.
        Disconnected(T),
    }

    /// `recv` on a channel that is empty with no senders left.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why `try_recv` failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue momentarily empty (senders still connected).
        Empty,
        /// Empty and no senders remain.
        Disconnected,
    }

    /// Why `recv_timeout` failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No item arrived within the timeout.
        Timeout,
        /// Empty and no senders remain.
        Disconnected,
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }
    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                // Wake every blocked receiver so it can observe the
                // disconnection.
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocks until there is room (backpressure) or every receiver is
        /// gone.
        pub fn send(&self, item: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(item));
                }
                if st.queue.len() < self.0.cap {
                    st.queue.push_back(item);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                st = self.0.not_full.wait(st).unwrap();
            }
        }

        /// Like `send`, bounded by `timeout`: blocks on the `not_full`
        /// condvar (no spinning) until there is room, the deadline
        /// passes, or every receiver is gone.
        pub fn send_timeout(&self, item: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(item));
                }
                if st.queue.len() < self.0.cap {
                    st.queue.push_back(item);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(SendTimeoutError::Timeout(item));
                }
                let (guard, _timed_out) = self.0.not_full.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        }

        /// Non-blocking send: fails fast on a full queue, which is the
        /// accept-loop's signal to shed the connection.
        pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
            let mut st = self.0.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(item));
            }
            if st.queue.len() >= self.0.cap {
                return Err(TrySendError::Full(item));
            }
            st.queue.push_back(item);
            self.0.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until an item arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().unwrap();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(item);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.not_empty.wait(st).unwrap();
            }
        }

        /// Like `recv`, bounded by `timeout` — the worker loop's poll
        /// interval for shutdown flags.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.state.lock().unwrap();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(item);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) =
                    self.0.not_empty.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.state.lock().unwrap();
            if let Some(item) = st.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(item);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Items currently queued (snapshot; racy by nature).
        pub fn len(&self) -> usize {
            self.0.state.lock().unwrap().queue.len()
        }

        /// Whether the queue is momentarily empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

pub mod thread {
    /// Mirror of `crossbeam::thread::Scope`; wraps the std scope so spawned
    /// closures can themselves spawn.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; the closure receives the scope (as in
        /// crossbeam), enabling nested spawns.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let child = Scope { inner: self.inner };
            self.inner.spawn(move || f(&child))
        }
    }

    /// Runs `f` with a scope in which borrowed-data threads can be spawned;
    /// all threads are joined before returning.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvTimeoutError, SendTimeoutError, TrySendError};
    use std::time::{Duration, Instant};

    #[test]
    fn bounded_channel_passes_items_across_threads() {
        let (tx, rx) = bounded::<u32>(4);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        producer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        // All senders gone + drained queue → disconnected.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn try_send_reports_backpressure() {
        let (tx, rx) = bounded::<u8>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.try_recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        drop(rx);
        assert!(matches!(tx.try_send(9), Err(TrySendError::Disconnected(9))));
    }

    #[test]
    fn send_timeout_waits_for_room_then_times_out() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send_timeout(1, Duration::from_millis(20)).unwrap();
        // Full, nobody receiving: the item comes back after the wait.
        let t0 = Instant::now();
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(30)),
            Err(SendTimeoutError::Timeout(2))
        );
        assert!(t0.elapsed() >= Duration::from_millis(30));
        // A receiver making room wakes the blocked sender: the channel
        // hand-off (not a sleep) orders the two sides.
        let consumer = std::thread::spawn(move || {
            let first = rx.recv().unwrap();
            let second = rx.recv().unwrap();
            (first, second, rx)
        });
        tx.send_timeout(3, Duration::from_secs(10)).unwrap();
        let (first, second, rx) = consumer.join().unwrap();
        assert_eq!((first, second), (1, 3));
        drop(rx);
        assert_eq!(
            tx.send_timeout(4, Duration::from_secs(10)),
            Err(SendTimeoutError::Disconnected(4))
        );
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded::<&'static str>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send("late").unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Ok("late"));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn multi_consumer_workers_share_one_queue() {
        let (tx, rx) = bounded::<usize>(8);
        let counters: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut n = 0usize;
                    while rx.recv().is_ok() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        drop(rx);
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = counters.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn scoped_threads_fill_borrowed_slots() {
        let mut results: Vec<Option<usize>> = vec![None; 8];
        super::thread::scope(|scope| {
            for (i, chunk) in results.chunks_mut(3).enumerate() {
                scope.spawn(move |_| {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(i * 3 + j);
                    }
                });
            }
        })
        .expect("workers joined");
        let filled: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(filled, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_spawn_via_passed_scope() {
        let total = std::sync::atomic::AtomicUsize::new(0);
        super::thread::scope(|scope| {
            scope.spawn(|inner| {
                inner.spawn(|_| {
                    total.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
                total.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        })
        .unwrap();
        assert_eq!(total.load(std::sync::atomic::Ordering::SeqCst), 2);
    }
}
