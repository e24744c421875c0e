//! The load generator's connection drivers. Each runs on its own
//! thread with an ack reader blocked on `read` beside it, sends only
//! pre-encoded frames from a [`Wire`], and logs what the latency and
//! throughput accounting in [`crate::acks`] needs.

use crate::acks::{Ack, AckParser, Group};
use crate::gen::{stamp_frame, Wire};
use crate::sched::OpenLoop;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Bytes one closed-loop send group carries at most: one `write` per
/// group, and about half of one server read round.
pub const GROUP_BYTES: usize = 128 * 1024;
/// Wire bytes a closed-loop connection keeps un-acked at most.
pub const WINDOW_BYTES: usize = 2 * 1024 * 1024;

/// Entries the ack and group logs reserve up front. Reserved address
/// space costs no memory until written, and a log that never
/// reallocates keeps `peak_rss_mb` free of doubling steps.
const LOG_CAPACITY: usize = 1 << 21;

/// The run's monotonic clock; every logged time is ns since its start.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Everything one connection (or one upload slot) did.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub groups: Vec<Group>,
    pub acks: Vec<Ack>,
    pub sent_reports: u64,
    pub sent_bytes: u64,
    /// Final durable count the server certified.
    pub acked_reports: u64,
    pub connects: u64,
    /// Connections refused, dropped, or acked short.
    pub failures: u64,
    pub connect_us: Vec<f64>,
    /// Half-close to final ack, ms.
    pub eof_ack_ms: Vec<f64>,
    /// Open loop only: how late each group started, ns.
    pub lateness_ns: Vec<u64>,
}

fn connect(addr: SocketAddr, log: &mut ConnLog) -> std::io::Result<TcpStream> {
    if log.groups.capacity() == 0 {
        log.groups.reserve(LOG_CAPACITY);
    }
    let t0 = Instant::now();
    log.connects += 1;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    log.connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
    Ok(stream)
}

/// Reads cumulative acks to EOF, publishing the newest count in `acked`
/// and unparking `sender` (which may be parked on a full window) on
/// each.
fn read_acks(
    mut stream: TcpStream,
    clock: Clock,
    acked: &AtomicU64,
    done: &AtomicBool,
    sender: Thread,
) -> Vec<Ack> {
    let mut parser = AckParser::default();
    let mut log = Vec::with_capacity(LOG_CAPACITY);
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if let Some(cum) = parser.feed(&buf[..n]) {
                    log.push(Ack {
                        t_ns: clock.now_ns(),
                        cum,
                    });
                    acked.store(cum, Ordering::Release);
                    sender.unpark();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    done.store(true, Ordering::Release);
    sender.unpark();
    log
}

fn group_slice(wire: &Wire, (first, last): (usize, usize)) -> (&[u8], u64) {
    let bytes = &wire.bytes[wire.frames[first].start..wire.frames[last - 1].end];
    let before = if first == 0 {
        0
    } else {
        wire.frames[first - 1].cum_reports
    };
    (bytes, wire.frames[last - 1].cum_reports - before)
}

/// When a closed-loop driver stops starting new work: at a time (the
/// measured phases) or once a report count is out (the fixed-work
/// phases), whichever the caller sets.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub at_ns: u64,
    pub after_reports: u64,
}

impl Stop {
    pub fn at(at_ns: u64) -> Self {
        Stop {
            at_ns,
            after_reports: u64::MAX,
        }
    }

    pub fn after(reports: u64) -> Self {
        Stop {
            at_ns: u64::MAX,
            after_reports: reports,
        }
    }

    fn reached(&self, clock: Clock, sent: u64) -> bool {
        sent >= self.after_reports || clock.now_ns() >= self.at_ns
    }
}

/// One long-lived connection with its ack reader beside it: connects,
/// lets `send` write (and log its groups, sent reports and bytes),
/// half-closes, reads acks to EOF and settles the log. `acked` carries
/// the newest cumulative ack while `send` runs; the flag it is handed
/// turns true if the server closes early.
pub fn with_connection(
    addr: SocketAddr,
    clock: Clock,
    acked: &AtomicU64,
    send: impl FnOnce(&mut TcpStream, &mut ConnLog, &AtomicBool),
) -> ConnLog {
    let mut log = ConnLog::default();
    let Ok((mut stream, reader_stream)) =
        connect(addr, &mut log).and_then(|s| Ok((s.try_clone()?, s)))
    else {
        log.failures += 1;
        return log;
    };
    let done = AtomicBool::new(false);
    let me = std::thread::current();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_acks(reader_stream, clock, acked, &done, me));
        send(&mut stream, &mut log, &done);
        let t_eof = clock.now_ns();
        let _ = stream.shutdown(Shutdown::Write);
        log.acks = reader.join().expect("ack reader panicked");
        if let Some(last) = log.acks.last() {
            log.acked_reports = last.cum;
            log.eof_ack_ms
                .push(last.t_ns.saturating_sub(t_eof) as f64 / 1e6);
        }
    });
    if log.acked_reports != log.sent_reports {
        log.failures += 1;
    }
    log
}

/// Runs `conn` once per wire, each on its own thread, and returns the
/// logs in wire order.
pub fn drive(wires: &[Wire], conn: impl Fn(usize, &Wire) -> ConnLog + Sync) -> Vec<ConnLog> {
    std::thread::scope(|scope| {
        let conn = &conn;
        let threads: Vec<_> = wires
            .iter()
            .enumerate()
            .map(|(i, wire)| scope.spawn(move || conn(i, wire)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread panicked"))
            .collect()
    })
}

/// `(sent, acked)` reports over a set of connections.
pub fn totals(logs: &[ConnLog]) -> (u64, u64) {
    (
        logs.iter().map(|l| l.sent_reports).sum(),
        logs.iter().map(|l| l.acked_reports).sum(),
    )
}

/// Closed loop over one long-lived connection: cycle the wire in send
/// groups, never keeping more than [`WINDOW_BYTES`] of it un-acked,
/// until `stop`; then half-close and wait for the final ack.
pub fn stream_closed(addr: SocketAddr, wire: &Wire, clock: Clock, stop: Stop) -> ConnLog {
    let groups = wire.groups(GROUP_BYTES);
    let bytes_per_report = (wire.bytes.len() as u64 / wire.reports().max(1)).max(1);
    let window_reports = WINDOW_BYTES as u64 / bytes_per_report;
    let acked = AtomicU64::new(0);
    with_connection(addr, clock, &acked, |stream, log, done| {
        let mut next = 0;
        while !stop.reached(clock, log.sent_reports) {
            while log.sent_reports - acked.load(Ordering::Acquire) >= window_reports {
                if done.load(Ordering::Acquire) {
                    // The server closed on us mid-stream.
                    log.failures += 1;
                    return;
                }
                std::thread::park_timeout(Duration::from_millis(2));
            }
            let (bytes, reports) = group_slice(wire, groups[next]);
            let t_ns = clock.now_ns();
            if stream.write_all(bytes).is_err() {
                log.failures += 1;
                return;
            }
            log.sent_reports += reports;
            log.sent_bytes += bytes.len() as u64;
            log.groups.push(Group {
                t_ns,
                cum_end: log.sent_reports,
            });
            next = (next + 1) % groups.len();
        }
    })
}

/// Size of a connection's `k`-th upload: `mean` ± 25 %, fixed by the
/// wire (so by the seed). Devices do not upload in lockstep, and equal
/// sizes would let upload duration phase-lock with the server's 2 ms
/// accept poll, which makes a run's rate depend on where it locked.
fn upload_size(wire: &Wire, k: u64, mean: u64) -> u64 {
    let salt = crate::gen::mix(wire.bytes.len() as u64, k);
    mean * 3 / 4 + salt % (mean / 2).max(1)
}

/// Closed loop as a sequence of uploads: each is a new connection that
/// sends about `upload_reports` reports (whole groups), half-closes
/// and waits for the one ack that certifies it. The next upload starts
/// only then. Every group of an upload is timed to that ack.
pub fn stream_uploads(
    addr: SocketAddr,
    wire: &Wire,
    clock: Clock,
    stop: Stop,
    upload_reports: u64,
) -> ConnLog {
    let mut log = ConnLog::default();
    let groups = wire.groups(GROUP_BYTES);
    let mut next = 0;
    let mut uploads = 0;
    while !stop.reached(clock, log.sent_reports) {
        let Ok(mut stream) = connect(addr, &mut log) else {
            log.failures += 1;
            break;
        };
        let base = log.sent_reports;
        let mut ok = true;
        let size = upload_size(wire, uploads, upload_reports);
        uploads += 1;
        while log.sent_reports - base < size {
            let (bytes, reports) = group_slice(wire, groups[next]);
            let t_ns = clock.now_ns();
            if stream.write_all(bytes).is_err() {
                ok = false;
                break;
            }
            log.sent_reports += reports;
            log.sent_bytes += bytes.len() as u64;
            log.groups.push(Group {
                t_ns,
                cum_end: log.sent_reports,
            });
            next = (next + 1) % groups.len();
        }
        let t_eof = clock.now_ns();
        let _ = stream.shutdown(Shutdown::Write);
        // Mid-stream cumulative acks (the router sends them) are
        // superseded by the last one; only EOF certifies the upload.
        let mut parser = AckParser::default();
        let mut last = None;
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => last = parser.feed(&buf[..n]).or(last),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        let t_ack = clock.now_ns();
        let acked = last.unwrap_or(0);
        log.acked_reports += acked;
        log.acks.push(Ack {
            t_ns: t_ack,
            cum: base + acked,
        });
        log.eof_ack_ms.push((t_ack - t_eof) as f64 / 1e6);
        if !ok || acked != log.sent_reports - base {
            log.failures += 1;
            break;
        }
    }
    log
}

/// One open-loop send group, fixed before the run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedGroup {
    /// Index of the group's first frame (the wire is cycled, so this is
    /// already reduced modulo the frame count).
    pub first_frame: usize,
    pub frames: usize,
    /// Reports the connection has sent once this group is out.
    pub cum_end: u64,
}

/// Lays `groups` consecutive schedule slots over the cycled wire: slot
/// `g` takes whole frames until the connection has sent the schedule's
/// target for `g`. Pure, so the sender, the publisher (which needs to
/// know which ack closes a window) and the oracle all agree.
pub fn plan_open_loop(wire: &Wire, sched: OpenLoop, groups: u64) -> Vec<PlannedGroup> {
    let n = wire.frames.len();
    let (mut frame, mut cum) = (0usize, 0u64);
    (0..groups)
        .map(|g| {
            let first_frame = frame % n;
            let mut frames = 0;
            while cum < sched.target_reports(g) {
                cum += wire.frame_reports(frame % n);
                frame += 1;
                frames += 1;
            }
            PlannedGroup {
                first_frame,
                frames,
                cum_end: cum,
            }
        })
        .collect()
}

/// Open loop over one connection: group `g` is due `g` periods after
/// `start_ns`, is stamped with timestamp `t_base + g`, and is timed
/// from its due time whenever it actually leaves. `acked` is shared so
/// a publisher can watch windows close.
#[allow(clippy::too_many_arguments)]
pub fn stream_open(
    addr: SocketAddr,
    wire: &Wire,
    plan: &[PlannedGroup],
    sched: OpenLoop,
    clock: Clock,
    start_ns: u64,
    t_base: u64,
    acked: &AtomicU64,
) -> ConnLog {
    let n = wire.frames.len();
    with_connection(addr, clock, acked, |stream, log, _done| {
        let mut scratch = Vec::with_capacity(64 * 1024);
        for (g, group) in plan.iter().enumerate() {
            let g = g as u64;
            let wait = sched.wait_ns(g, clock.now_ns().saturating_sub(start_ns));
            if wait > 0 {
                std::thread::sleep(Duration::from_nanos(wait));
            }
            log.lateness_ns
                .push(sched.lateness_ns(g, clock.now_ns().saturating_sub(start_ns)));
            if group.frames == 0 {
                continue;
            }
            scratch.clear();
            for k in 0..group.frames {
                let f = wire.frames[(group.first_frame + k) % n];
                let at = scratch.len();
                scratch.extend_from_slice(&wire.bytes[f.start..f.end]);
                stamp_frame(&mut scratch[at..], t_base + g);
            }
            if stream.write_all(&scratch).is_err() {
                log.failures += 1;
                return;
            }
            log.sent_reports = group.cum_end;
            log.sent_bytes += scratch.len() as u64;
            log.groups.push(Group {
                t_ns: start_ns + sched.due_ns(g),
                cum_end: group.cum_end,
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajshare_aggregate::Report;

    fn toy(i: u32) -> Report {
        Report {
            t: 0,
            eps_prime: 1.0,
            len: 3 + (i % 2) as u16,
            unigrams: vec![(0, i % 5)],
            exact: vec![(0, i % 5)],
            transitions: vec![],
        }
    }

    #[test]
    fn open_loop_plan_follows_the_schedule_over_a_cycled_wire() {
        // Alternating keys: one report per frame, 6 frames.
        let reports: Vec<Report> = (0..6).map(toy).collect();
        let wire = Wire::encode(&reports, 256);
        assert_eq!(wire.frames.len(), 6);
        // 2.5 reports per group.
        let sched = OpenLoop::new(2_500.0, 1_000_000);
        let plan = plan_open_loop(&wire, sched, 4);
        let cums: Vec<u64> = plan.iter().map(|p| p.cum_end).collect();
        assert_eq!(cums, vec![2, 5, 7, 10]);
        let firsts: Vec<usize> = plan.iter().map(|p| p.first_frame).collect();
        assert_eq!(firsts, vec![0, 2, 5, 1], "frame index wraps with the wire");
        assert_eq!(plan.iter().map(|p| p.frames).sum::<usize>(), 10);
    }

    #[test]
    fn a_slow_schedule_plans_empty_groups() {
        let reports: Vec<Report> = (0..4).map(|_| toy(0)).collect();
        let wire = Wire::encode(&reports, 4);
        assert_eq!(wire.frames.len(), 1);
        let plan = plan_open_loop(&wire, OpenLoop::new(1_000.0, 1_000_000), 6);
        // One report due per group, four arrive per frame.
        let frames: Vec<usize> = plan.iter().map(|p| p.frames).collect();
        assert_eq!(frames, vec![1, 0, 0, 0, 1, 0]);
    }
}
