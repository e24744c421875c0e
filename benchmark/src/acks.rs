//! Ack accounting. The servers answer with *cumulative* durable counts,
//! so a send group's latency is the time from when it was sent (closed
//! loop) or due (open loop) to the first ack whose count covers the
//! group's last report. Throughput is read off the same ack log.

/// One send group: when its clock started and the cumulative number of
/// reports the connection had sent once the group was out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    pub t_ns: u64,
    pub cum_end: u64,
}

/// One observed ack: when it was read and the cumulative count it
/// carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub t_ns: u64,
    pub cum: u64,
}

/// Latency of every covered group, ns, in send order, plus how many
/// trailing groups no ack ever covered. Both logs are in time order
/// and both counts are monotone, so one forward pass attributes all.
pub fn attribute(groups: &[Group], acks: &[Ack]) -> (Vec<u64>, usize) {
    let mut latencies = Vec::with_capacity(groups.len());
    let mut a = 0;
    for g in groups {
        while a < acks.len() && acks[a].cum < g.cum_end {
            a += 1;
        }
        match acks.get(a) {
            // An ack can be read a hair before a late group's *due*
            // time is reached only if the group was sent early, which
            // the open-loop sender never does; saturate regardless.
            Some(ack) => latencies.push(ack.t_ns.saturating_sub(g.t_ns)),
            None => {
                let unacked = groups.len() - latencies.len();
                return (latencies, unacked);
            }
        }
    }
    (latencies, 0)
}

/// The last ack at or before `t_ns` in one connection's log.
fn last_ack_at(acks: &[Ack], t_ns: u64) -> Option<Ack> {
    let idx = acks.partition_point(|a| a.t_ns <= t_ns);
    idx.checked_sub(1).map(|i| acks[i])
}

/// Durably-acked reports per second over consecutive `step_ns`
/// intervals of `[from_ns, to_ns)`. Each connection's rate in an
/// interval is read between the last acks at or before the interval's
/// two edges — reports covered over the time that actually separated
/// those acks — and the connections' rates are summed. Counting at the
/// edges themselves would quantise a connection that is acked a few
/// times a second (one 20 000-report upload at a time) to whole
/// uploads per interval.
pub fn interval_rates(logs: &[&[Ack]], from_ns: u64, to_ns: u64, step_ns: u64) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut t = from_ns;
    while t + step_ns <= to_ns {
        let rate: f64 = logs
            .iter()
            .map(|log| {
                let origin = Ack { t_ns: 0, cum: 0 };
                let a = last_ack_at(log, t).unwrap_or(origin);
                let b = last_ack_at(log, t + step_ns).unwrap_or(origin);
                if b.t_ns > a.t_ns {
                    (b.cum - a.cum) as f64 * 1e9 / (b.t_ns - a.t_ns) as f64
                } else {
                    0.0
                }
            })
            .sum();
        rates.push(rate);
        t += step_ns;
    }
    rates
}

/// Reassembles 8-byte little-endian cumulative acks from however the
/// socket fragments them.
#[derive(Debug, Default)]
pub struct AckParser {
    partial: [u8; 8],
    have: usize,
}

impl AckParser {
    /// Feeds socket bytes; returns the last complete ack in them.
    pub fn feed(&mut self, bytes: &[u8]) -> Option<u64> {
        let mut last = None;
        for &b in bytes {
            self.partial[self.have] = b;
            self.have += 1;
            if self.have == 8 {
                self.have = 0;
                last = Some(u64::from_le_bytes(self.partial));
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(t_ns: u64, cum_end: u64) -> Group {
        Group { t_ns, cum_end }
    }
    fn a(t_ns: u64, cum: u64) -> Ack {
        Ack { t_ns, cum }
    }

    #[test]
    fn a_cumulative_ack_settles_every_group_it_covers() {
        let groups = [g(0, 100), g(10, 200), g(20, 300), g(30, 400)];
        // One ack covers the first two groups; the third group is only
        // partly covered by the ack at 250 and waits for the next.
        let acks = [a(50, 200), a(60, 250), a(90, 400)];
        let (lat, unacked) = attribute(&groups, &acks);
        assert_eq!(lat, vec![50, 40, 70, 60]);
        assert_eq!(unacked, 0);
    }

    #[test]
    fn groups_beyond_the_last_ack_are_counted_not_timed() {
        let groups = [g(0, 10), g(5, 20), g(9, 30)];
        let (lat, unacked) = attribute(&groups, &[a(7, 10)]);
        assert_eq!((lat, unacked), (vec![7], 2));
        let (lat, unacked) = attribute(&groups, &[]);
        assert_eq!((lat.len(), unacked), (0, 3));
    }

    #[test]
    fn an_upload_acked_once_at_eof_times_all_its_groups_to_that_ack() {
        let groups = [g(100, 1_000), g(200, 2_000), g(300, 3_000)];
        let (lat, unacked) = attribute(&groups, &[a(1_000, 3_000)]);
        assert_eq!((lat, unacked), (vec![900, 800, 700], 0));
    }

    #[test]
    fn rates_are_read_between_the_acks_nearest_the_interval_edges() {
        // 10 reports per 100 ns, acked every 100 ns, slightly off the
        // 1 000 ns grid: the rate is exact whatever the phase.
        let steady: Vec<Ack> = (1..=40).map(|i| a(i * 100 + 30, i * 10)).collect();
        let rates = interval_rates(&[&steady], 1_000, 4_000, 1_000);
        assert_eq!(rates.len(), 3);
        for r in &rates {
            assert!((r - 1e8).abs() < 1e-3, "{r}");
        }
        // A connection acked once per 700 ns (whole uploads of 70):
        // edge counting would see 1 or 2 uploads per interval; between
        // acks the rate is the same 1e8 in every interval.
        let uploads: Vec<Ack> = (1..=10).map(|i| a(i * 700, i * 70)).collect();
        for r in interval_rates(&[&uploads], 1_000, 6_000, 1_000) {
            assert!((r - 1e8).abs() < 1e-3, "{r}");
        }
        // Connections add; one that never acked in the interval adds 0.
        let idle = [a(50, 5)];
        let both = interval_rates(&[&steady, &idle], 1_000, 2_000, 1_000);
        assert!((both[0] - 1e8).abs() < 1e-3);
        assert!(interval_rates(&[&steady], 0, 900, 1_000).is_empty());
    }

    #[test]
    fn acks_reassemble_across_fragmented_reads() {
        let mut p = AckParser::default();
        let mut wire = Vec::new();
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(p.feed(&wire[..5]), None);
        assert_eq!(p.feed(&wire[5..12]), Some(7));
        assert_eq!(p.feed(&wire[12..]), Some(9));
        assert_eq!(p.feed(&wire), Some(9));
    }
}
