//! Deterministic load generator for the ingestion service.
//!
//! ```text
//! loadgen (--addr HOST:PORT | --connect HOST:PORT ...) --reports N --regions R
//!         [--connections C] [--batch B] [--len L] [--eps E] [--seed S]
//!         [--t-base T] [--t-step S]
//! ```
//!
//! Generates `N` synthetic reports over a universe of `R` regions
//! (deterministic in `--seed`, no dataset required), streams them over
//! `C` parallel connections, and prints a JSON summary with achieved
//! reports/s. Exits non-zero if any report went un-acked — which makes
//! it a durability assertion, not just a traffic source.
//!
//! `--batch B` packs up to `B` reports per `TSR4` batch frame (default 1
//! = classic single-report frames). Either way each connection
//! pre-encodes its whole slice once before the first byte hits the
//! socket, so the measured rate is the wire + server path, not client
//! serialization.
//!
//! `--connect` is repeatable: connections are assigned round-robin
//! across every given target, which drives N `ingestd` workers directly
//! with no router in front. `--addr` is a synonym for a single
//! `--connect`.
//!
//! Report `i` carries timestamp `t-base + i · t-step` (both default 0),
//! so a streaming server's window ring can be driven deterministically:
//! `--t-base 60` with a 60-unit window puts the whole batch in window 1.
//!
//! `--follow-grants` switches to the closed-loop mode: one grant-session
//! connection subscribes to the server's `TSGB` announcements, waits for
//! each window's ε′ grant, and only then generates + streams that
//! window's slice of reports *randomized at exactly the granted ε′* —
//! so the server's accountant debits precisely what it allocated and
//! budget refusals stay at zero by construction. Requires
//! `--window-len` (the server's window length, to map granted window →
//! report timestamps); `--grant-windows K` picks how many consecutive
//! grants to fill (default 3) and `--grant-wait S` the per-grant
//! timeout. Works against a grant-running `ingestd` or `routerd`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use trajshare_aggregate::{nano_to_eps, Report};
use trajshare_service::{encode_wire, encode_wire_multi, stream_wires, GrantClient};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen (--addr HOST:PORT | --connect HOST:PORT ...) --reports N --regions R \
         [--connections C] [--batch B] [--len L] [--eps E] [--seed S] [--t-base T] [--t-step S] \
         [--follow-grants --window-len W [--grant-windows K] [--grant-wait S]]"
    );
    std::process::exit(2)
}

/// Splitmix-style index mix, matching the repo's deterministic seeding
/// idiom.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn toy_report(i: u64, regions: u32, len: u16, eps: f64, seed: u64, t: u64) -> Report {
    let pick = |j: u64| (mix(seed, i.wrapping_mul(131).wrapping_add(j)) % regions as u64) as u32;
    let path: Vec<u32> = (0..len as u64).map(pick).collect();
    let unigrams: Vec<(u16, u32)> = path
        .iter()
        .enumerate()
        .map(|(p, &r)| (p as u16, r))
        .collect();
    Report {
        t,
        eps_prime: eps,
        len,
        unigrams: unigrams.clone(),
        exact: unigrams,
        transitions: path.windows(2).map(|w| (w[0], w[1])).collect(),
    }
}

fn main() {
    let mut targets: Vec<SocketAddr> = Vec::new();
    let mut reports: Option<usize> = None;
    let mut regions: Option<u32> = None;
    let mut connections = 4usize;
    let mut batch = 1usize;
    let mut len = 3u16;
    let mut eps = 1.0f64;
    let mut seed = 7u64;
    let mut t_base = 0u64;
    let mut t_step = 0u64;
    let mut follow_grants = false;
    let mut window_len: Option<u64> = None;
    let mut grant_windows = 3usize;
    let mut grant_wait = 30u64;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--follow-grants" {
            follow_grants = true;
            continue;
        }
        let Some(v) = args.next() else { usage() };
        match flag.as_str() {
            "--addr" | "--connect" => targets.push(v.parse().unwrap_or_else(|_| usage())),
            "--reports" => reports = v.parse().ok(),
            "--regions" => regions = v.parse().ok(),
            "--connections" => connections = v.parse().unwrap_or_else(|_| usage()),
            "--batch" => batch = v.parse().unwrap_or_else(|_| usage()),
            "--len" => len = v.parse().unwrap_or_else(|_| usage()),
            "--eps" => eps = v.parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = v.parse().unwrap_or_else(|_| usage()),
            "--t-base" => t_base = v.parse().unwrap_or_else(|_| usage()),
            "--t-step" => t_step = v.parse().unwrap_or_else(|_| usage()),
            "--window-len" => window_len = v.parse().ok(),
            "--grant-windows" => grant_windows = v.parse().unwrap_or_else(|_| usage()),
            "--grant-wait" => grant_wait = v.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let (Some(n), Some(regions)) = (reports, regions) else {
        usage()
    };
    if targets.is_empty() || regions == 0 || len == 0 {
        usage()
    }

    if follow_grants {
        let Some(window_len) = window_len.filter(|&w| w > 0) else {
            eprintln!("loadgen: --follow-grants requires --window-len > 0");
            usage()
        };
        run_follow_grants(
            targets[0],
            n,
            regions,
            len,
            seed,
            batch.max(1),
            window_len,
            grant_windows.max(1),
            Duration::from_secs(grant_wait),
        );
        return;
    }

    let stream: Vec<Report> = (0..n as u64)
        .map(|i| {
            toy_report(
                i,
                regions,
                len,
                eps,
                seed,
                t_base.saturating_add(i.saturating_mul(t_step)),
            )
        })
        .collect();
    let t_enc = Instant::now();
    let wires = encode_wire_multi(&targets, &stream, connections.max(1), batch);
    let encode_s = t_enc.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let acked = stream_wires(&wires).expect("streaming failed");
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{{\"sent\": {n}, \"acked\": {acked}, \"encode_s\": {encode_s:.3}, \"secs\": {secs:.3}, \
         \"reports_per_s\": {:.0}}}",
        acked as f64 / secs.max(1e-9)
    );
    if acked != n as u64 {
        eprintln!("loadgen: {} of {n} reports un-acked", n as u64 - acked);
        std::process::exit(1);
    }
}

/// The closed-loop driver: subscribe, then for each of `grant_windows`
/// consecutive windows wait for the allocator's ε′ grant and stream that
/// window's slice of reports randomized at exactly the granted ε′.
#[allow(clippy::too_many_arguments)]
fn run_follow_grants(
    addr: SocketAddr,
    n: usize,
    regions: u32,
    len: u16,
    seed: u64,
    batch: usize,
    window_len: u64,
    grant_windows: usize,
    wait: Duration,
) {
    let mut client = GrantClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("loadgen: connect {addr}: {e}");
        std::process::exit(1);
    });
    let t0 = Instant::now();
    let mut sent = 0u64;
    let mut min_window = 0u64;
    let mut filled: Vec<(u64, f64)> = Vec::new();
    for k in 0..grant_windows {
        let grant = match client.wait_grant(min_window, wait) {
            Ok(Some(g)) => g,
            Ok(None) => {
                eprintln!("loadgen: timed out waiting for a grant covering window >= {min_window}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("loadgen: grant session failed: {e}");
                std::process::exit(1);
            }
        };
        let g_eps = nano_to_eps(grant.granted_nano);
        let count = n / grant_windows + usize::from(k < n % grant_windows);
        let slice: Vec<Report> = (0..count as u64)
            .map(|i| {
                let idx = sent + i;
                // Spread timestamps across the granted window so the
                // whole slice lands in (and only in) that window.
                let t = grant.window * window_len + idx % window_len;
                toy_report(idx, regions, len, g_eps, seed, t)
            })
            .collect();
        if let Err(e) = client.send(&encode_wire(&slice, batch)) {
            eprintln!("loadgen: send failed: {e}");
            std::process::exit(1);
        }
        sent += count as u64;
        filled.push((grant.window, g_eps));
        min_window = grant.window + 1;
    }
    let (acked, grants) = client.finish().unwrap_or_else(|e| {
        eprintln!("loadgen: finish failed: {e}");
        std::process::exit(1);
    });
    let secs = t0.elapsed().as_secs_f64();
    let windows_json: Vec<String> = filled
        .iter()
        .map(|(w, e)| format!("{{\"window\": {w}, \"eps\": {e:.6}}}"))
        .collect();
    println!(
        "{{\"sent\": {sent}, \"acked\": {acked}, \"secs\": {secs:.3}, \
         \"reports_per_s\": {:.0}, \"grants_seen\": {}, \"windows\": [{}]}}",
        acked as f64 / secs.max(1e-9),
        grants.len(),
        windows_json.join(", ")
    );
    if acked != sent {
        eprintln!("loadgen: {} of {sent} reports un-acked", sent - acked);
        std::process::exit(1);
    }
}
