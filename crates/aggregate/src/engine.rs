//! The publication engine: the streaming publication pass, once.
//!
//! A single `ingestd` over its own merged shard rings and the cluster
//! coordinator over pulled worker snapshots run the same per-tick pass,
//! [`PublicationEngine::publish`]:
//!
//! 1. **decide** — allocate every newly seen window, settle each live
//!    window's worst-case per-report ε′ against its grant, keep the
//!    accept/refuse books, and pre-grant the next window for the grant
//!    session;
//! 2. **persist** — rewrite the `TSBA` ledger blob atomically whenever its
//!    bytes changed;
//! 3. **grant** — hand out the standing grant, only once the decision
//!    behind it is durable (persist-before-broadcast: a grant a client
//!    ever saw survives any restart, which then re-announces it instead of
//!    re-deciding it);
//! 4. **record** — build the one [`Publication`] both callers print and
//!    serve.
//!
//! The two callers differ only in the *watermark* they pass
//! ([`WindowedAggregator::newest_window`] on a node, the min-worker
//! watermark on a coordinator): a single node is a cluster of one.
//! Without a budget the engine still numbers, records and filters
//! publications; it just decides nothing.
//!
//! **Ledger contract.** A stored ledger written under a different
//! [`WindowBudgetConfig`] is replaced only when a ring can reseed the
//! spent budget: a node reseeds the new ledger from its restored ring's
//! spend annotations, while a coordinator, which holds no ring at
//! startup, refuses to start — restoring nothing would re-grant spent
//! budget.
//!
//! The engine never estimates: callers own their
//! [`crate::StreamingEstimator`] and tick it over
//! [`PublicationEngine::published_counts`] — the one filter estimation
//! reads — *outside* whatever lock guards the engine, so an IBU solve
//! never stalls a pass (the small ledger write may).

use crate::budget::{window_divergence, WindowBudgetAccountant, WindowBudgetConfig};
use crate::grant::GrantFrame;
use crate::ingest::AggregateCounts;
use crate::stream::WindowedAggregator;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trajshare_core::blob::write_blob_atomic;
use trajshare_core::RegionGraph;

/// The budget slice of a publication: what the ledger looks like right
/// after a decision pass.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetPublication {
    /// Configured ε over the horizon, nano-ε.
    pub total_nano: u64,
    /// The `w` of the `w`-window contract.
    pub horizon: usize,
    /// Σ recorded spend over the trailing horizon, nano-ε.
    pub sliding_spent_nano: u64,
    /// Grant of the newest decided window, nano-ε.
    pub newest_granted_nano: u64,
    /// Settled spend of the newest decided window, nano-ε.
    pub newest_spent_nano: u64,
    /// Whether the newest decided window is currently refused.
    pub newest_refused: bool,
    /// Lifetime refused-window count.
    pub refused_windows: u64,
    /// Lifetime granted-but-unspent nano-ε (recycled into later
    /// horizons).
    pub recycled_nano: u64,
}

/// One publication: what a node's maintenance thread stores and a
/// coordinator's tick returns.
#[derive(Debug, Clone, Default)]
pub struct Publication {
    /// Publication sequence number (1-based, monotonic).
    pub seq: u64,
    /// The watermark the pass decided below: the ring's newest window on
    /// a node, the min-worker watermark on a coordinator (0 until every
    /// contacted worker ships a ring).
    pub watermark: u64,
    /// Oldest window id still live.
    pub oldest_window: u64,
    /// `(window id, reports)` for every live window, ascending.
    pub windows: Vec<(u64, u64)>,
    /// Reports in the merged ring (every live window).
    pub merged_reports: u64,
    /// Reports dropped as older than the ring span.
    pub late_reports: u64,
    /// The ledger after this pass (`None` without a budget).
    pub budget: Option<BudgetPublication>,
    /// Live windows excluded from publication, ascending (empty without
    /// a budget).
    pub refused_windows: Vec<u64>,
    /// The standing grant for the next window — freshly allocated this
    /// pass or the latest decision re-announced. Present only when the
    /// grant session is on and the ledger behind it is durable, so
    /// relaying it is always safe.
    pub grant: Option<GrantFrame>,
}

/// What one [`PublicationEngine::publish`] pass did.
#[derive(Debug)]
pub struct Pass {
    /// The record of this pass.
    pub publication: Publication,
    /// `(window, settled spend)` for every in-horizon window settled
    /// this pass — what a node mirrors onto its rings so the books
    /// survive with the shard snapshots.
    pub settled: Vec<(u64, u64)>,
    /// Allocations made this pass (newly seen windows plus a fresh
    /// pre-grant).
    pub new_decisions: u64,
    /// Windows that entered the refused set this pass.
    pub new_refusals: u64,
    /// The ledger write, when the ledger moved. On an error the
    /// publication carries no grant; the next pass retries the write.
    pub persisted: std::io::Result<()>,
}

/// Reads a persisted `TSBA` ledger: `None` when the file does not exist,
/// an error when it cannot be read or fails to decode — restoring a
/// guessed ledger could over-grant past the `w`-window invariant.
pub fn read_ledger(path: &Path) -> std::io::Result<Option<WindowBudgetAccountant>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    WindowBudgetAccountant::decode(&bytes)
        .map(Some)
        .map_err(|e| std::io::Error::other(format!("ledger {}: {e}", path.display())))
}

/// The publication pass plus its state: the publication counter and,
/// when a budget runs, the ledger and its books.
#[derive(Debug, Clone, Default)]
pub struct PublicationEngine {
    seq: u64,
    /// `None` runs without a budget: every window at or below the
    /// watermark publishes.
    books: Option<Books>,
}

/// The ledger, where it persists, and the books publication filters by.
#[derive(Debug, Clone)]
struct Books {
    accountant: WindowBudgetAccountant,
    /// Where the pass persists the ledger (`None`: in memory only).
    path: Option<PathBuf>,
    /// The ledger bytes last read or written at `path`, to skip no-op
    /// rewrites.
    persisted: Vec<u8>,
    /// Region universe for the debiased divergence signal (`None` =
    /// significance-tested raw occupancy).
    graph: Option<Arc<RegionGraph>>,
    /// Whether each pass pre-grants the next window.
    grants: bool,
    /// Live windows whose spend is on the ledger's books — the only
    /// windows a published estimate may use. A window in neither set is
    /// not yet decided; its spend is unaccounted and it stays
    /// unpublished.
    accepted: BTreeSet<u64>,
    /// Live windows explicitly refused (over-grant or unaccountable).
    refused: BTreeSet<u64>,
    /// Last settled spend per live window, kept after the ledger's
    /// horizon trims the entry: the books late reports into an
    /// expired-but-live window are held against.
    settled: BTreeMap<u64, u64>,
}

impl PublicationEngine {
    /// A budgeted engine whose ledger lives at `ledger` (`None` keeps it
    /// in memory). A stored ledger written under `config` is restored;
    /// one written under a different contract is replaced by a fresh
    /// ledger seeded from `ring_spends` — the restored ring's
    /// [`WindowedAggregator::window_spends`] — so already-published spend
    /// keeps constraining the new horizon. Without a ring
    /// (`ring_spends: None`) nothing can reseed it, and the changed
    /// contract is an error. The accept/refuse books come back from the
    /// ledger's grant history, which outlives the horizon: a window
    /// still live in a ring deeper than `w` keeps its earned status, and
    /// the first [`PublicationEngine::publish`] re-checks it against the
    /// data.
    pub fn budgeted(
        config: WindowBudgetConfig,
        graph: Option<Arc<RegionGraph>>,
        grants: bool,
        ledger: Option<PathBuf>,
        ring_spends: Option<&[(u64, u64)]>,
    ) -> std::io::Result<Self> {
        let stored = ledger.as_deref().map(read_ledger).transpose()?.flatten();
        let persisted = stored.as_ref().map_or_else(Vec::new, |acct| acct.encode());
        let accountant = match (stored, ring_spends) {
            (Some(acct), _) if acct.config() == config => acct,
            (Some(_), None) => {
                return Err(std::io::Error::other(
                    "the stored ledger was written under a different budget \
                     contract, and no ring can reseed its spends",
                ))
            }
            (_, spends) => {
                let mut acct = WindowBudgetAccountant::new(config);
                for &(id, spent) in spends.unwrap_or_default() {
                    acct.restore_spend(id, spent);
                }
                acct
            }
        };
        let mut settled: BTreeMap<u64, u64> =
            ring_spends.unwrap_or_default().iter().copied().collect();
        let (mut accepted, mut refused) = (BTreeSet::new(), BTreeSet::new());
        for r in accountant.grant_history() {
            settled.insert(r.window, r.settled_nano);
            if r.refused {
                refused.insert(r.window);
            } else {
                accepted.insert(r.window);
            }
        }
        Ok(PublicationEngine {
            seq: 0,
            books: Some(Books {
                accountant,
                path: ledger,
                persisted,
                graph,
                grants,
                accepted,
                refused,
                settled,
            }),
        })
    }

    /// One publication pass over `view` (`None` for a batch cluster,
    /// which only numbers its publications), considering windows at or
    /// below `watermark` only — a straggling worker can delay a window's
    /// decision but never revise it. Decides, persists the ledger if it
    /// moved, and only then releases the grant into the record.
    pub fn publish(&mut self, view: Option<&WindowedAggregator>, watermark: u64) -> Pass {
        self.seq += 1;
        let mut pass = Pass {
            publication: Publication {
                seq: self.seq,
                watermark,
                ..Publication::default()
            },
            settled: Vec::new(),
            new_decisions: 0,
            new_refusals: 0,
            persisted: Ok(()),
        };
        let Some(view) = view else {
            return pass;
        };
        if let Some(books) = &mut self.books {
            let grant = books.decide(view, watermark, &mut pass);
            pass.persisted = books.persist();
            if pass.persisted.is_ok() {
                pass.publication.grant = grant;
            }
            pass.publication.budget = Some(books.summary());
            pass.publication.refused_windows = books.refused.iter().copied().collect();
        }
        let record = &mut pass.publication;
        record.oldest_window = view.oldest_window();
        record.windows = view
            .windows()
            .iter()
            .map(|&(id, c)| (id, c.num_reports))
            .collect();
        record.merged_reports = view.merged().num_reports;
        record.late_reports = view.late();
        pass
    }

    /// The one filter estimation reads: Σ counters of the windows at or
    /// below `watermark` — only the accepted ones when a budget runs.
    /// `None` when nothing is left: a tick over zero counts would publish
    /// a meaningless model and poison the warm start of the next one.
    pub fn published_counts(
        &self,
        view: &WindowedAggregator,
        watermark: u64,
    ) -> Option<AggregateCounts> {
        let counts = match &self.books {
            Some(books) => view.merged_where(|id| id <= watermark && books.accepted.contains(&id)),
            None => view.merged_where(|id| id <= watermark),
        };
        (counts.num_reports > 0).then_some(counts)
    }

    /// The ledger itself (decisions, grant history, sliding spend), when
    /// a budget runs.
    pub fn accountant(&self) -> Option<&WindowBudgetAccountant> {
        self.books.as_ref().map(|b| &b.accountant)
    }

    /// Live windows accepted for publication, ascending (empty without a
    /// budget — every window at or below the watermark publishes).
    pub fn accepted_windows(&self) -> Vec<u64> {
        self.books
            .as_ref()
            .map(|b| b.accepted.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Live windows excluded from publication, ascending (empty without
    /// a budget).
    pub fn refused_windows(&self) -> Vec<u64> {
        self.books
            .as_ref()
            .map(|b| b.refused.iter().copied().collect())
            .unwrap_or_default()
    }
}

impl Books {
    /// The decision half of the pass; returns the standing grant.
    ///
    /// Settlement is against the cohort's *max* per-report ε′, not the
    /// mean: the `w`-window contract is per user, so one ε′ = 64 report
    /// hiding among thousands at 0.01 must still refuse the window.
    fn decide(
        &mut self,
        view: &WindowedAggregator,
        watermark: u64,
        out: &mut Pass,
    ) -> Option<GrantFrame> {
        let windows = view.windows();
        for (i, &(id, counts)) in windows.iter().enumerate() {
            if id > watermark {
                break;
            }
            let observed = counts.max_eps_nano();
            if self.accountant.decided().is_none_or(|d| id > d) {
                let prev = i.checked_sub(1).map(|j| &windows[j]);
                let divergence = self.shift(prev, &windows[i]);
                self.accountant.allocate(id, divergence);
                out.new_decisions += 1;
            }
            match self.accountant.settle(id, observed) {
                Some(decision) => {
                    if decision.refused {
                        out.new_refusals += self.refuse(id);
                    } else {
                        self.refused.remove(&id);
                        self.accepted.insert(id);
                    }
                    // Captured here from the returned decision: deciding
                    // several windows in one pass can trim the oldest
                    // ledger entry before a post-loop sweep would see it.
                    self.settled.insert(id, decision.spent_nano);
                    out.settled.push((id, decision.spent_nano));
                }
                // No ledger entry. Either the entry *expired* from the
                // horizon while a deeper ring keeps the window live, or
                // the window appeared *behind* the decided watermark
                // (data landed in a gap after a newer window was decided).
                None => {
                    let decided = self.accountant.decided().unwrap_or(0);
                    let horizon = self.accountant.config().horizon as u64;
                    if id < decided && decided - id >= horizon {
                        // Expired: the frozen-window rule against the
                        // books recorded when it settled. Late reports
                        // claiming more are unaccounted surplus — refuse,
                        // stickily, as settle() does in-horizon. Books
                        // unknown: the window keeps whatever status it
                        // has (it is not in `accepted` after a restart
                        // that lost them, so it stays unpublished).
                        if let Some(&recorded) = self.settled.get(&id) {
                            if observed > recorded {
                                out.new_refusals += self.refuse(id);
                            } else if !self.refused.contains(&id) {
                                self.accepted.insert(id);
                            }
                        }
                    } else if !self.accepted.contains(&id) {
                        // A gap window can never be granted
                        // retroactively: unaccountable, never published.
                        out.new_refusals += self.refuse(id);
                    }
                }
            }
        }
        // Pre-grant the *next* window before any of its data exists, so
        // subscribed clients randomize at the announced rate and
        // settlement later observes spend == grant. An empty ring grants
        // its current newest window — the first one clients will fill.
        // A window already decided (an earlier pass, or a restored
        // ledger) is re-announced unchanged: boards dedupe, and a
        // restart must never re-decide a grant a client may have seen.
        let next = view.newest_window() + u64::from(view.merged().num_reports > 0);
        let grant = if !self.grants {
            None
        } else if self.accountant.decided().is_none_or(|d| next > d) {
            let divergence = match windows.as_slice() {
                [.., prev, newest] => self.shift(Some(prev), newest),
                _ => None,
            };
            out.new_decisions += 1;
            Some(self.accountant.allocate(next, divergence).into())
        } else {
            self.accountant.latest_grant().map(GrantFrame::from)
        };
        // Books for windows that slid out of the ring gate nothing. (The
        // budget *horizon* needs none of them: the ledger and its grant
        // history are self-contained, which is what lets `w` exceed the
        // ring depth.)
        let oldest = view.oldest_window();
        self.accepted.retain(|&id| id >= oldest);
        self.refused.retain(|&id| id >= oldest);
        self.settled.retain(|&id, _| id >= oldest);
        grant
    }

    /// Atomically rewrites the ledger blob when its bytes moved since the
    /// last read or write.
    fn persist(&mut self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let bytes = self.accountant.encode();
        if bytes != self.persisted {
            write_blob_atomic(path, &bytes).map_err(|e| {
                std::io::Error::new(e.kind(), format!("ledger {}: {e}", path.display()))
            })?;
            self.persisted = bytes;
        }
        Ok(())
    }

    /// The allocator's change signal for `cur`: divergence from the
    /// previous live window when the two are consecutive, unknown
    /// (`None`) otherwise.
    fn shift(
        &self,
        prev: Option<&(u64, &AggregateCounts)>,
        cur: &(u64, &AggregateCounts),
    ) -> Option<f64> {
        match prev {
            Some(&(id, counts)) if id + 1 == cur.0 => {
                Some(window_divergence(self.graph.as_deref(), counts, cur.1))
            }
            _ => None,
        }
    }

    /// Moves `id` to the refused set; 1 when it was not there before.
    fn refuse(&mut self, id: u64) -> u64 {
        self.accepted.remove(&id);
        u64::from(self.refused.insert(id))
    }

    /// The ledger as a publication reports it.
    fn summary(&self) -> BudgetPublication {
        let acct = &self.accountant;
        let newest = acct.decided().and_then(|w| acct.decision(w));
        BudgetPublication {
            total_nano: acct.config().total_nano,
            horizon: acct.config().horizon,
            sliding_spent_nano: acct.sliding_spend_nano(),
            newest_granted_nano: newest.map_or(0, |d| d.granted_nano),
            newest_spent_nano: newest.map_or(0, |d| d.spent_nano),
            newest_refused: newest.is_some_and(|d| d.refused),
            refused_windows: acct.refused_windows(),
            recycled_nano: acct.recycled_nano(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{eps_to_nano, nano_to_eps, AllocationPolicy};
    use crate::report::Report;
    use crate::stream::WindowConfig;

    const REGIONS: usize = 6;
    const WINDOW_LEN: u64 = 60;

    /// One scripted event or expectation. Expectations about "the pass"
    /// refer to the most recent `Decide`.
    enum Step {
        /// `n` reports at ε′ = `eps` land in `window`.
        Ingest {
            window: u64,
            n: u32,
            eps: f64,
        },
        /// One decision pass at the ring's own newest window — what a
        /// node passes.
        Decide,
        /// One decision pass at an explicit (cluster) watermark.
        DecideBelow(u64),
        /// What a node's restart does: rebuild the engine from the
        /// ledger file the passes wrote and the ring's spend annotations,
        /// optionally under a changed contract `(total ε, horizon)`.
        Restart(Option<(f64, usize)>),
        Accepted(&'static [u64]),
        Refused(&'static [u64]),
        /// The ledger's recorded spend for an in-horizon window, ε.
        Spent(u64, f64),
        /// The window has no ledger entry (expired, gap, or undecided).
        NoEntry(u64),
        /// Σ spend over the trailing horizon, ε.
        Sliding(f64),
        /// Lifetime granted-but-unspent, ε.
        Recycled(f64),
        /// `(new_decisions, new_refusals)` of the pass.
        Counted(u64, u64),
        /// `(window, epoch, ε′)` of the pass's standing grant.
        Grant(Option<(u64, u64, f64)>),
        /// Reports `published_counts` merges at this watermark.
        Published(u64, u64),
    }
    use Step::*;

    struct Case {
        name: &'static str,
        ring_depth: usize,
        /// `(total ε, horizon)`, uniform policy.
        budget: (f64, usize),
        grants: bool,
        steps: &'static [Step],
    }

    fn budget((total, horizon): (f64, usize)) -> WindowBudgetConfig {
        WindowBudgetConfig::new(eps_to_nano(total), horizon, AllocationPolicy::Uniform)
    }

    /// `n` two-point reports at ε′ = `eps` into `window`, regions walking
    /// with the running report count `seq`.
    fn ingest(ring: &mut WindowedAggregator, seq: &mut u32, window: u64, n: u32, eps: f64) {
        for _ in 0..n {
            *seq += 1;
            let a = *seq % REGIONS as u32;
            let b = (a + 1) % REGIONS as u32;
            ring.ingest(&Report {
                t: window * WINDOW_LEN,
                eps_prime: eps,
                len: 2,
                unigrams: vec![(0, a), (1, b)],
                exact: vec![(0, a), (1, b)],
                transitions: vec![(a, b)],
            });
        }
    }

    fn temp_ledger(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "trajshare-engine-{}-{tag}.tsba",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn run(case: &Case, index: usize) {
        let name = case.name;
        let window = WindowConfig {
            window_len: WINDOW_LEN,
            num_windows: case.ring_depth,
        };
        let ledger = temp_ledger(&index.to_string());
        let open = |contract: (f64, usize), ring: &WindowedAggregator| {
            PublicationEngine::budgeted(
                budget(contract),
                None,
                case.grants,
                Some(ledger.clone()),
                Some(&ring.window_spends()),
            )
            .unwrap()
        };
        let mut ring = WindowedAggregator::new(vec![0; REGIONS], window);
        let mut engine = open(case.budget, &ring);
        let mut pass: Option<Pass> = None;
        let mut seq = 0u32;
        for (i, step) in case.steps.iter().enumerate() {
            let at = format!("{name}, step {i}");
            let last = || pass.as_ref().expect("a pass ran");
            match *step {
                Ingest { window, n, eps } => ingest(&mut ring, &mut seq, window, n, eps),
                Decide | DecideBelow(_) => {
                    let watermark = match *step {
                        DecideBelow(w) => w,
                        _ => ring.newest_window(),
                    };
                    let done = engine.publish(Some(&ring), watermark);
                    done.persisted.as_ref().unwrap();
                    // The record describes the books the pass left, and
                    // the ledger on disk is the ledger in memory.
                    assert_eq!(done.publication.watermark, watermark, "{at}");
                    assert_eq!(
                        done.publication.refused_windows,
                        engine.refused_windows(),
                        "{at}"
                    );
                    assert_eq!(
                        read_ledger(&ledger).unwrap().as_ref(),
                        engine.accountant(),
                        "{at}"
                    );
                    // The node's half: mirror the settled spends.
                    for &(id, spent) in &done.settled {
                        ring.record_spend(id, spent);
                    }
                    pass = Some(done);
                }
                Restart(contract) => engine = open(contract.unwrap_or(case.budget), &ring),
                Accepted(want) => assert_eq!(engine.accepted_windows(), want, "{at}"),
                Refused(want) => assert_eq!(engine.refused_windows(), want, "{at}"),
                Spent(window, eps) => assert_eq!(
                    engine
                        .accountant()
                        .unwrap()
                        .decision(window)
                        .map(|d| d.spent_nano),
                    Some(eps_to_nano(eps)),
                    "{at}"
                ),
                NoEntry(window) => {
                    assert_eq!(engine.accountant().unwrap().decision(window), None, "{at}")
                }
                Sliding(eps) => assert_eq!(
                    engine.accountant().unwrap().sliding_spend_nano(),
                    eps_to_nano(eps),
                    "{at}"
                ),
                Recycled(eps) => assert_eq!(
                    engine.accountant().unwrap().recycled_nano(),
                    eps_to_nano(eps),
                    "{at}"
                ),
                Counted(decisions, refusals) => assert_eq!(
                    (last().new_decisions, last().new_refusals),
                    (decisions, refusals),
                    "{at}"
                ),
                Grant(want) => assert_eq!(
                    last()
                        .publication
                        .grant
                        .map(|g| (g.window, g.epoch, g.granted_nano)),
                    want.map(|(w, e, eps)| (w, e, eps_to_nano(eps))),
                    "{at}"
                ),
                Published(watermark, reports) => assert_eq!(
                    engine
                        .published_counts(&ring, watermark)
                        .map_or(0, |c| c.num_reports),
                    reports,
                    "{at}"
                ),
            }
            // The contract, after every single step.
            let acct = engine.accountant().unwrap();
            assert!(
                acct.sliding_spend_nano() <= acct.config().total_nano,
                "{at}"
            );
        }
        let _ = std::fs::remove_file(&ledger);
    }

    #[test]
    fn scripted_window_sequences() {
        let cases = [
            Case {
                name: "all accepted, slack recycled, ring recycles its slots",
                ring_depth: 4,
                budget: (3.0, 3),
                grants: false,
                steps: &[
                    Ingest {
                        window: 0,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Counted(1, 0),
                    Spent(0, 0.75),
                    Ingest {
                        window: 1,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Ingest {
                        window: 2,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Ingest {
                        window: 3,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Accepted(&[0, 1, 2, 3]),
                    Ingest {
                        window: 4,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Counted(1, 0),
                    Grant(None),
                    // Window 0 slid out of the 4-deep ring with its books.
                    Accepted(&[1, 2, 3, 4]),
                    Refused(&[]),
                    Sliding(2.25),
                    Recycled(1.25),
                    Published(4, 80),
                ],
            },
            Case {
                name: "over-grant refusal keeps the full grant on the books",
                ring_depth: 3,
                budget: (1.0, 2),
                grants: false,
                steps: &[
                    Ingest {
                        window: 0,
                        n: 30,
                        eps: 0.75,
                    },
                    Decide,
                    Counted(1, 1),
                    Refused(&[0]),
                    Spent(0, 0.5),
                    Ingest {
                        window: 1,
                        n: 30,
                        eps: 0.75,
                    },
                    Decide,
                    Refused(&[0, 1]),
                    Accepted(&[]),
                    Sliding(1.0),
                    Recycled(0.0),
                    Published(1, 0),
                    // Refusal is counted once, not once per pass.
                    Decide,
                    Counted(0, 0),
                ],
            },
            Case {
                name: "one over-claiming reporter under a low mean",
                ring_depth: 3,
                budget: (1.0, 2),
                grants: false,
                steps: &[
                    Ingest {
                        window: 0,
                        n: 200,
                        eps: 0.01,
                    },
                    Decide,
                    Accepted(&[0]),
                    Spent(0, 0.01),
                    Ingest {
                        window: 0,
                        n: 1,
                        eps: 0.9,
                    },
                    Decide,
                    Refused(&[0]),
                    Spent(0, 0.5),
                ],
            },
            Case {
                name: "gap window behind the decided watermark",
                ring_depth: 6,
                budget: (3.0, 3),
                grants: false,
                steps: &[
                    Ingest {
                        window: 3,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Accepted(&[3]),
                    Ingest {
                        window: 1,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Counted(0, 1),
                    Refused(&[1]),
                    Accepted(&[3]),
                    NoEntry(1),
                    Published(3, 20),
                ],
            },
            Case {
                name: "expired but live: accept, late over-claim, refuse, sticky",
                ring_depth: 5,
                budget: (3.0, 3),
                grants: false,
                steps: &[
                    Ingest {
                        window: 0,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Ingest {
                        window: 1,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Ingest {
                        window: 2,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    Ingest {
                        window: 3,
                        n: 20,
                        eps: 0.75,
                    },
                    Decide,
                    // 3 − 0 ≥ horizon: the entry is gone, the window is
                    // not, and it keeps publishing on its settled books.
                    NoEntry(0),
                    Accepted(&[0, 1, 2, 3]),
                    // Late reports at or below the books change nothing.
                    Ingest {
                        window: 0,
                        n: 5,
                        eps: 0.5,
                    },
                    Decide,
                    Accepted(&[0, 1, 2, 3]),
                    Ingest {
                        window: 0,
                        n: 5,
                        eps: 0.9,
                    },
                    Decide,
                    Counted(0, 1),
                    Refused(&[0]),
                    Accepted(&[1, 2, 3]),
                    Published(3, 60),
                    Decide,
                    Counted(0, 0),
                    Refused(&[0]),
                    // The restart re-derives the refusal from the books
                    // and the data still in the ring.
                    Restart(None),
                    Decide,
                    Refused(&[0]),
                    Accepted(&[1, 2, 3]),
                    Sliding(2.25),
                ],
            },
            Case {
                name: "the watermark holds undecided windows back",
                ring_depth: 4,
                budget: (3.0, 3),
                grants: false,
                steps: &[
                    Ingest {
                        window: 0,
                        n: 10,
                        eps: 0.75,
                    },
                    Ingest {
                        window: 1,
                        n: 10,
                        eps: 0.75,
                    },
                    Ingest {
                        window: 2,
                        n: 10,
                        eps: 0.75,
                    },
                    DecideBelow(0),
                    Counted(1, 0),
                    Accepted(&[0]),
                    Refused(&[]),
                    NoEntry(1),
                    Published(2, 10),
                    DecideBelow(2),
                    Counted(2, 0),
                    Accepted(&[0, 1, 2]),
                    // Accepted, but still held back from publication.
                    Published(1, 20),
                ],
            },
            Case {
                name: "pre-grant: bootstrap, roll forward, re-announce after restart",
                ring_depth: 4,
                budget: (4.0, 4),
                grants: true,
                steps: &[
                    // Empty ring: grant the window clients will fill first.
                    Decide,
                    Counted(1, 0),
                    Grant(Some((0, 1, 1.0))),
                    Decide,
                    Counted(0, 0),
                    Grant(Some((0, 1, 1.0))),
                    Ingest {
                        window: 0,
                        n: 20,
                        eps: 1.0,
                    },
                    Decide,
                    Counted(1, 0),
                    Grant(Some((1, 2, 1.0))),
                    Accepted(&[0]),
                    Spent(0, 1.0),
                    // Restored, not re-decided: same window, same epoch.
                    Restart(None),
                    Decide,
                    Counted(0, 0),
                    Grant(Some((1, 2, 1.0))),
                    Ingest {
                        window: 1,
                        n: 20,
                        eps: 1.0,
                    },
                    Decide,
                    Grant(Some((2, 3, 1.0))),
                    Refused(&[]),
                    Sliding(3.0),
                ],
            },
            Case {
                name: "a changed contract seeds the new ledger from the ring's books",
                ring_depth: 4,
                budget: (3.0, 3),
                grants: false,
                steps: &[
                    Ingest {
                        window: 0,
                        n: 10,
                        eps: 0.75,
                    },
                    Decide,
                    Ingest {
                        window: 1,
                        n: 10,
                        eps: 0.75,
                    },
                    Decide,
                    // 1ε over 2 windows: the imported spends are clamped
                    // to what the new horizon allows (0.75 + 0.25)...
                    Restart(Some((1.0, 2))),
                    Sliding(1.0),
                    Accepted(&[0, 1]),
                    // ...and keep constraining it: window 2 gets its 0.5ε
                    // share, which the 0.75 cohort over-claims — as does
                    // window 1 against the 0.25 the new books could hold.
                    Ingest {
                        window: 2,
                        n: 10,
                        eps: 0.75,
                    },
                    Decide,
                    Refused(&[1, 2]),
                    Spent(2, 0.5),
                ],
            },
        ];
        for (index, case) in cases.iter().enumerate() {
            run(case, index);
        }
    }

    #[test]
    fn without_a_budget_the_pass_numbers_records_and_filters() {
        let window = WindowConfig {
            window_len: WINDOW_LEN,
            num_windows: 4,
        };
        let mut ring = WindowedAggregator::new(vec![0; REGIONS], window);
        let mut engine = PublicationEngine::default();
        assert!(engine.published_counts(&ring, 0).is_none(), "empty ring");
        let mut seq = 0;
        for w in 0..3 {
            ingest(&mut ring, &mut seq, w, 10, 0.75);
        }
        let pass = engine.publish(Some(&ring), 1);
        let record = &pass.publication;
        assert_eq!((record.seq, record.watermark), (1, 1));
        assert_eq!(record.windows, vec![(0, 10), (1, 10), (2, 10)]);
        assert_eq!(record.merged_reports, 30);
        assert!(record.budget.is_none() && record.grant.is_none());
        assert!(record.refused_windows.is_empty() && pass.settled.is_empty());
        assert_eq!((pass.new_decisions, pass.new_refusals), (0, 0));
        // Every window at or below the watermark publishes.
        let published = engine.published_counts(&ring, 1).unwrap();
        assert_eq!(published, ring.merged_where(|id| id <= 1));
        assert_eq!(published.num_reports, 20);
        // A batch cluster has no ring: the pass only numbers it.
        let batch = engine.publish(None, 0).publication;
        assert_eq!((batch.seq, batch.windows.len()), (2, 0));
    }

    #[test]
    fn an_adaptive_bootstrap_grants_the_uniform_share() {
        // Adaptive, ε = 4 over w = 4, grant session on, empty ring: the
        // first windows have nothing to compare against. An honest cohort
        // follows every grant; each window of the horizon must still be
        // granted something.
        let config = WindowBudgetConfig::new(eps_to_nano(4.0), 4, AllocationPolicy::adaptive());
        let window = WindowConfig {
            window_len: WINDOW_LEN,
            num_windows: 4,
        };
        let mut ring = WindowedAggregator::new(vec![0; REGIONS], window);
        let mut engine = PublicationEngine::budgeted(config, None, true, None, None).unwrap();
        let mut seq = 0;
        let mut grants = Vec::new();
        for _ in 0..config.horizon {
            let pass = engine.publish(Some(&ring), ring.newest_window());
            let grant = pass.publication.grant.expect("the grant session is on");
            let eps = nano_to_eps(grant.granted_nano);
            if eps > 0.0 {
                ingest(&mut ring, &mut seq, grant.window, 20, eps);
            }
            grants.push((grant.window, grant.granted_nano));
        }
        assert!(
            grants[0].1 <= config.uniform_share(),
            "the bootstrap window spent past the uniform share: {grants:?}"
        );
        assert!(
            grants
                .iter()
                .enumerate()
                .all(|(w, &(id, g))| id == w as u64 && g > 0),
            "a window inside the horizon was granted nothing: {grants:?}"
        );
    }

    #[test]
    fn a_changed_contract_needs_a_ring_to_reseed_the_ledger() {
        let ledger = temp_ledger("contract");
        let open = |contract, ring_spends| {
            PublicationEngine::budgeted(
                budget(contract),
                None,
                true,
                Some(ledger.clone()),
                ring_spends,
            )
        };
        let ring = WindowedAggregator::new(
            vec![0; REGIONS],
            WindowConfig {
                window_len: WINDOW_LEN,
                num_windows: 4,
            },
        );
        let mut engine = open((3.0, 3), None).unwrap();
        let grant = engine.publish(Some(&ring), 0).publication.grant;
        assert!(grant.is_some(), "the bootstrap grant is durable");
        // The same contract restores the ledger the pass wrote.
        let same = open((3.0, 3), None).unwrap();
        assert_eq!(same.accountant(), engine.accountant());
        // A changed one is refused without a ring (a coordinator) and
        // reseeded from the ring's spends with one (a node).
        assert!(open((1.0, 2), None).is_err());
        let reseeded = open((1.0, 2), Some(&[])).unwrap();
        assert_eq!(reseeded.accountant().unwrap().grant_history().count(), 0);
        // A corrupt ledger is an error either way.
        std::fs::write(&ledger, b"TSBA garbage").unwrap();
        assert!(open((3.0, 3), Some(&[])).is_err());
        let _ = std::fs::remove_file(&ledger);
    }
}
