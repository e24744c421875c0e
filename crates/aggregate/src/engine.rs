//! The publication engine: the streaming ε-budget decision loop, once.
//!
//! Whoever holds the budget — a single `ingestd` over its own merged
//! shard rings, or the cluster coordinator over pulled worker snapshots
//! — runs the same per-tick pass: allocate every newly seen window,
//! settle each live window's worst-case per-report ε′ against its grant,
//! keep the accept/refuse books publication filters by, and pre-grant
//! the next window for the grant session. [`PublicationEngine`] is that
//! pass plus its state. The two callers differ only in the *watermark*
//! they pass ([`WindowedAggregator::newest_window`] on a node, the
//! min-worker watermark on a coordinator) and in what they do with the
//! result (mirror spends onto rings and write `BUDGET`, or persist the
//! cluster ledger) — a single node is a cluster of one.
//!
//! The engine never estimates: callers own their
//! [`crate::StreamingEstimator`] and tick it over
//! [`PublicationEngine::published_counts`] *outside* whatever lock
//! guards the engine, so a long IBU solve never stalls a decision pass.

use crate::budget::{window_divergence, WindowBudgetAccountant, WindowBudgetConfig};
use crate::grant::GrantFrame;
use crate::ingest::AggregateCounts;
use crate::stream::WindowedAggregator;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
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

/// What one [`PublicationEngine::decide`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Decisions {
    /// `(window, settled spend)` for every in-horizon window settled
    /// this pass — what a node mirrors onto its rings so the books
    /// survive with the shard snapshots.
    pub settled: Vec<(u64, u64)>,
    /// Allocations made this pass (newly seen windows plus a fresh
    /// pre-grant).
    pub new_decisions: u64,
    /// Windows that entered the refused set this pass.
    pub new_refusals: u64,
    /// The standing grant for the next window — freshly allocated, or
    /// the latest decision re-announced unchanged (`None` when the grant
    /// session is off). Broadcast it only after the ledger
    /// ([`PublicationEngine::ledger_bytes`]) is durable.
    pub grant: Option<GrantFrame>,
}

/// The ledger plus the books publication filters by.
#[derive(Debug, Clone)]
pub struct PublicationEngine {
    accountant: WindowBudgetAccountant,
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
    /// Rebuilds the engine at startup. `stored` is the persisted ledger,
    /// used when it was written under `config`; otherwise (fresh
    /// deployment, or the operator changed the contract) a new ledger is
    /// seeded from `ring_spends` — the restored ring's
    /// [`WindowedAggregator::window_spends`] — so already-published
    /// spend keeps constraining the new horizon. The accept/refuse books
    /// come back from the ledger's grant history, which outlives the
    /// horizon: a window still live in a ring deeper than `w` keeps its
    /// earned status across the restart, and the first
    /// [`PublicationEngine::decide`] re-checks it against the data.
    pub fn restore(
        config: WindowBudgetConfig,
        graph: Option<Arc<RegionGraph>>,
        grants: bool,
        stored: Option<WindowBudgetAccountant>,
        ring_spends: &[(u64, u64)],
    ) -> Self {
        let accountant = match stored {
            Some(acct) if acct.config() == config => acct,
            _ => {
                let mut acct = WindowBudgetAccountant::new(config);
                for &(id, spent) in ring_spends {
                    acct.restore_spend(id, spent);
                }
                acct
            }
        };
        let mut settled: BTreeMap<u64, u64> = ring_spends.iter().copied().collect();
        let (mut accepted, mut refused) = (BTreeSet::new(), BTreeSet::new());
        for r in accountant.grant_history() {
            settled.insert(r.window, r.settled_nano);
            if r.refused {
                refused.insert(r.window);
            } else {
                accepted.insert(r.window);
            }
        }
        PublicationEngine {
            accountant,
            graph,
            grants,
            accepted,
            refused,
            settled,
        }
    }

    /// One decision pass over `view`, considering windows at or below
    /// `watermark` only (a straggling worker can delay a window's
    /// decision but never revise it).
    ///
    /// Settlement is against the cohort's *max* per-report ε′, not the
    /// mean: the `w`-window contract is per user, so one ε′ = 64 report
    /// hiding among thousands at 0.01 must still refuse the window.
    pub fn decide(&mut self, view: &WindowedAggregator, watermark: u64) -> Decisions {
        let windows = view.windows();
        let mut out = Decisions::default();
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
        if self.grants {
            let next = view.newest_window() + u64::from(view.merged().num_reports > 0);
            out.grant = if self.accountant.decided().is_none_or(|d| next > d) {
                let divergence = match windows.as_slice() {
                    [.., prev, newest] => self.shift(Some(prev), newest),
                    _ => 1.0,
                };
                out.new_decisions += 1;
                Some(self.accountant.allocate(next, divergence).into())
            } else {
                self.accountant.latest_grant().map(GrantFrame::from)
            };
        }
        // Books for windows that slid out of the ring gate nothing. (The
        // budget *horizon* needs none of them: the ledger and its grant
        // history are self-contained, which is what lets `w` exceed the
        // ring depth.)
        let oldest = view.oldest_window();
        self.accepted.retain(|&id| id >= oldest);
        self.refused.retain(|&id| id >= oldest);
        self.settled.retain(|&id, _| id >= oldest);
        out
    }

    /// The allocator's change signal for `cur`: divergence from the
    /// previous live window when the two are consecutive, a full shift
    /// otherwise — the policy buys data when it has nothing to compare.
    fn shift(&self, prev: Option<&(u64, &AggregateCounts)>, cur: &(u64, &AggregateCounts)) -> f64 {
        match prev {
            Some(&(id, counts)) if id + 1 == cur.0 => {
                window_divergence(self.graph.as_deref(), counts, cur.1)
            }
            _ => 1.0,
        }
    }

    /// Moves `id` to the refused set; 1 when it was not there before.
    fn refuse(&mut self, id: u64) -> u64 {
        self.accepted.remove(&id);
        u64::from(self.refused.insert(id))
    }

    /// Σ counters of the windows that may be published: accepted and at
    /// or below `watermark`. Empty (`num_reports == 0`) when nothing is
    /// — callers must not tick an estimator over that.
    pub fn published_counts(&self, view: &WindowedAggregator, watermark: u64) -> AggregateCounts {
        view.merged_where(|id| id <= watermark && self.accepted.contains(&id))
    }

    /// The ledger as a publication reports it.
    pub fn summary(&self) -> BudgetPublication {
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

    /// The ledger's `TSBA` encoding — what the caller persists (when it
    /// changed) before broadcasting [`Decisions::grant`].
    pub fn ledger_bytes(&self) -> Vec<u8> {
        self.accountant.encode()
    }

    /// The ledger itself (decisions, grant history, sliding spend).
    pub fn accountant(&self) -> &WindowBudgetAccountant {
        &self.accountant
    }

    /// Live windows accepted for publication, ascending.
    pub fn accepted_windows(&self) -> Vec<u64> {
        self.accepted.iter().copied().collect()
    }

    /// Live windows excluded from publication, ascending.
    pub fn refused_windows(&self) -> Vec<u64> {
        self.refused.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{eps_to_nano, AllocationPolicy};
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
        /// What a budget holder's restart does: ledger `encode` →
        /// `decode` → `restore`, optionally under a changed contract
        /// `(total ε, horizon)`.
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

    fn run(case: &Case) {
        let name = case.name;
        let window = WindowConfig {
            window_len: WINDOW_LEN,
            num_windows: case.ring_depth,
        };
        let mut ring = WindowedAggregator::new(vec![0; REGIONS], window);
        let mut engine =
            PublicationEngine::restore(budget(case.budget), None, case.grants, None, &[]);
        let mut pass = Decisions::default();
        let mut seq = 0u32;
        for (i, step) in case.steps.iter().enumerate() {
            let at = format!("{name}, step {i}");
            match *step {
                Ingest { window, n, eps } => {
                    for _ in 0..n {
                        seq += 1;
                        let a = seq % REGIONS as u32;
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
                Decide | DecideBelow(_) => {
                    let watermark = match *step {
                        DecideBelow(w) => w,
                        _ => ring.newest_window(),
                    };
                    pass = engine.decide(&ring, watermark);
                    // The node's half: mirror the settled spends.
                    for &(id, spent) in &pass.settled {
                        ring.record_spend(id, spent);
                    }
                }
                Restart(contract) => {
                    let stored = WindowBudgetAccountant::decode(&engine.ledger_bytes()).unwrap();
                    engine = PublicationEngine::restore(
                        budget(contract.unwrap_or(case.budget)),
                        None,
                        case.grants,
                        Some(stored),
                        &ring.window_spends(),
                    );
                }
                Accepted(want) => assert_eq!(engine.accepted_windows(), want, "{at}"),
                Refused(want) => assert_eq!(engine.refused_windows(), want, "{at}"),
                Spent(window, eps) => assert_eq!(
                    engine.accountant().decision(window).map(|d| d.spent_nano),
                    Some(eps_to_nano(eps)),
                    "{at}"
                ),
                NoEntry(window) => {
                    assert_eq!(engine.accountant().decision(window), None, "{at}")
                }
                Sliding(eps) => {
                    assert_eq!(
                        engine.summary().sliding_spent_nano,
                        eps_to_nano(eps),
                        "{at}"
                    )
                }
                Recycled(eps) => {
                    assert_eq!(engine.summary().recycled_nano, eps_to_nano(eps), "{at}")
                }
                Counted(decisions, refusals) => assert_eq!(
                    (pass.new_decisions, pass.new_refusals),
                    (decisions, refusals),
                    "{at}"
                ),
                Grant(want) => assert_eq!(
                    pass.grant.map(|g| (g.window, g.epoch, g.granted_nano)),
                    want.map(|(w, e, eps)| (w, e, eps_to_nano(eps))),
                    "{at}"
                ),
                Published(watermark, reports) => assert_eq!(
                    engine.published_counts(&ring, watermark).num_reports,
                    reports,
                    "{at}"
                ),
            }
            // The contract, after every single step.
            let acct = engine.accountant();
            assert!(
                acct.sliding_spend_nano() <= acct.config().total_nano,
                "{at}"
            );
        }
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
        for case in &cases {
            run(case);
        }
    }
}
