//! Incremental re-evaluation under fragment updates.
//!
//! The paper proves its guarantees for *one-shot* evaluation; a production
//! federated store sees its fragments change between queries. Recomputing
//! from scratch after every edit wastes exactly the property partial
//! evaluation buys: a fragment's residual vectors depend **only on its own
//! data** (plus the query), never on other fragments — the unknowns are
//! variables. So the coordinator can cache, per fragment, the outputs of
//! the last combined pass:
//!
//! * the root `QV`/`QDV` vectors,
//! * the ancestor summaries recorded at its virtual nodes,
//! * the unconditional answers, and
//! * the candidate answers *with their residual formulas*.
//!
//! That cache is `QuerySession`: one prepared query's residual-vector
//! state, usable against any borrowed [`Deployment`]. A
//! [`PaxServer`](crate::server::PaxServer) keeps one session per prepared
//! query, fills it with a cold snapshot on the query's first execution, and
//! maintains *all* sessions in the single visit an update round pays to
//! each dirty site. Both rounds send the same `SessionUpdate` message: the
//! snapshot is an update round with no ops and one session.
//!
//! When a batch of updates arrives, only the **touched fragments'** vectors
//! are stale. The update round ships the ops to the *dirty* sites (one
//! visit each, which applies the edits and re-runs the combined pass in the
//! same visit), re-unifies `evalFT` over the **dirty cone** of the fragment
//! tree — the updated fragments, their ancestors whose qualifier values
//! change, and the subtrees whose ancestor summaries change — and
//! re-resolves candidate formulas from the coordinator-side cache. Clean
//! sites are **never visited**: even when an update far away flips a
//! qualifier that decides a clean fragment's candidate answers, the cached
//! formula is re-evaluated locally at the coordinator.
//!
//! Compared to the from-scratch protocol this ships candidate formulas to
//! the coordinator once (an `O(|candidates|)` add-on to the first visit) and
//! in exchange drops the second visit entirely: a re-evaluation after
//! updates costs **one visit per dirty site, zero per clean site**, and
//! traffic proportional to the update batch and the dirty fragments' vector
//! sizes — independent of the total data size.
//!
//! ```
//! use paxml_core::server::PaxServer;
//! use paxml_core::Algorithm;
//! use paxml_distsim::Placement;
//! use paxml_fragment::{strategy::cut_at_labels, FragmentId, UpdateOp};
//! use paxml_xml::TreeBuilder;
//!
//! let tree = TreeBuilder::new("clientele")
//!     .open("client").leaf("country", "US")
//!         .open("broker").leaf("name", "E*trade").close()
//!     .close()
//!     .open("client").leaf("country", "Canada")
//!         .open("broker").leaf("name", "CIBC").close()
//!     .close()
//!     .build();
//! let fragmented = cut_at_labels(&tree, &["client"]).unwrap();
//!
//! let mut server = PaxServer::builder()
//!     .algorithm(Algorithm::PaX2)
//!     .sites(3)
//!     .placement(Placement::RoundRobin)
//!     .deploy(&fragmented)
//!     .unwrap();
//! let q = server.prepare("client[country/text()='US']/broker/name").unwrap();
//! assert_eq!(server.execute(&q).unwrap().answer_texts(), vec!["E*trade".to_string()]);
//!
//! // Edit Lisa's country to US — one dirty fragment, one visit, new answer.
//! let lisa = fragmented.fragments[2].tree.find_first("country").unwrap();
//! let text = fragmented.fragments[2].tree.children(lisa).next().unwrap();
//! let update = server.apply_updates(&[(
//!     FragmentId(2),
//!     UpdateOp::EditText { node: text, text: "US".into() },
//! )]).unwrap();
//! assert_eq!(update.clean_site_visits(), 0);
//!
//! // Re-execution is served from the maintained cache: zero visits.
//! let report = server.execute(&q).unwrap();
//! assert_eq!(report.answer_texts(), vec!["E*trade".to_string(), "CIBC".to_string()]);
//! assert_eq!(report.max_visits_per_site(), 0);
//! ```

use crate::deployment::{Deployment, ExecCtx};
use crate::error::PaxResult;
use crate::protocol::{
    CandidateAnswer, InitVector, MsgDeltaAnswer, MsgDeltaVect, MsgSessionUpdate, RecomputeInput,
    SessionRecompute,
};
use crate::prune::{analyze_with_trie, AnnotationAnalysis, PathTrie};
use crate::report::AnswerItem;
use crate::transport::ProtocolRequest;
use crate::unify::{resolve_summary, DenseAssignment};
use crate::vars::PaxVar;
use crate::EvalOptions;
use paxml_boolex::{BitVector, CompactVector};
use paxml_distsim::{ClusterStats, SiteId};
use paxml_fragment::{FragmentId, FragmentTree};
use paxml_xpath::eval::{initial_vector, QualVectors};
use paxml_xpath::CompiledQuery;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The per-fragment cache entry: everything the coordinator keeps from the
/// last combined pass over that fragment. `Serialize` exists only so
/// [`ServerStats::session_cache_bytes`](crate::server::ServerStats) can
/// meter the cache with the same canonical encoding the network charges.
#[derive(Debug, Clone, Default, Serialize)]
struct FragmentCache {
    /// Root `QV`/`QDV` vectors (symbolic in the sub-fragments' variables).
    root: Option<QualVectors<PaxVar>>,
    /// Unconditional answers found in the fragment.
    sure: Vec<AnswerItem>,
    /// Conditional answers with their residual formulas.
    candidates: Vec<CandidateAnswer>,
    /// The fragment's current resolved answers (under the latest variable
    /// assignment).
    resolved: Vec<AnswerItem>,
}

/// What a session's cold snapshot cost: the round's cluster meters and the
/// coordinator's `evalFT` work.
pub(crate) struct IncrementalReport {
    /// The cluster meters of the snapshot round only (recorded by the
    /// round's own [`ClusterStats`] recorder).
    pub(crate) stats: ClusterStats,
    /// Coordinator-side unification operations of the snapshot.
    pub(crate) unify_ops: u64,
}

/// Coordinator-side work one session did while refreshing its state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefreshOutcome {
    /// `evalFT` unification operations performed.
    pub(crate) unify_ops: u64,
    /// Fragments the dirty-cone walk actually re-unified.
    pub(crate) reunified_fragments: usize,
}

/// One prepared query's residual-vector cache: the coordinator-side state
/// that lets re-evaluation after updates visit only dirty sites (and serve
/// clean re-executions with no visit at all). Borrows the deployment per
/// call, so a server can hold many sessions over one deployment.
///
/// `Clone` is copy-on-write at the fragment granularity: the per-fragment
/// cache entries sit behind [`Arc`]s, so cloning a session for the next
/// epoch shares every clean fragment's vectors by reference and only the
/// entries an update actually touches are deep-copied (via
/// [`Arc::make_mut`]).
#[derive(Clone)]
pub(crate) struct QuerySession {
    pub(crate) query: CompiledQuery,
    query_text: String,
    options: EvalOptions,
    analysis: AnnotationAnalysis,
    root_init: Vec<bool>,
    ft: FragmentTree,
    cache: BTreeMap<FragmentId, Arc<FragmentCache>>,
    /// Ancestor summaries recorded at virtual nodes, keyed by the
    /// sub-fragment they stand for (produced by the parent fragment).
    virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>>,
    /// The cached truth values of every `Qual`/`Sel` variable, packed as
    /// per-fragment bitsets.
    assignment: DenseAssignment,
    answers: Vec<AnswerItem>,
    /// Has the initial snapshot round run yet?
    pub(crate) initialized: bool,
}

impl QuerySession {
    /// Build the (empty) session state for one compiled query. No site is
    /// visited until [`QuerySession::run_round`] runs the initial snapshot.
    pub(crate) fn new(
        query: CompiledQuery,
        query_text: &str,
        options: &EvalOptions,
        ft: FragmentTree,
        root_label: &str,
        trie: &PathTrie,
    ) -> QuerySession {
        let analysis = if options.use_annotations {
            analyze_with_trie(&query, trie)
        } else {
            AnnotationAnalysis::keep_all(&ft)
        };
        let root_init: Vec<bool> = initial_vector(&query, root_label);
        let fragments = ft.len();
        QuerySession {
            query,
            query_text: query_text.to_string(),
            options: *options,
            analysis,
            root_init,
            ft,
            cache: BTreeMap::new(),
            virtuals: BTreeMap::new(),
            assignment: DenseAssignment::new(fragments),
            answers: Vec::new(),
            initialized: false,
        }
    }

    /// The query this session evaluates.
    pub(crate) fn query_text(&self) -> &str {
        &self.query_text
    }

    /// The evaluation options the session was created with.
    pub(crate) fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// The current answers, sorted by original-document position.
    pub(crate) fn answers(&self) -> &[AnswerItem] {
        &self.answers
    }

    /// The fragments the annotation analysis kept for this query.
    pub(crate) fn relevant(&self) -> &BTreeSet<FragmentId> {
        &self.analysis.relevant
    }

    /// The initial vector of a fragment's combined pass (same policy as
    /// from-scratch PaX2).
    fn init_for(&self, fragment: FragmentId) -> InitVector {
        if fragment == FragmentId::ROOT {
            InitVector::Exact(BitVector::from_bools(&self.root_init))
        } else if let Some(exact) = self.analysis.exact_init.get(&fragment) {
            InitVector::Exact(BitVector::from_bools(exact))
        } else {
            InitVector::Unknown
        }
    }

    /// The recompute instructions this session wants for a set of dirty
    /// fragments: one entry per dirty fragment the session's analysis kept
    /// (pruned fragments' vectors are irrelevant and stay absent).
    pub(crate) fn recompute_inputs(
        &self,
        dirty: &BTreeSet<FragmentId>,
    ) -> BTreeMap<FragmentId, RecomputeInput> {
        dirty
            .iter()
            .filter(|f| self.analysis.relevant.contains(f))
            .map(|&fragment| {
                (
                    fragment,
                    RecomputeInput {
                        init: self.init_for(fragment),
                        root_is_context: fragment == FragmentId::ROOT && !self.query.absolute,
                    },
                )
            })
            .collect()
    }

    /// Merge a recomputed site delta into the coordinator-side cache.
    /// `Arc::make_mut` unshares exactly the touched entries; clean
    /// fragments' caches stay shared with any prior epoch's sessions.
    pub(crate) fn absorb(&mut self, vect: MsgDeltaVect, answer: MsgDeltaAnswer) {
        for (fragment, root) in vect.roots {
            Arc::make_mut(self.cache.entry(fragment).or_default()).root = Some(root);
        }
        self.virtuals.extend(vect.virtuals);
        for (fragment, sure) in answer.sure {
            Arc::make_mut(self.cache.entry(fragment).or_default()).sure = sure;
        }
        for (fragment, candidates) in answer.candidates {
            Arc::make_mut(self.cache.entry(fragment).or_default()).candidates = candidates;
        }
    }

    /// Bytes of the session's per-fragment cache under the canonical wire
    /// encoding — the coordinator-memory meter behind
    /// [`ServerStats::session_cache_bytes`](crate::server::ServerStats).
    /// Entries shared with other epochs' sessions are charged once per
    /// session (the meter reports the logical, not the deduplicated, size).
    pub(crate) fn cache_bytes(&self) -> u64 {
        self.cache.values().map(|entry| paxml_distsim::encoded_size(entry.as_ref())).sum()
    }

    /// Re-unify `evalFT` over the dirty cone and re-resolve the cached
    /// answers — the coordinator-side half of a refresh, shared by cold
    /// snapshots (`initial`: the whole tree) and the server's update rounds.
    pub(crate) fn refresh_coordinator_state(
        &mut self,
        dirty_fragments: &BTreeSet<FragmentId>,
        initial: bool,
    ) -> RefreshOutcome {
        let mut unify_ops = 0u64;
        let (qual_changed, qual_reunified) =
            self.reunify_qualifiers(dirty_fragments, initial, &mut unify_ops);
        let (sel_changed, sel_reunified) =
            self.reunify_selection(dirty_fragments, &qual_changed, initial, &mut unify_ops);

        // --------------------------------- re-resolve answers from the cache
        let fragments: Vec<FragmentId> = self.cache.keys().copied().collect();
        let mut any_resolved_changed = false;
        for fragment in fragments {
            let needs = initial
                || dirty_fragments.contains(&fragment)
                || sel_changed.contains(&fragment)
                || self.ft.children(fragment).iter().any(|c| qual_changed.contains(c));
            if !needs {
                continue;
            }
            let assignment = &self.assignment;
            let entry = self.cache.get_mut(&fragment).expect("iterating cached fragments");
            let mut resolved = entry.sure.clone();
            for candidate in &entry.candidates {
                unify_ops += 1;
                if candidate.formula.eval_with(&|v| assignment.get(v)) == Some(true) {
                    resolved.push(candidate.item.clone());
                }
            }
            if resolved != entry.resolved {
                Arc::make_mut(entry).resolved = resolved;
                any_resolved_changed = true;
            }
        }
        // The global merge is O(total answers); skip it when no fragment's
        // contribution changed, so untouched-answer updates stay O(|dirty|).
        if any_resolved_changed {
            let mut answers: Vec<AnswerItem> =
                self.cache.values().flat_map(|entry| entry.resolved.iter().cloned()).collect();
            answers.sort();
            answers.dedup();
            self.answers = answers;
        }
        RefreshOutcome { unify_ops, reunified_fragments: qual_reunified + sel_reunified }
    }

    /// The cold snapshot: one round over a borrowed (shared) deployment
    /// that recomputes every relevant fragment, then `evalFT` over the whole
    /// tree. The request is an update round's [`MsgSessionUpdate`] with no
    /// ops and this session (`session` is its id) alone, so each site
    /// holding a relevant fragment is visited once and reads the fragment
    /// versions of `epoch`. The round's meters are recorded by its own
    /// [`ExecCtx`], so concurrent activity elsewhere on the deployment never
    /// leaks into this report.
    pub(crate) fn snapshot(
        &mut self,
        deployment: &Deployment,
        epoch: u64,
        session: usize,
    ) -> PaxResult<IncrementalReport> {
        let mut ctx = ExecCtx::pinned(deployment, epoch, 0);
        let mut inputs = self.recompute_inputs(&self.analysis.relevant);
        let mut requests: BTreeMap<SiteId, ProtocolRequest> = BTreeMap::new();
        for (site, fragments) in ctx.group_by_site(inputs.keys().copied())? {
            let recompute = SessionRecompute {
                session,
                query: self.query.clone(),
                fragments: fragments
                    .into_iter()
                    .filter_map(|f| inputs.remove(&f).map(|input| (f, input)))
                    .collect(),
            };
            requests.insert(
                site,
                ProtocolRequest::SessionUpdate(MsgSessionUpdate {
                    ops: BTreeMap::new(),
                    sessions: vec![recompute],
                }),
            );
        }
        for response in ctx.round(requests)?.into_values() {
            for delta in response.into_session_delta()?.sessions {
                self.absorb(delta.vect, delta.answer);
            }
        }
        let refresh = self.refresh_coordinator_state(&BTreeSet::new(), true);
        self.initialized = true;
        Ok(IncrementalReport { stats: ctx.stats, unify_ops: refresh.unify_ops })
    }

    /// Adopt a new fragment tree after a re-fragmentation that left this
    /// session's relevant fragments untouched. The annotation analysis is
    /// re-derived over the new tree, the (possibly stale) entries for the
    /// `touched` fragments are dropped, and the truth-value assignment is
    /// rebuilt from the surviving cached vectors — a pure coordinator-side
    /// refresh that costs **zero site visits**.
    ///
    /// Sessions whose relevant set intersects the touched fragments cannot
    /// be salvaged this way (their residual vectors mention fragments that
    /// no longer exist); the server cold-resets those instead.
    pub(crate) fn retopologize(
        &mut self,
        ft: FragmentTree,
        trie: &PathTrie,
        touched: &BTreeSet<FragmentId>,
    ) {
        self.ft = ft;
        self.analysis = if self.options.use_annotations {
            analyze_with_trie(&self.query, trie)
        } else {
            AnnotationAnalysis::keep_all(&self.ft)
        };
        for fragment in touched {
            self.cache.remove(fragment);
            self.virtuals.remove(fragment);
        }
        // Fragments that left the tree entirely (merged away) must not keep
        // contributing cached answers.
        self.cache.retain(|fragment, _| self.ft.contains(*fragment));
        self.virtuals.retain(|fragment, _| self.ft.contains(*fragment));
        self.assignment = DenseAssignment::new(self.ft.len());
        self.refresh_coordinator_state(&BTreeSet::new(), true);
    }

    /// Bottom-up qualifier re-unification over the dirty cone: a fragment's
    /// `Qual` values are recomputed iff the fragment itself was updated or a
    /// descendant's values changed; everything else reuses the cached truth
    /// values. Returns the set of fragments whose values changed and the
    /// number of fragments actually re-unified.
    fn reunify_qualifiers(
        &mut self,
        dirty: &BTreeSet<FragmentId>,
        initial: bool,
        unify_ops: &mut u64,
    ) -> (BTreeSet<FragmentId>, usize) {
        let mut changed: BTreeSet<FragmentId> = BTreeSet::new();
        let mut reunified = 0usize;
        if !self.query.has_qualifiers() {
            return (changed, reunified);
        }
        let qlen = self.query.qvect_len();
        for fragment in self.ft.bottom_up_order() {
            let needs = initial
                || dirty.contains(&fragment)
                || self.ft.children(fragment).iter().any(|c| changed.contains(c));
            if !needs {
                continue;
            }
            reunified += 1;
            *unify_ops += 2 * qlen as u64;
            let (qv, qdv) = {
                let assignment = &self.assignment;
                match self.cache.get(&fragment).and_then(|e| e.root.as_ref()) {
                    Some(vectors) => (
                        vectors.qv.resolve_bits(&|v| assignment.get(v)),
                        vectors.qdv.resolve_bits(&|v| assignment.get(v)),
                    ),
                    None => (BitVector::all_false(qlen), BitVector::all_false(qlen)),
                }
            };
            if self.assignment.set_qual(fragment, qv, qdv) {
                changed.insert(fragment);
            }
        }
        (changed, reunified)
    }

    /// Top-down selection re-unification over the dirty cone: a fragment's
    /// `Sel` values are recomputed iff its parent was updated (the recorded
    /// summary itself may be new), the parent's own `Sel` values changed, or
    /// the summary mentions a `Qual` variable whose value changed.
    fn reunify_selection(
        &mut self,
        dirty: &BTreeSet<FragmentId>,
        qual_changed: &BTreeSet<FragmentId>,
        initial: bool,
        unify_ops: &mut u64,
    ) -> (BTreeSet<FragmentId>, usize) {
        let slen = self.query.init_len();
        let mut changed: BTreeSet<FragmentId> = BTreeSet::new();
        let mut reunified = 0usize;
        if initial {
            self.assignment.set_sel(FragmentId::ROOT, BitVector::from_bools(&self.root_init));
        }
        for fragment in self.ft.top_down_order() {
            if fragment == FragmentId::ROOT {
                continue;
            }
            let parent = self.ft.parent(fragment).expect("non-root fragments have a parent");
            let needs = initial
                || dirty.contains(&parent)
                || changed.contains(&parent)
                || self.virtuals.get(&fragment).is_some_and(|vector| {
                    vector.variables().iter().any(|var| match var {
                        PaxVar::Qual { fragment: g, .. } => qual_changed.contains(g),
                        _ => false,
                    })
                });
            if !needs {
                continue;
            }
            reunified += 1;
            *unify_ops += slen as u64;
            let sel = match self.virtuals.get(&fragment) {
                Some(vector) => resolve_summary(vector, slen, &self.assignment),
                None => BitVector::all_false(slen),
            };
            if self.assignment.set_sel(fragment, sel) {
                changed.insert(fragment);
            }
        }
        (changed, reunified)
    }
}
