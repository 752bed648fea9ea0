//! Batch multi-query evaluation: many queries, one deployment, shared
//! site visits.
//!
//! The paper's guarantees are stated per query: PaX2 visits every site at
//! most twice and ships `O(|Q|·|FT| + |answer|)` bytes. Under the load this
//! repository aims at — many concurrent queries over the *same* deployment —
//! evaluating queries one at a time multiplies the round count by the batch
//! size: `N` queries cost up to `2N` coordinator rounds and `2N` visits per
//! site. This module amortizes those visits across the batch:
//!
//! 1. **One combined visit.** The coordinator merges every query's
//!    first-stage payload addressed to a site into a single
//!    [`BatchCombinedRequest`]. Each
//!    site takes every needed fragment out of its store once and runs the
//!    per-query combined pre/post-order passes over it, emitting *per-query*
//!    residual Boolean vectors (the queries' vector spaces never mix — each
//!    query's candidate state is kept in a per-query scratch slot).
//! 2. **Coordinator unification per query.** `evalFT` (qualifier and
//!    selection unification) runs independently per query over the shared
//!    fragment tree, exactly as in single-query PaX2.
//! 3. **One collection visit.** The resolved variable values of every query
//!    are merged per site into a single
//!    [`BatchCollectRequest`]; sites
//!    resolve all candidate sets and ship each query's answers.
//!
//! The *whole batch* therefore respects PaX2's bound: **no site is visited
//! more than twice, no matter how many queries the batch carries** —
//! asserted by [`ExecReport::max_visits_per_site`] and the crate's tests.
//! Network traffic stays `O(Σᵢ|Qᵢ|·|FT| + Σᵢ|answerᵢ|)`, and the per-site
//! worker pool of `paxml-distsim` does the work of a round without
//! re-spawning threads, so batch throughput scales with batch size.
//!
//! # Example
//!
//! ```
//! use paxml_core::server::PaxServer;
//! use paxml_fragment::strategy::cut_at_labels;
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
//! let fragmented = cut_at_labels(&tree, &["broker"]).unwrap();
//! let mut server = PaxServer::builder().sites(3).deploy(&fragmented).unwrap();
//!
//! let report = server.execute_batch_text(&[
//!     "client[country/text()='US']/broker/name",
//!     "client/broker/name",
//!     "//broker[name/text()='CIBC']",
//! ]).unwrap();
//!
//! assert_eq!(report.len(), 3);
//! let texts = |i: usize| -> Vec<&str> {
//!     report.queries[i].answers.iter().filter_map(|a| a.text.as_deref()).collect()
//! };
//! assert_eq!(texts(0), vec!["E*trade"]);
//! assert_eq!(texts(1), vec!["E*trade", "CIBC"]);
//! // The entire batch kept PaX2's visit bound.
//! assert!(report.max_visits_per_site() <= 2);
//! ```

use crate::deployment::{Deployment, ExecCtx};
use crate::error::PaxResult;
use crate::protocol::{
    BatchCollectEntry, BatchCollectRequest, BatchCombinedEntry, BatchCombinedRequest,
    CombinedFragmentInput, InitVector,
};
use crate::prune::{analyze_with_trie, AnnotationAnalysis};
use crate::report::{Algorithm, AnswerItem, ExecMode, ExecReport, QueryOutcome};
use crate::transport::ProtocolRequest;
use crate::unify::{unify_qualifiers, unify_selection, DenseAssignment};
use crate::vars::PaxVar;
use crate::EvalOptions;
use paxml_boolex::{BitVector, CompactVector};
use paxml_distsim::SiteId;
use paxml_fragment::FragmentId;
use paxml_xpath::eval::{initial_vector, QualVectors};
use paxml_xpath::CompiledQuery;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-query planning state carried between the two batch stages.
struct QueryPlan {
    analysis: AnnotationAnalysis,
    root_init: Vec<bool>,
    /// Fragments whose answers are not certain after the combined pass and
    /// need the collection visit.
    finals_pending: Vec<FragmentId>,
}

/// The batched PaX2 driver, reported as a unified [`ExecReport`] (mode
/// [`ExecMode::Batch`]) whose cluster meters cover exactly this batch.
///
/// # Panics
///
/// Panics when `compiled` and `texts` have different lengths.
pub(crate) fn run(
    deployment: &Deployment,
    compiled: &[&CompiledQuery],
    texts: &[String],
    options: &EvalOptions,
    epoch: u64,
) -> PaxResult<ExecReport> {
    assert_eq!(compiled.len(), texts.len(), "a batch run needs one query text per compiled query");
    let start = Instant::now();
    let mut ctx = ExecCtx::pinned(deployment, epoch, 0);
    let topology = ctx.topology();
    let ft = topology.fragment_tree.clone();
    let query_count = compiled.len();
    // One scratch slot per query of the batch, unique across concurrent
    // executions, so interleaved batches never mix candidate state.
    let slot_base = deployment.allocate_slots(query_count.max(1));
    let mut coordinator_ops_per_query: Vec<u64> = vec![0; query_count];
    let mut answers: Vec<Vec<AnswerItem>> = vec![Vec::new(); query_count];

    // ------------------------------------------------ Stage 1 (combined, 1 visit)
    // Plan every query, merging the per-site payloads into one request per
    // site for the whole batch.
    let mut plans: Vec<QueryPlan> = Vec::with_capacity(query_count);
    let mut site_entries: BTreeMap<SiteId, Vec<BatchCombinedEntry>> = BTreeMap::new();
    for (query_index, query) in compiled.iter().enumerate() {
        let analysis = if options.use_annotations {
            // One shared trie for the whole batch: the per-query analysis
            // walks distinct label paths, not per-fragment chains.
            analyze_with_trie(query, &topology.path_trie(&deployment.root_label))
        } else {
            AnnotationAnalysis::keep_all(&ft)
        };
        let root_init: Vec<bool> = initial_vector(query, &deployment.root_label);
        let mut finals_pending: Vec<FragmentId> = Vec::new();
        for (&site, fragments) in &ctx.group_by_site(analysis.relevant.iter().copied())? {
            let mut inputs = BTreeMap::new();
            for &fragment in fragments {
                let init = if fragment == FragmentId::ROOT {
                    InitVector::Exact(BitVector::from_bools(&root_init))
                } else if let Some(exact) = analysis.exact_init.get(&fragment) {
                    InitVector::Exact(BitVector::from_bools(exact))
                } else {
                    InitVector::Unknown
                };
                let collect_now = matches!(init, InitVector::Exact(_)) && !query.has_qualifiers();
                if !collect_now {
                    finals_pending.push(fragment);
                }
                inputs.insert(
                    fragment,
                    CombinedFragmentInput {
                        init,
                        root_is_context: fragment == FragmentId::ROOT && !query.absolute,
                        collect_answers_now: collect_now,
                    },
                );
            }
            site_entries.entry(site).or_default().push(BatchCombinedEntry {
                query_index,
                slot: slot_base + query_index,
                query: (*query).clone(),
                fragments: inputs,
            });
        }
        finals_pending.sort();
        plans.push(QueryPlan { analysis, root_init, finals_pending });
    }

    let requests: BTreeMap<SiteId, ProtocolRequest> = site_entries
        .into_iter()
        .map(|(site, entries)| {
            (site, ProtocolRequest::BatchCombined(BatchCombinedRequest { entries }))
        })
        .collect();
    let responses = ctx.round(requests)?;

    // Scatter the merged responses back out per query.
    let mut roots: Vec<BTreeMap<FragmentId, QualVectors<PaxVar>>> =
        vec![BTreeMap::new(); query_count];
    let mut virtuals: Vec<BTreeMap<FragmentId, CompactVector<PaxVar>>> =
        vec![BTreeMap::new(); query_count];
    for response in responses.into_values() {
        for slice in response.into_batch_combined()?.per_query {
            roots[slice.query_index].extend(slice.roots);
            virtuals[slice.query_index].extend(slice.virtuals);
            answers[slice.query_index].extend(slice.answers);
        }
    }

    // ------------------------------------------- Coordinator: unify per query
    let mut site_collect: BTreeMap<SiteId, Vec<BatchCollectEntry>> = BTreeMap::new();
    for (query_index, (query, plan)) in compiled.iter().zip(&plans).enumerate() {
        let mut assignment = DenseAssignment::new(ft.len());
        if query.has_qualifiers() {
            coordinator_ops_per_query[query_index] += (ft.len() * query.qvect_len()) as u64;
            unify_qualifiers(&ft, &roots[query_index], query.qvect_len(), &mut assignment);
        }
        if plan.finals_pending.is_empty() {
            continue;
        }
        coordinator_ops_per_query[query_index] += (ft.len() * query.init_len()) as u64;
        unify_selection(&ft, &virtuals[query_index], &plan.root_init, &mut assignment);
        for (&site, fragments) in &ctx.group_by_site(plan.finals_pending.iter().copied())? {
            let mut per_fragment = BTreeMap::new();
            for &fragment in fragments {
                per_fragment.insert(
                    fragment,
                    assignment.restrict_for_fragment(fragment, ft.children(fragment)),
                );
            }
            site_collect.entry(site).or_default().push(BatchCollectEntry {
                query_index,
                slot: slot_base + query_index,
                fragments: per_fragment,
            });
        }
    }

    // ---------------------------------------------- Stage 2 (collect, 1 visit)
    if !site_collect.is_empty() {
        let requests: BTreeMap<SiteId, ProtocolRequest> = site_collect
            .into_iter()
            .map(|(site, entries)| {
                (site, ProtocolRequest::BatchCollect(BatchCollectRequest { entries }))
            })
            .collect();
        let responses = ctx.round(requests)?;
        for response in responses.into_values() {
            for slice in response.into_batch_collect()?.per_query {
                answers[slice.query_index].extend(slice.answers);
            }
        }
    }

    // ------------------------------------------------------------- Reports
    let elapsed = start.elapsed();
    let stats = ctx.stats;
    let mut outcomes = Vec::with_capacity(query_count);
    for (query_index, mut query_answers) in answers.into_iter().enumerate() {
        query_answers.sort();
        query_answers.dedup();
        outcomes.push(QueryOutcome {
            query: texts[query_index].clone(),
            answers: query_answers,
            fragments_evaluated: plans[query_index].analysis.relevant.len(),
            coordinator_ops: coordinator_ops_per_query[query_index],
        });
    }
    Ok(ExecReport {
        algorithm: Algorithm::PaX2,
        annotations_used: options.use_annotations,
        mode: ExecMode::Batch,
        queries: outcomes,
        update: None,
        fragments_total: ft.len(),
        stats,
        coordinator_ops: coordinator_ops_per_query.iter().sum(),
        elapsed,
        from_cache: false,
        epoch,
        placement_version: topology.version,
    })
}
