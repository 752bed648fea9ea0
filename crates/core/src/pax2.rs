//! Algorithm **PaX2** (§4): two stages, at most two visits per site.
//!
//! PaX2 folds the first two stages of PaX3 into one traversal per fragment:
//! a pre-order computation of the selection vectors (with placeholder
//! variables for the still-unknown qualifier values) and a post-order
//! computation of the qualifier vectors, unified locally once a node's
//! subtree has been fully visited (Examples 4.1–4.3). One coordinator round
//! later, the sites learn the truth values of their residual variables and
//! ship exactly the answer nodes.
//!
//! With the XPath-annotation optimization PaX2 additionally restricts the
//! combined pass to the relevant fragments — unlike PaX3, whose Stage 1 must
//! still touch every fragment — which is why `PaX2-XA` wins on Q3 in the
//! paper's Figure 10(c).

use crate::deployment::{Deployment, ExecCtx};
use crate::error::PaxResult;
use crate::protocol::{CollectRequest, CombinedFragmentInput, CombinedRequest, InitVector};
use crate::prune::{analyze_with_trie, AnnotationAnalysis};
use crate::report::{Algorithm, AnswerItem, ExecMode, ExecReport, QueryOutcome};
use crate::transport::ProtocolRequest;
use crate::unify::{unify_qualifiers, unify_selection, DenseAssignment};
use crate::vars::PaxVar;
use crate::EvalOptions;
use paxml_boolex::{BitVector, CompactVector};
use paxml_fragment::FragmentId;
use paxml_xpath::eval::{initial_vector, QualVectors};
use paxml_xpath::CompiledQuery;
use std::collections::BTreeMap;
use std::time::Instant;

/// The PaX2 driver: the two-visit protocol, reported as a unified
/// [`ExecReport`] whose cluster meters cover exactly this execution. Takes
/// the deployment *shared*: any number of PaX2 runs may execute
/// concurrently, each with its own recorder and scratch slot.
pub(crate) fn run(
    deployment: &Deployment,
    query: &CompiledQuery,
    query_text: &str,
    options: &EvalOptions,
    epoch: u64,
) -> PaxResult<ExecReport> {
    let start = Instant::now();
    let mut ctx = ExecCtx::pinned(deployment, epoch, 0);
    let topology = ctx.topology();
    let slot = deployment.allocate_slots(1);
    let ft = topology.fragment_tree.clone();
    let analysis = if options.use_annotations {
        analyze_with_trie(query, &topology.path_trie(&deployment.root_label))
    } else {
        AnnotationAnalysis::keep_all(&ft)
    };
    let mut coordinator_ops: u64 = 0;
    let mut answers: Vec<AnswerItem> = Vec::new();

    // ------------------------------------------------------- Stage 1 (combined)
    let root_init: Vec<bool> = initial_vector(query, &deployment.root_label);
    let mut requests: BTreeMap<paxml_distsim::SiteId, ProtocolRequest> = BTreeMap::new();
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
            // Answers are certain after the combined pass only when both the
            // ancestor summary is exact *and* no qualifier can depend on a
            // missing sub-fragment — i.e. the query has no qualifiers at all.
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
        requests.insert(
            site,
            ProtocolRequest::Combined(CombinedRequest {
                slot,
                query: query.clone(),
                fragments: inputs,
            }),
        );
    }
    let responses = ctx.round(requests)?;
    let mut roots: BTreeMap<FragmentId, QualVectors<PaxVar>> = BTreeMap::new();
    let mut virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>> = BTreeMap::new();
    for response in responses.into_values() {
        let response = response.into_combined()?;
        roots.extend(response.roots);
        virtuals.extend(response.virtuals);
        answers.extend(response.answers);
    }

    // ------------------------------------------------------------ Coordinator
    let mut assignment = DenseAssignment::new(ft.len());
    if query.has_qualifiers() {
        coordinator_ops += (ft.len() * query.qvect_len()) as u64;
        unify_qualifiers(&ft, &roots, query.qvect_len(), &mut assignment);
    }

    // ----------------------------------------------------- Stage 2 (collection)
    if !finals_pending.is_empty() {
        coordinator_ops += (ft.len() * query.init_len()) as u64;
        unify_selection(&ft, &virtuals, &root_init, &mut assignment);
        let mut requests: BTreeMap<paxml_distsim::SiteId, ProtocolRequest> = BTreeMap::new();
        for (&site, fragments) in &ctx.group_by_site(finals_pending.iter().copied())? {
            let mut per_fragment = BTreeMap::new();
            for &fragment in fragments {
                per_fragment.insert(
                    fragment,
                    assignment.restrict_for_fragment(fragment, ft.children(fragment)),
                );
            }
            requests.insert(
                site,
                ProtocolRequest::Collect(CollectRequest { slot, fragments: per_fragment }),
            );
        }
        let responses = ctx.round(requests)?;
        for response in responses.into_values() {
            answers.extend(response.into_collect()?.answers);
        }
    }

    answers.sort();
    answers.dedup();
    Ok(ExecReport {
        algorithm: Algorithm::PaX2,
        annotations_used: options.use_annotations,
        mode: ExecMode::Query,
        queries: vec![QueryOutcome {
            query: query_text.to_string(),
            answers,
            fragments_evaluated: analysis.relevant.len(),
            coordinator_ops,
        }],
        update: None,
        fragments_total: ft.len(),
        stats: ctx.stats,
        coordinator_ops,
        elapsed: start.elapsed(),
        from_cache: false,
        epoch,
        placement_version: topology.version,
    })
}
