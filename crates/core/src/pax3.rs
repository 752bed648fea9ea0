//! Algorithm **PaX3** (§3): three stages, at most three visits per site.
//!
//! * **Stage 1** — every site partially evaluates the qualifiers of the
//!   query over each of its fragments, bottom-up (the extended ParBoX of
//!   §3.1), and ships the root `QV`/`QDV` vectors to the coordinator, which
//!   unifies them over the fragment tree (`evalFT`).
//! * **Stage 2** — every (relevant) site evaluates the selection path
//!   top-down over each fragment, with qualifiers now fully known, starting
//!   from an unknown ancestor summary (fresh variables) unless the fragment
//!   is the root fragment or the XPath-annotation optimization provides an
//!   exact summary. Sites ship one vector per virtual node; the coordinator
//!   unifies them top-down.
//! * **Stage 3** — sites resolve their candidate answers with the now-known
//!   ancestor summaries and ship exactly the answer nodes.
//!
//! When the query has no qualifiers Stage 1 is skipped; when the
//! XPath-annotation optimization provides exact ancestor summaries Stage 3
//! is skipped as well — matching the visit counts measured in Experiment 1.

use crate::deployment::{Deployment, ExecCtx};
use crate::error::PaxResult;
use crate::protocol::{CollectRequest, InitVector, QualRequest, SelFragmentInput, SelRequest};
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

/// The PaX3 driver: the three-stage protocol, reported as a unified
/// [`ExecReport`] whose cluster meters cover exactly this execution. Takes
/// the deployment *shared*: any number of runs may execute concurrently,
/// each with its own recorder and scratch slot.
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

    // ----------------------------------------------------------------- Stage 1
    let mut assignment = DenseAssignment::new(ft.len());
    if query.has_qualifiers() {
        let requests = stage1_requests(&mut ctx, &topology, query, slot, &analysis.relevant)?;
        let responses = ctx.round(requests)?;
        let mut roots: BTreeMap<FragmentId, QualVectors<PaxVar>> = BTreeMap::new();
        for response in responses.into_values() {
            roots.extend(response.into_qual()?.roots);
        }
        coordinator_ops += (ft.len() * query.qvect_len()) as u64;
        unify_qualifiers(&ft, &roots, query.qvect_len(), &mut assignment);
    }

    // ----------------------------------------------------------------- Stage 2
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
            let exact = matches!(init, InitVector::Exact(_));
            if !exact {
                finals_pending.push(fragment);
            }
            let qual_values = if query.has_qualifiers() {
                assignment.restrict_for_fragment(fragment, ft.children(fragment))
            } else {
                Vec::new()
            };
            inputs.insert(
                fragment,
                SelFragmentInput {
                    qual_values,
                    init,
                    root_is_context: fragment == FragmentId::ROOT && !query.absolute,
                    collect_answers_now: exact,
                },
            );
        }
        requests.insert(
            site,
            ProtocolRequest::Sel(SelRequest { slot, query: query.clone(), fragments: inputs }),
        );
    }
    let responses = ctx.round(requests)?;
    let mut virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>> = BTreeMap::new();
    for response in responses.into_values() {
        let response = response.into_sel()?;
        virtuals.extend(response.virtuals);
        answers.extend(response.answers);
    }

    // ----------------------------------------------------------------- Stage 3
    if !finals_pending.is_empty() {
        coordinator_ops += (ft.len() * query.init_len()) as u64;
        unify_selection(&ft, &virtuals, &root_init, &mut assignment);
        let mut requests: BTreeMap<paxml_distsim::SiteId, ProtocolRequest> = BTreeMap::new();
        for (&site, fragments) in &ctx.group_by_site(finals_pending.iter().copied())? {
            let mut per_fragment = BTreeMap::new();
            for &fragment in fragments {
                per_fragment.insert(fragment, assignment.restrict_for_fragment(fragment, &[]));
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
        algorithm: Algorithm::PaX3,
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

/// Build the Stage-1 requests: every site is asked to evaluate the
/// qualifiers over *all* of its fragments (the annotation optimization only
/// kicks in from Stage 2 onward, exactly as in the paper). Only the
/// `relevant` fragments park their per-node vectors site-side — Stage 2
/// visits exactly those, so anything else parked would never be taken back.
fn stage1_requests(
    ctx: &mut crate::deployment::ExecCtx<'_>,
    topology: &crate::deployment::Topology,
    query: &CompiledQuery,
    slot: usize,
    relevant: &std::collections::BTreeSet<FragmentId>,
) -> crate::error::PaxResult<BTreeMap<paxml_distsim::SiteId, ProtocolRequest>> {
    let all: Vec<FragmentId> = topology.fragment_tree.ids().to_vec();
    Ok(ctx
        .group_by_site(all)?
        .into_iter()
        .map(|(site, fragments)| {
            let park: Vec<FragmentId> =
                fragments.iter().copied().filter(|f| relevant.contains(f)).collect();
            (
                site,
                ProtocolRequest::Qual(QualRequest { slot, query: query.clone(), fragments, park }),
            )
        })
        .collect())
}
