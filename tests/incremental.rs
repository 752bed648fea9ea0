//! Property-based tests of incremental re-evaluation through the
//! `PaxServer` session API: for random XMark update streams, a prepared
//! query maintained across `apply_updates` rounds must return
//! **bit-identical answers** to a from-scratch PaX2 evaluation over the
//! updated data, while visiting **only dirty sites** (clean-site visit
//! count asserted to be 0) and serving re-executions from the cache with
//! zero visits; its traffic must scale with the number of dirty fragments —
//! not with the data size.

use paxml::prelude::*;
use paxml_fragment::FragmentId;
use paxml_xmark::{ft1, ft2, UpdateWorkload};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Queries exercising qualifiers, `//`, and pruning over the XMark schema.
const QUERIES: &[&str] = &[
    "/sites/site/people/person",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "//person[address/country=\"US\"]/name",
    "/sites/site/open_auctions//annotation",
    "//people/person/name",
];

fn pax2_server(fragmented: &FragmentedTree, sites: usize, annotations: bool) -> PaxServer {
    PaxServer::builder()
        .algorithm(Algorithm::PaX2)
        .annotations(annotations)
        .placement(Placement::RoundRobin)
        .sites(sites)
        .sequential(true)
        .deploy(fragmented)
        .expect("valid configuration")
}

/// From-scratch PaX2 over the workload's mirror of the updated fragments.
/// Returns the full `AnswerItem`s (origin, fragment, label, text) so the
/// bit-identity checks catch stale cached labels/texts, not just node ids.
fn from_scratch(
    mirror: &FragmentedTree,
    query: &str,
    annotations: bool,
    sites: usize,
) -> Vec<AnswerItem> {
    pax2_server(mirror, sites, annotations).query_once(query).unwrap().answers().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// The acceptance property: random update streams over FT1/FT2
    /// topologies, incremental == from-scratch, zero clean-site visits.
    #[test]
    fn incremental_matches_from_scratch_and_never_visits_clean_sites(
        seed in 0u64..1000,
        use_ft2 in prop::bool::ANY,
        query_index in 0usize..QUERIES.len(),
        use_annotations in prop::bool::ANY,
        rounds in 1usize..4,
        ops_per_batch in 1usize..6,
        max_dirty in 1usize..3,
    ) {
        let (tree, fragmented) =
            if use_ft2 { ft2(0.4, seed) } else { ft1(4, 0.4, seed) };
        let query = QUERIES[query_index];
        let sites = 4;

        let server = pax2_server(&fragmented, sites, use_annotations);
        let prepared = server.prepare(query).unwrap();
        let initial = server.execute(&prepared).unwrap();
        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), seed ^ 0xab);

        // The initial evaluation must already agree with from-scratch PaX2.
        prop_assert_eq!(
            initial.answers(),
            &from_scratch(workload.mirror(), query, use_annotations, sites)[..],
            "initial evaluation differs on {}", query
        );

        for round in 0..rounds {
            let batch = workload.next_batch(ops_per_batch, max_dirty);
            if batch.is_empty() {
                continue;
            }
            let report = server.apply_updates(&batch).unwrap();
            let outcome = report.update.clone().expect("update reports carry an update slice");

            // Every op the mirror accepted must have been accepted site-side.
            prop_assert!(outcome.rejected.is_empty(), "rejected: {:?}", outcome.rejected);
            prop_assert_eq!(outcome.applied_ops, batch.len());

            // The visit guarantee: zero visits to clean sites, at most two
            // (in fact one) to each dirty site — the update round maintains
            // the prepared query's cache in its one visit.
            prop_assert_eq!(report.clean_site_visits(), 0);
            prop_assert!(report.max_visits_per_site() <= 2);
            let total_visits: u32 = report.visits_per_site().values().sum();
            prop_assert!(
                total_visits <= 2 * outcome.dirty_sites.len() as u32,
                "visits {} exceed 2·|dirty sites| = {}",
                total_visits, 2 * outcome.dirty_sites.len()
            );

            // Bit-identical answers vs. a from-scratch evaluation of the
            // updated data — and the re-execution costs zero visits.
            let reexec = server.execute(&prepared).unwrap();
            prop_assert!(reexec.from_cache);
            prop_assert_eq!(reexec.max_visits_per_site(), 0);
            let expected = from_scratch(workload.mirror(), query, use_annotations, sites);
            prop_assert_eq!(
                reexec.answers(), &expected[..],
                "round {}: incremental differs from from-scratch on {} (XA={}, batch {:?})",
                round, query, use_annotations,
                batch.iter().map(|(f, op)| (f.index(), op.kind())).collect::<Vec<_>>()
            );
        }
    }
}

/// Traffic scales with the number of dirty fragments, not with data size:
/// the same one-fragment edit costs (almost) the same bytes on a deployment
/// four times larger, while from-scratch re-evaluation traffic grows with
/// the fragment count.
#[test]
fn incremental_traffic_is_independent_of_data_size() {
    let query = "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard";

    let bytes_for = |fragments: usize, vmb: f64| -> (u64, u64) {
        let (tree, fragmented) = ft1(fragments, vmb, 3);
        let server = pax2_server(&fragmented, fragments, false);
        let prepared = server.prepare(query).unwrap();
        server.execute(&prepared).unwrap();
        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 99);
        // Average a few single-dirty-fragment batches.
        let mut incremental_bytes = 0;
        let mut rounds = 0;
        for _ in 0..4 {
            let batch = workload.next_batch(2, 1);
            if batch.is_empty() {
                continue;
            }
            let report = server.apply_updates(&batch).unwrap();
            assert_eq!(report.clean_site_visits(), 0);
            incremental_bytes += report.network_bytes();
            rounds += 1;
        }
        assert!(rounds > 0);

        // From-scratch reference traffic over the same updated data.
        let scratch = pax2_server(workload.mirror(), fragments, false).query_once(query).unwrap();
        (incremental_bytes / rounds, scratch.network_bytes())
    };

    let (small_inc, small_scratch) = bytes_for(4, 0.5);
    let (large_inc, large_scratch) = bytes_for(16, 2.0);

    // From-scratch traffic grows with the fragment count (the O(|Q|·|FT|)
    // term); incremental traffic stays within a small constant of the small
    // deployment's — it pays per dirty fragment, not per fragment.
    assert!(
        large_scratch as f64 > small_scratch as f64 * 2.0,
        "from-scratch traffic should grow with |FT|: {small_scratch} -> {large_scratch}"
    );
    assert!(
        (large_inc as f64) < small_inc as f64 * 2.0,
        "incremental traffic must not scale with data size: {small_inc} -> {large_inc}"
    );
}

/// Growing the number of dirty fragments grows incremental traffic roughly
/// proportionally — the |dirty| term is what the re-evaluation pays for.
#[test]
fn incremental_traffic_scales_with_dirty_fragment_count() {
    let query = "//people/person/name";
    let (tree, fragmented) = ft1(12, 1.5, 5);
    let nodes = tree.all_nodes().count();

    let avg_bytes = |dirty: usize| -> u64 {
        let server = pax2_server(&fragmented, 12, false);
        let prepared = server.prepare(query).unwrap();
        server.execute(&prepared).unwrap();
        let mut workload = UpdateWorkload::new(&fragmented, nodes, 41);
        let mut total = 0;
        let mut rounds = 0;
        for _ in 0..4 {
            let batch = workload.next_batch(dirty * 2, dirty);
            let dirtied: BTreeSet<FragmentId> = batch.iter().map(|(f, _)| *f).collect();
            if dirtied.len() != dirty {
                continue;
            }
            let report = server.apply_updates(&batch).unwrap();
            assert_eq!(report.update.as_ref().unwrap().dirty_fragments.len(), dirty);
            total += report.network_bytes();
            rounds += 1;
        }
        assert!(rounds > 0, "no batch dirtied exactly {dirty} fragments");
        total / rounds
    };

    let one = avg_bytes(1);
    let eight = avg_bytes(8);
    assert!(
        eight > one * 3,
        "8 dirty fragments should cost several times 1 dirty fragment: {one} -> {eight}"
    );
}

/// Two clients with one broker each: Anna (US, E*trade) and Lisa (Canada,
/// CIBC).
fn two_clients() -> XmlTree {
    TreeBuilder::new("clientele")
        .open("client")
        .leaf("name", "Anna")
        .leaf("country", "US")
        .open("broker")
        .leaf("name", "E*trade")
        .open("market")
        .leaf("name", "NASDAQ")
        .open("stock")
        .leaf("code", "GOOG")
        .leaf("buy", "$374")
        .leaf("qt", "40")
        .close()
        .close()
        .close()
        .close()
        .open("client")
        .leaf("name", "Lisa")
        .leaf("country", "Canada")
        .open("broker")
        .leaf("name", "CIBC")
        .open("market")
        .leaf("name", "TSE")
        .open("stock")
        .leaf("code", "GOOG")
        .leaf("buy", "$382")
        .leaf("qt", "90")
        .close()
        .close()
        .close()
        .close()
        .build()
}

/// The text node under the first `label` element of `tree`.
fn text_node_of(tree: &XmlTree, label: &str) -> paxml::xml::NodeId {
    let element = tree.find_first(label).unwrap();
    tree.children(element).next().unwrap()
}

/// Editing Lisa's country (root fragment) flips the qualifier that decides
/// the *clean* CIBC broker fragment's candidate answer: the cached formula
/// is re-resolved at the coordinator, so that fragment is neither visited
/// nor recomputed.
#[test]
fn a_clean_fragment_update_flips_answers_without_visiting_the_fragment() {
    let fragmented = strategy::cut_at_labels(&two_clients(), &["broker"]).unwrap();
    let mut mirror = fragmented.clone();
    let query = "client[country/text()='US']/broker/name";
    let server = pax2_server(&fragmented, 3, false);
    let prepared = server.prepare(query).unwrap();
    assert_eq!(server.execute(&prepared).unwrap().answer_texts(), vec!["E*trade".to_string()]);

    let root_tree = &mirror.fragments[0].tree;
    let lisa_country = root_tree.children(root_tree.find_all("country")[1]).next().unwrap();
    let edit = UpdateOp::EditText { node: lisa_country, text: "US".into() };
    paxml_fragment::apply_update(&mut mirror.fragments[0], &edit).unwrap();
    let report = server.apply_updates(&[(FragmentId(0), edit)]).unwrap();
    let outcome = report.update.clone().unwrap();
    assert_eq!(outcome.dirty_fragments.len(), 1);
    assert_eq!(report.clean_site_visits(), 0, "clean sites must not be visited");
    assert_eq!(report.max_visits_per_site(), 1);
    assert_eq!(outcome.recomputed_fragments, 1, "only the edited fragment is recomputed");

    let reexec = server.execute(&prepared).unwrap();
    assert!(reexec.from_cache);
    assert_eq!(reexec.answer_texts(), vec!["E*trade".to_string(), "CIBC".to_string()]);
    assert_eq!(reexec.answers(), &from_scratch(&mirror, query, false, 3)[..]);
}

/// With annotations, `client/name` prunes the broker fragments: an update
/// there is still applied (the data changes) though no vectors are
/// recomputed, and a later query over the same server sees the edit.
#[test]
fn annotation_pruned_fragments_still_take_their_updates() {
    let fragmented = strategy::cut_at_labels(&two_clients(), &["broker"]).unwrap();
    let server = pax2_server(&fragmented, 3, true);
    let prepared = server.prepare("client/name").unwrap();
    let names = vec!["Anna".to_string(), "Lisa".to_string()];
    assert_eq!(server.execute(&prepared).unwrap().answer_texts(), names);

    let f1_name = text_node_of(&fragmented.fragments[1].tree, "name");
    let report = server
        .apply_updates(&[(
            FragmentId(1),
            UpdateOp::EditText { node: f1_name, text: "Fidelity".into() },
        )])
        .unwrap();
    let outcome = report.update.unwrap();
    assert_eq!(outcome.recomputed_fragments, 0, "pruned fragments need no recompute");
    assert_eq!(outcome.applied_ops, 1);
    assert_eq!(server.execute(&prepared).unwrap().answer_texts(), names);
    let brokers = server.query_once("client/broker/name").unwrap().answer_texts();
    assert!(brokers.contains(&"Fidelity".to_string()), "the edit must reach the data: {brokers:?}");
}

/// A rejected op (deleting a fragment root) is reported and leaves the
/// cached answers as they were; an unknown fragment fails before any visit;
/// an empty batch visits nothing.
#[test]
fn rejected_ops_and_empty_batches_leave_cached_answers_unchanged() {
    let fragmented = strategy::cut_at_labels(&two_clients(), &["broker"]).unwrap();
    let server = pax2_server(&fragmented, 3, false);
    let prepared = server.prepare("client/broker/name").unwrap();
    let before = server.execute(&prepared).unwrap().answers().to_vec();

    let f1_root = fragmented.fragments[1].tree.root();
    let report = server
        .apply_updates(&[(FragmentId(1), UpdateOp::DeleteSubtree { node: f1_root })])
        .unwrap();
    let outcome = report.update.unwrap();
    assert_eq!(outcome.applied_ops, 0);
    assert!(outcome.rejected.contains_key(&FragmentId(1)));
    assert_eq!(server.execute(&prepared).unwrap().answers(), &before[..]);

    let rounds = server.cumulative_stats().rounds;
    assert!(server
        .apply_updates(&[(FragmentId(99), UpdateOp::DeleteSubtree { node: f1_root })])
        .is_err());
    let empty = server.apply_updates(&[]).unwrap();
    assert!(empty.update.as_ref().unwrap().dirty_fragments.is_empty());
    assert!(empty.visits_per_site().is_empty());
    assert_eq!(empty.network_bytes(), 0);
    assert_eq!(server.cumulative_stats().rounds, rounds, "neither call may visit a site");
    assert_eq!(server.execute(&prepared).unwrap().answers(), &before[..]);
}

/// A long chain of fragments: an edit to the deepest one re-unifies only
/// its own cone for a qualifier-free query, not the whole tree.
#[test]
fn dirty_cone_reunification_stays_local() {
    let mut builder = TreeBuilder::new("r");
    for i in 0..8 {
        builder = builder.open("c").leaf("v", format!("{i}"));
    }
    for _ in 0..8 {
        builder = builder.close();
    }
    let fragmented = strategy::cut_at_labels(&builder.build(), &["c"]).unwrap();
    assert_eq!(fragmented.fragment_count(), 9);
    let server = pax2_server(&fragmented, 4, false);
    let prepared = server.prepare("//v").unwrap();
    assert_eq!(server.execute(&prepared).unwrap().answers().len(), 8);

    let v_text = text_node_of(&fragmented.fragments[8].tree, "v");
    let report = server
        .apply_updates(&[(
            FragmentId(8),
            UpdateOp::EditText { node: v_text, text: "edited".into() },
        )])
        .unwrap();
    let reunified = report.update.as_ref().unwrap().reunified_fragments;
    assert!(reunified <= 2, "a leaf update must re-unify only its cone, got {reunified}");
    assert_eq!(report.clean_site_visits(), 0);
    let reexec = server.execute(&prepared).unwrap();
    assert_eq!(reexec.answers().len(), 8);
    assert!(reexec.answer_texts().contains(&"edited".to_string()));
}
