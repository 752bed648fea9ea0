//! Cross-transport conformance, in-process edition: the same workload run
//! over a [`TcpCluster`] speaking real sockets to [`SiteServer`] threads
//! must produce bit-identical answers and meters to the `distsim`
//! simulator, for all three algorithms and for single queries, prepared
//! sessions, batches and update streams alike.
//!
//! Wall-clock meters (`busy_nanos`, `parallel_nanos`) legitimately differ
//! between the transports and are the only fields excluded from the
//! comparison. The process-level version of this oracle (sites as child
//! processes of the `paxml` binary) lives in the root package's
//! `tests/wire_cluster.rs`.

use paxml_core::{Algorithm, PaxResult, PaxServer};
use paxml_distsim::{ClusterStats, Placement, SiteId};
use paxml_fragment::FragmentedTree;
use paxml_wire::{SiteServer, TcpCluster};
use paxml_xmark::{clientele_fragmentation, UpdateWorkload, CLIENTELE_QUERY_EXAMPLES};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const SITES: usize = 4;

/// Bind `count` site servers on loopback and run each on its own thread.
/// The threads exit when the cluster's drop sends the shutdown message.
fn spawn_site_threads(count: usize) -> Vec<SocketAddr> {
    (0..count)
        .map(|_| {
            let server = SiteServer::bind("127.0.0.1:0").expect("bind site server");
            let addr = server.local_addr().expect("local addr");
            thread::spawn(move || server.run());
            addr
        })
        .collect()
}

/// A simulator server and a TCP server over fresh site threads, deployed
/// from the same fragmentation with the same placement.
fn paired_servers(
    fragmented: &FragmentedTree,
    algorithm: Algorithm,
) -> (PaxServer, PaxServer, Arc<TcpCluster>) {
    let sim = PaxServer::builder()
        .algorithm(algorithm)
        .sites(SITES)
        .placement(Placement::RoundRobin)
        .deploy(fragmented)
        .expect("deploy simulator server");
    let addrs = spawn_site_threads(SITES);
    let transport = Arc::new(
        TcpCluster::connect(fragmented, &addrs, Placement::RoundRobin)
            .expect("connect TCP cluster"),
    );
    let tcp = PaxServer::builder()
        .algorithm(algorithm)
        .deploy_over(fragmented, transport.clone())
        .expect("deploy TCP server");
    (sim, tcp, transport)
}

/// Every deterministic meter must agree; only wall-clock nanos may differ.
fn assert_stats_match(sim: &ClusterStats, tcp: &ClusterStats, context: &str) {
    assert_eq!(sim.rounds, tcp.rounds, "{context}: rounds diverged");
    assert_eq!(sim.messages, tcp.messages, "{context}: messages diverged");
    assert_eq!(sim.total_ops, tcp.total_ops, "{context}: total_ops diverged");
    assert_eq!(sim.parallel_ops, tcp.parallel_ops, "{context}: parallel_ops diverged");
    let sim_sites: Vec<SiteId> = sim.sites.keys().copied().collect();
    let tcp_sites: Vec<SiteId> = tcp.sites.keys().copied().collect();
    assert_eq!(sim_sites, tcp_sites, "{context}: different sites were visited");
    for (site, s) in &sim.sites {
        let t = &tcp.sites[site];
        assert_eq!(s.visits, t.visits, "{context}: visits diverged at site {site:?}");
        assert_eq!(s.ops, t.ops, "{context}: ops diverged at site {site:?}");
        assert_eq!(
            s.bytes_received, t.bytes_received,
            "{context}: bytes_received diverged at site {site:?}"
        );
        assert_eq!(s.bytes_sent, t.bytes_sent, "{context}: bytes_sent diverged at site {site:?}");
    }
}

/// Compare two execution reports field by field, excluding wall-clock.
fn assert_reports_match(
    sim: &PaxResult<paxml_core::ExecReport>,
    tcp: &PaxResult<paxml_core::ExecReport>,
    context: &str,
) {
    let sim = sim.as_ref().unwrap_or_else(|e| panic!("{context}: simulator failed: {e}"));
    let tcp = tcp.as_ref().unwrap_or_else(|e| panic!("{context}: TCP transport failed: {e}"));
    assert_eq!(sim.queries.len(), tcp.queries.len(), "{context}: query count diverged");
    for (qs, qt) in sim.queries.iter().zip(&tcp.queries) {
        assert_eq!(qs.query, qt.query, "{context}: query text diverged");
        assert_eq!(qs.answers, qt.answers, "{context}: answers diverged for {}", qs.query);
        assert_eq!(
            qs.fragments_evaluated, qt.fragments_evaluated,
            "{context}: fragments_evaluated diverged for {}",
            qs.query
        );
        assert_eq!(
            qs.coordinator_ops, qt.coordinator_ops,
            "{context}: coordinator_ops diverged for {}",
            qs.query
        );
    }
    if let (Some(us), Some(ut)) = (&sim.update, &tcp.update) {
        assert_eq!(us.dirty_fragments, ut.dirty_fragments, "{context}: dirty fragments diverged");
        assert_eq!(us.dirty_sites, ut.dirty_sites, "{context}: dirty sites diverged");
        assert_eq!(us.applied_ops, ut.applied_ops, "{context}: applied ops diverged");
        assert_eq!(us.rejected, ut.rejected, "{context}: rejected ops diverged");
    } else {
        assert_eq!(sim.update.is_some(), tcp.update.is_some(), "{context}: update presence");
    }
    assert_stats_match(&sim.stats, &tcp.stats, context);
}

#[test]
fn single_queries_match_simulator_for_all_algorithms() {
    let (_tree, fragmented) = clientele_fragmentation();
    for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX2, Algorithm::PaX3] {
        let (sim, tcp, _transport) = paired_servers(&fragmented, algorithm);
        for (query, _) in CLIENTELE_QUERY_EXAMPLES {
            let context = format!("{algorithm} {query}");
            assert_reports_match(&sim.query_once(query), &tcp.query_once(query), &context);
        }
        assert_stats_match(
            &sim.cumulative_stats(),
            &tcp.cumulative_stats(),
            &format!("{algorithm} cumulative"),
        );
    }
}

#[test]
fn sessions_batches_and_updates_match_simulator() {
    let (tree, fragmented) = clientele_fragmentation();
    for algorithm in [Algorithm::PaX2, Algorithm::PaX3] {
        let (sim, tcp, transport) = paired_servers(&fragmented, algorithm);
        let queries: Vec<&str> = CLIENTELE_QUERY_EXAMPLES.iter().take(3).map(|(q, _)| *q).collect();

        // Prepared single executions.
        for query in &queries {
            let ps = sim.prepare(query).expect("prepare on simulator");
            let pt = tcp.prepare(query).expect("prepare on TCP");
            assert_reports_match(
                &sim.execute(&ps),
                &tcp.execute(&pt),
                &format!("{algorithm} execute {query}"),
            );
        }

        // A batch over the same prepared set.
        assert_reports_match(
            &sim.execute_batch_text(&queries),
            &tcp.execute_batch_text(&queries),
            &format!("{algorithm} batch"),
        );

        // Update batches interleaved with re-executions: both transports
        // must apply the same deltas and serve identical refreshed answers.
        let mut sim_workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 0x5eed);
        let mut tcp_workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 0x5eed);
        for round in 0..3 {
            let sim_batch = sim_workload.next_batch(4, 2);
            let tcp_batch = tcp_workload.next_batch(4, 2);
            assert_reports_match(
                &sim.apply_updates(&sim_batch),
                &tcp.apply_updates(&tcp_batch),
                &format!("{algorithm} update round {round}"),
            );
            assert_reports_match(
                &sim.execute_text(queries[0]),
                &tcp.execute_text(queries[0]),
                &format!("{algorithm} post-update execute round {round}"),
            );
        }
        assert_stats_match(
            &sim.cumulative_stats(),
            &tcp.cumulative_stats(),
            &format!("{algorithm} cumulative after updates"),
        );

        // Scratch hygiene over the wire: after the workload, every site's
        // parked scratch is visible through the transport and reset()
        // clears both scratch and meters.
        use paxml_core::Transport;
        for site in 0..SITES {
            let _ = transport.scratch_len(SiteId(site));
        }
        transport.reset();
        let zeroed = transport.stats();
        assert_eq!(zeroed.rounds, 0, "reset must zero the round meter");
        assert_eq!(zeroed.total_ops, 0, "reset must zero the ops meter");
        for site in 0..SITES {
            assert_eq!(transport.scratch_len(SiteId(site)), 0, "reset must clear site scratch");
        }
    }
}

/// Loopback rounds must not wait on a Nagle/delayed-ACK timer. A site that
/// writes its reply in two pieces without `TCP_NODELAY` holds the second
/// piece for the coordinator's delayed ACK, ~40 ms a round trip: 200 of them
/// then take 8 s or more, against well under 0.1 s without the stall even in
/// a debug build. The 2 s bound leaves a 20x margin on both sides.
#[test]
fn loopback_round_trips_do_not_stall_on_delayed_acks() {
    use paxml_core::Transport;
    let (_tree, fragmented) = clientele_fragmentation();
    let transport = TcpCluster::connect(&fragmented, &spawn_site_threads(1), Placement::RoundRobin)
        .expect("connect a one-site cluster");
    let start = Instant::now();
    for _ in 0..200 {
        assert!(transport.probe(SiteId(0)), "a live site failed its probe");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(2), "200 probe round trips took {elapsed:?}");
    drop(transport);

    // Whole queries over three sites still answer like the simulator.
    const QUERY_SITES: usize = 3;
    let sim = PaxServer::builder()
        .sites(QUERY_SITES)
        .placement(Placement::RoundRobin)
        .deploy(&fragmented)
        .expect("deploy simulator server");
    let transport =
        TcpCluster::connect(&fragmented, &spawn_site_threads(QUERY_SITES), Placement::RoundRobin)
            .expect("connect a three-site cluster");
    let tcp = PaxServer::builder()
        .deploy_over(&fragmented, Arc::new(transport))
        .expect("deploy TCP server");
    for (query, _) in CLIENTELE_QUERY_EXAMPLES.iter().cycle().take(20) {
        let expected = sim.query_once(query).expect("simulator answers");
        let got = tcp.query_once(query).expect("TCP answers");
        assert_eq!(got.answer_texts(), expected.answer_texts(), "answers diverged for {query}");
    }
}
