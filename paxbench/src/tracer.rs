//! An outside-in tracer: a [`Transport`] that wraps the real one, times
//! every coordinator round, and re-encodes each round's actual messages
//! through the wire codec to time it. The server sees an ordinary
//! transport (it is handed in through `PaxServerBuilder::deploy_over`), so
//! answers and meters are those of the wrapped transport.

use paxml::core::{EpochRequest, PaxResult, ProtocolResponse, TcpOptions, Transport};
use paxml::distsim::{
    Cluster, ClusterStats, FaultPlan, ReplicaSet, SiteId, SiteLoadReport, SiteStats,
};
use paxml::fragment::FragmentId;
use paxml::wire::{decode, encode};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Running totals over every round the tracer has seen. All counters only
/// grow; a measurement window is the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Rounds delivered successfully.
    pub rounds: u64,
    /// Rounds the wrapped transport failed.
    pub round_errors: u64,
    /// Wall time inside the wrapped `round_recorded`, summed over rounds.
    pub round_nanos: u64,
    /// Wall time during which at least one round was in flight. Equals
    /// `round_nanos` for one client; with several it does not count twice
    /// the time one round waits while another holds the link.
    pub link_busy_nanos: u64,
    /// Busy time of each round's slowest site (the program's meter), summed.
    pub busy_max_nanos: u64,
    /// Busy time of every site (the program's meter), summed.
    pub busy_sum_nanos: u64,
    /// Site operations, summed over sites and rounds.
    pub site_ops: u64,
    /// Time to encode every request and response once more.
    pub encode_nanos: u64,
    /// Time to decode those encodings back.
    pub decode_nanos: u64,
    /// Encoded request bytes.
    pub request_bytes: u64,
    /// Encoded response bytes.
    pub response_bytes: u64,
    /// Messages whose re-encoding failed to decode, or whose encoded size
    /// differs from the bytes the transport charged for them.
    pub codec_mismatches: u64,
}

impl TraceTotals {
    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &TraceTotals) -> TraceTotals {
        TraceTotals {
            rounds: self.rounds - earlier.rounds,
            round_errors: self.round_errors - earlier.round_errors,
            round_nanos: self.round_nanos - earlier.round_nanos,
            link_busy_nanos: self.link_busy_nanos - earlier.link_busy_nanos,
            busy_max_nanos: self.busy_max_nanos - earlier.busy_max_nanos,
            busy_sum_nanos: self.busy_sum_nanos - earlier.busy_sum_nanos,
            site_ops: self.site_ops - earlier.site_ops,
            encode_nanos: self.encode_nanos - earlier.encode_nanos,
            decode_nanos: self.decode_nanos - earlier.decode_nanos,
            request_bytes: self.request_bytes - earlier.request_bytes,
            response_bytes: self.response_bytes - earlier.response_bytes,
            codec_mismatches: self.codec_mismatches - earlier.codec_mismatches,
        }
    }

    /// Add the counters of `other`, a window of another deployment.
    pub fn add(&mut self, other: &TraceTotals) {
        self.rounds += other.rounds;
        self.round_errors += other.round_errors;
        self.round_nanos += other.round_nanos;
        self.link_busy_nanos += other.link_busy_nanos;
        self.busy_max_nanos += other.busy_max_nanos;
        self.busy_sum_nanos += other.busy_sum_nanos;
        self.site_ops += other.site_ops;
        self.encode_nanos += other.encode_nanos;
        self.decode_nanos += other.decode_nanos;
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        self.codec_mismatches += other.codec_mismatches;
    }
}

/// The atomic form of [`TraceTotals`]: statistics only, so every update is
/// `Relaxed`.
#[derive(Default)]
struct Counters {
    rounds: AtomicU64,
    round_errors: AtomicU64,
    round_nanos: AtomicU64,
    link_busy_nanos: AtomicU64,
    busy_max_nanos: AtomicU64,
    busy_sum_nanos: AtomicU64,
    site_ops: AtomicU64,
    encode_nanos: AtomicU64,
    decode_nanos: AtomicU64,
    request_bytes: AtomicU64,
    response_bytes: AtomicU64,
    codec_mismatches: AtomicU64,
}

fn add(counter: &AtomicU64, value: u64) {
    counter.fetch_add(value, Ordering::Relaxed);
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A transport that delegates every call to `inner` and traces its rounds.
pub struct Tracer {
    inner: Arc<dyn Transport>,
    counters: Counters,
    in_flight: Mutex<InFlight>,
}

/// Rounds in flight right now, and since when at least one has been.
#[derive(Default)]
struct InFlight {
    rounds: usize,
    since: Option<Instant>,
}

impl Tracer {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Transport>) -> Tracer {
        Tracer { inner, counters: Counters::default(), in_flight: Mutex::default() }
    }

    /// A snapshot of the running totals.
    pub fn totals(&self) -> TraceTotals {
        let c = &self.counters;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        TraceTotals {
            rounds: get(&c.rounds),
            round_errors: get(&c.round_errors),
            round_nanos: get(&c.round_nanos),
            link_busy_nanos: get(&c.link_busy_nanos),
            busy_max_nanos: get(&c.busy_max_nanos),
            busy_sum_nanos: get(&c.busy_sum_nanos),
            site_ops: get(&c.site_ops),
            encode_nanos: get(&c.encode_nanos),
            decode_nanos: get(&c.decode_nanos),
            request_bytes: get(&c.request_bytes),
            response_bytes: get(&c.response_bytes),
            codec_mismatches: get(&c.codec_mismatches),
        }
    }

    /// Time `encode` and then `decodes` on its output, and return the
    /// encoded length (`None` when the bytes do not decode).
    fn roundtrip(
        &self,
        encode: impl FnOnce() -> Vec<u8>,
        decodes: impl FnOnce(&[u8]) -> bool,
    ) -> Option<u64> {
        let start = Instant::now();
        let bytes = encode();
        add(&self.counters.encode_nanos, nanos_since(start));
        let start = Instant::now();
        let ok = decodes(&bytes);
        add(&self.counters.decode_nanos, nanos_since(start));
        ok.then_some(bytes.len() as u64)
    }

    fn round_started(&self) {
        let mut in_flight = self.in_flight.lock().expect("the in-flight lock is never poisoned");
        if in_flight.rounds == 0 {
            in_flight.since = Some(Instant::now());
        }
        in_flight.rounds += 1;
    }

    fn round_ended(&self) {
        let mut in_flight = self.in_flight.lock().expect("the in-flight lock is never poisoned");
        in_flight.rounds -= 1;
        if in_flight.rounds == 0 {
            if let Some(since) = in_flight.since.take() {
                add(&self.counters.link_busy_nanos, nanos_since(since));
            }
        }
    }

    /// Check one message's re-encoded size against what the transport
    /// charged for it.
    fn check_size(&self, encoded: Option<u64>, charged: u64) {
        if encoded != Some(charged) {
            add(&self.counters.codec_mismatches, 1);
        }
    }
}

/// The busy time, operations and byte meters one round added to `recorder`.
fn site_delta(before: &ClusterStats, after: &ClusterStats, site: SiteId) -> SiteStats {
    let old = before.sites.get(&site).cloned().unwrap_or_default();
    let new = after.sites.get(&site).cloned().unwrap_or_default();
    SiteStats {
        visits: new.visits - old.visits,
        ops: new.ops - old.ops,
        busy_nanos: new.busy_nanos - old.busy_nanos,
        bytes_received: new.bytes_received - old.bytes_received,
        bytes_sent: new.bytes_sent - old.bytes_sent,
    }
}

impl Transport for Tracer {
    fn round_recorded(
        &self,
        recorder: &mut ClusterStats,
        requests: BTreeMap<SiteId, EpochRequest>,
    ) -> PaxResult<BTreeMap<SiteId, ProtocolResponse>> {
        let request_sizes: BTreeMap<SiteId, Option<u64>> = requests
            .iter()
            .map(|(site, request)| {
                let size = self
                    .roundtrip(|| encode(request), |bytes| decode::<EpochRequest>(bytes).is_ok());
                (*site, size)
            })
            .collect();
        let before = recorder.clone();
        let start = Instant::now();
        self.round_started();
        let result = self.inner.round_recorded(recorder, requests);
        self.round_ended();
        let wall = nanos_since(start);
        let responses = match result {
            Ok(responses) => responses,
            Err(error) => {
                add(&self.counters.round_errors, 1);
                return Err(error);
            }
        };
        let c = &self.counters;
        add(&c.rounds, 1);
        add(&c.round_nanos, wall);
        add(&c.busy_max_nanos, recorder.parallel_nanos - before.parallel_nanos);
        for (site, encoded) in &request_sizes {
            let delta = site_delta(&before, recorder, *site);
            add(&c.busy_sum_nanos, delta.busy_nanos);
            add(&c.site_ops, delta.ops);
            add(&c.request_bytes, encoded.unwrap_or(0));
            self.check_size(*encoded, delta.bytes_received);
            let response = responses.get(site).and_then(|response| {
                self.roundtrip(
                    || encode(response),
                    |bytes| decode::<ProtocolResponse>(bytes).is_ok(),
                )
            });
            add(&c.response_bytes, response.unwrap_or(0));
            self.check_size(response, delta.bytes_sent);
        }
        Ok(responses)
    }

    fn site_count(&self) -> usize {
        self.inner.site_count()
    }

    fn site_of(&self, fragment: FragmentId) -> SiteId {
        self.inner.site_of(fragment)
    }

    fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
        self.inner.replicas_of(fragment)
    }

    fn occupied_sites(&self) -> BTreeSet<SiteId> {
        self.inner.occupied_sites()
    }

    fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.inner.set_fault_plan(plan)
    }

    fn probe(&self, site: SiteId) -> bool {
        self.inner.probe(site)
    }

    fn configure_tcp(&self, options: &TcpOptions) {
        self.inner.configure_tcp(options)
    }

    fn allocate_slots(&self, n: usize) -> usize {
        self.inner.allocate_slots(n)
    }

    fn stats(&self) -> ClusterStats {
        self.inner.stats()
    }

    fn reset(&self) {
        self.inner.reset()
    }

    fn scratch_len(&self, site: SiteId) -> usize {
        self.inner.scratch_len(site)
    }

    fn site_load(&self, site: SiteId) -> SiteLoadReport {
        self.inner.site_load(site)
    }

    fn as_cluster(&self) -> Option<&Cluster> {
        self.inner.as_cluster()
    }
}

#[cfg(test)]
mod tests {
    use crate::workload::{query_pool, Deployed, Link};
    use paxml::core::ExecReport;
    use paxml::xmark::ft2;

    /// Everything a report says about answers and the program's meters,
    /// leaving out the wall-clock fields.
    fn fingerprint(report: &ExecReport) -> String {
        let answers: Vec<_> = report.queries.iter().map(|q| &q.answers).collect();
        let sites: Vec<_> = report
            .stats
            .sites
            .iter()
            .map(|(site, s)| (*site, s.visits, s.ops, s.bytes_received, s.bytes_sent))
            .collect();
        format!("{answers:?} {sites:?} {} {}", report.stats.rounds, report.coordinator_ops)
    }

    #[test]
    fn the_wrapper_leaves_answers_and_meters_identical() {
        let (_, fragmented) = ft2(0.5, 11);
        let plain = Deployed::start(&fragmented, Link::Sim, false).unwrap();
        let traced = Deployed::start(&fragmented, Link::Sim, true).unwrap();
        let tcp = Deployed::start(&fragmented, Link::Tcp, true).unwrap();
        let queries = query_pool();
        for query in &queries {
            let expected = fingerprint(&plain.server.query_once(query).unwrap());
            assert_eq!(fingerprint(&traced.server.query_once(query).unwrap()), expected, "{query}");
            assert_eq!(fingerprint(&tcp.server.query_once(query).unwrap()), expected, "{query}");
        }
        let batch = |d: &Deployed| fingerprint(&d.server.execute_batch_text(&queries).unwrap());
        assert_eq!(batch(&traced), batch(&plain));
        for deployed in [&traced, &tcp] {
            let totals = deployed.tracer.as_ref().unwrap().totals();
            assert!(totals.rounds > 0 && totals.request_bytes > 0 && totals.response_bytes > 0);
            assert_eq!(totals.codec_mismatches, 0);
            assert_eq!(totals.round_errors, 0);
        }
        for deployed in [plain, traced, tcp] {
            deployed.stop().unwrap();
        }
    }
}
