//! [`TcpCluster`]: the coordinator's socket-backed [`Transport`] — the same
//! `round`/`broadcast` surface the drivers use over the in-process
//! simulator, served by real site processes.
//!
//! # Round protocol
//!
//! A round is pipelined: the coordinator first writes every site's request
//! frame, then reads the replies — so the sites compute in parallel, like
//! the simulator's worker pool, while the coordinator stays single-threaded.
//! One lock serializes whole rounds (and the control operations), which
//! keeps every connection's request/reply streams in lockstep even when the
//! cluster is shared across coordinator threads.
//!
//! Both ends of a connection run `configure_stream` — the coordinator on
//! dial, the [`SiteServer`](crate::SiteServer) on accept — so both set
//! `TCP_NODELAY`; with every frame sent in one write, each message is one
//! segment and a round never waits for a delayed ACK.
//!
//! # Failure behaviour
//!
//! A connection that errors is marked **dead**: the first failed round
//! reports [`PaxError::SiteUnreachable`] (naming the peer address and the
//! in-flight operation), and every later round addressed to that site fails
//! the same way — no hangs (reads carry a timeout as a backstop) and no
//! desynchronized streams (a failing round still drains the replies of the
//! sites it did reach, so surviving connections stay clean for the next
//! round). A dead connection is only revived through [`Transport::probe`]:
//! the server's health tracker quarantines the site, re-probes it after a
//! cooldown, and the probe redials with a deliberately small attempt budget
//! ([`TcpOptions::probe_attempts`]) so readmission checks never stall the
//! serving path.
//!
//! Socket knobs (read timeout, connect/probe backoff) live in
//! [`TcpOptions`], threaded from `PaxServerBuilder::tcp_options` through
//! [`Transport::configure_tcp`]; a deterministic [`FaultPlan`] can be
//! installed with [`Transport::set_fault_plan`] to refuse scheduled rounds
//! exactly like the simulator does, which makes chaos schedules replayable
//! on both transports.
//!
//! # Accounting
//!
//! Request traffic is charged as the encoded
//! [`EpochRequest`] envelope body length (epoch tag,
//! retirement watermark and protocol body — a site can hold two epochs'
//! versions during an update handover) and response traffic as the encoded
//! [`ProtocolResponse`] body length — the same quantities
//! `paxml_distsim::encoded_size` charges in the simulator, so the two
//! transports meter bit-identical byte counts. Ops come back from the site
//! (`dispatch` is deterministic, so they too are identical); busy time is
//! real wall clock and therefore the one meter that legitimately differs.

use crate::codec;
use crate::msg::{self, WireReply, WireRequest};
use paxml_core::{
    injected_fault_error, EpochRequest, PaxError, PaxResult, ProtocolResponse, TcpOptions,
    Transport,
};
use paxml_distsim::{
    ClusterStats, FaultKind, FaultPlan, Placement, ReplicaSet, SiteId, SiteLoadReport,
};
use paxml_fragment::{Fragment, FragmentId, FragmentedTree};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One site's connection: alive, or dead with the error that killed it.
struct Connection {
    stream: Result<TcpStream, String>,
}

impl Connection {
    /// Mark the connection dead and return the unreachable error, naming
    /// the peer and the operation that was in flight.
    fn kill(
        &mut self,
        site: SiteId,
        peer: SocketAddr,
        operation: &str,
        err: &io::Error,
    ) -> PaxError {
        let detail = format!("{peer}: {operation}: {err}");
        self.stream = Err(detail.clone());
        PaxError::SiteUnreachable { site, detail }
    }
}

/// A cluster of remote sites reached over TCP, implementing the same
/// [`Transport`] surface as the in-process simulator.
///
/// Dropping the cluster sends every live site a clean
/// [`WireRequest::Shutdown`].
pub struct TcpCluster {
    conns: Vec<Mutex<Connection>>,
    addrs: Vec<SocketAddr>,
    assignment: BTreeMap<FragmentId, ReplicaSet>,
    /// Serializes rounds and control operations: per-connection streams
    /// must not interleave messages of concurrent rounds.
    round_lock: Mutex<()>,
    stats: Mutex<ClusterStats>,
    next_slot: AtomicUsize,
    /// Socket tuning, replaceable after construction via
    /// [`Transport::configure_tcp`] (the builder applies it at deploy time).
    options: Mutex<TcpOptions>,
    /// The installed fault schedule, if any (interior mutability: chaos
    /// tests arm faults on a cluster already shared behind an `Arc`).
    fault: Mutex<Option<FaultPlan>>,
    /// Round counter indexing the fault plan: advanced once per attempted
    /// round while a plan is installed, so the same workload replays the
    /// same fault sequence — the exact scheme the simulator uses.
    fault_tick: AtomicU64,
}

impl TcpCluster {
    /// Connect to one site per address, distribute the fragments of
    /// `fragmented` according to `placement` (one copy each), and load each
    /// site with its share — the socket equivalent of
    /// [`paxml_distsim::Cluster::new`].
    pub fn connect(
        fragmented: &FragmentedTree,
        addrs: &[SocketAddr],
        placement: Placement,
    ) -> PaxResult<TcpCluster> {
        Self::connect_replicated(fragmented, addrs, placement, 1)
    }

    /// Connect with every fragment stored on `replication` sites: the
    /// primary chosen by `placement`, plus secondaries on the next sites
    /// round-robin (`(primary + k) mod site_count`, never co-located) — the
    /// socket equivalent of [`paxml_distsim::Cluster::replicated`].
    /// `replication` is clamped to the number of addresses.
    pub fn connect_replicated(
        fragmented: &FragmentedTree,
        addrs: &[SocketAddr],
        placement: Placement,
        replication: usize,
    ) -> PaxResult<TcpCluster> {
        let site_count = addrs.len().max(1);
        let copies = replication.clamp(1, site_count);
        let mut assignment = BTreeMap::new();
        for fragment in &fragmented.fragments {
            let primary = match placement {
                Placement::RoundRobin => fragment.id.index() % site_count,
                Placement::SingleSite => 0,
            };
            let set = ReplicaSet::of((0..copies).map(|k| SiteId((primary + k) % site_count)));
            assignment.insert(fragment.id, set);
        }
        Self::connect_with_replicas(fragmented, addrs, assignment, TcpOptions::default())
    }

    /// Connect with an explicit fragment→site assignment (fragments not
    /// mentioned go to site 0; site indices are clamped to the address
    /// list, mirroring [`paxml_distsim::Cluster::with_assignment`]). Each
    /// fragment gets one copy.
    pub fn connect_with_assignment(
        fragmented: &FragmentedTree,
        addrs: &[SocketAddr],
        assignment: BTreeMap<FragmentId, SiteId>,
    ) -> PaxResult<TcpCluster> {
        let replicas =
            assignment.into_iter().map(|(f, site)| (f, ReplicaSet::solo(site))).collect();
        Self::connect_with_replicas(fragmented, addrs, replicas, TcpOptions::default())
    }

    /// The most general constructor: an explicit fragment→replica-set
    /// assignment (fragments not mentioned get a solo copy on site 0; site
    /// indices are clamped to the address list) and explicit socket tuning
    /// for the initial dial. Every replica site is loaded with a full copy
    /// of its fragments.
    pub fn connect_with_replicas(
        fragmented: &FragmentedTree,
        addrs: &[SocketAddr],
        assignment: BTreeMap<FragmentId, ReplicaSet>,
        options: TcpOptions,
    ) -> PaxResult<TcpCluster> {
        if addrs.is_empty() {
            return Err(PaxError::InvalidConfig {
                message: "a TCP cluster needs at least one site address".into(),
            });
        }
        let mut final_assignment = BTreeMap::new();
        let mut per_site: Vec<Vec<Fragment>> = vec![Vec::new(); addrs.len()];
        for fragment in &fragmented.fragments {
            let set = assignment.get(&fragment.id).cloned().unwrap_or(ReplicaSet::solo(SiteId(0)));
            let set =
                ReplicaSet::of(set.sites().iter().map(|s| SiteId(s.index().min(addrs.len() - 1))));
            for &site in set.sites() {
                per_site[site.index()].push(fragment.clone());
            }
            final_assignment.insert(fragment.id, set);
        }

        let mut conns = Vec::with_capacity(addrs.len());
        for (index, addr) in addrs.iter().enumerate() {
            let site = SiteId(index);
            let mut stream = connect_with_retry(site, *addr, &options, options.connect_attempts)?;
            let fragments = std::mem::take(&mut per_site[index]);
            handshake(&mut stream, site, fragments).map_err(|err| PaxError::SiteUnreachable {
                site,
                detail: format!("{addr}: handshake failed: {err}"),
            })?;
            conns.push(Mutex::new(Connection { stream: Ok(stream) }));
        }
        Ok(TcpCluster {
            conns,
            addrs: addrs.to_vec(),
            assignment: final_assignment,
            round_lock: Mutex::new(()),
            stats: Mutex::new(ClusterStats::default()),
            next_slot: AtomicUsize::new(0),
            options: Mutex::new(options),
            fault: Mutex::new(None),
            fault_tick: AtomicU64::new(0),
        })
    }

    fn lock_conn(&self, site: SiteId) -> MutexGuard<'_, Connection> {
        self.conns[site.index()].lock().expect("connection locks are never poisoned")
    }

    fn lock_options(&self) -> MutexGuard<'_, TcpOptions> {
        self.options.lock().expect("the options lock is never poisoned")
    }

    fn peer(&self, site: SiteId) -> SocketAddr {
        self.addrs[site.index()]
    }

    /// A snapshot of the installed fault schedule, if any.
    fn current_fault_plan(&self) -> Option<FaultPlan> {
        self.fault.lock().expect("the fault-plan lock is never poisoned").clone()
    }

    /// The round tick the *next* round will be indexed at under the
    /// installed [`FaultPlan`], without advancing the clock — the TCP
    /// counterpart of [`paxml_distsim::Cluster::current_fault_tick`], used
    /// by chaos schedules to aim fault windows at workload phases.
    pub fn current_fault_tick(&self) -> u64 {
        self.fault_tick.load(Ordering::Relaxed)
    }

    /// Send one control request to a site and read its reply, marking the
    /// connection dead on any io failure.
    fn control(
        &self,
        site: SiteId,
        request: &WireRequest,
        operation: &str,
    ) -> PaxResult<WireReply> {
        let peer = self.peer(site);
        let mut conn = self.lock_conn(site);
        let stream = match &mut conn.stream {
            Ok(stream) => stream,
            Err(detail) => return Err(PaxError::SiteUnreachable { site, detail: detail.clone() }),
        };
        match msg::send(stream, request).and_then(|()| msg::recv::<WireReply>(stream)) {
            Ok(reply) => Ok(reply),
            Err(err) => Err(conn.kill(site, peer, operation, &err)),
        }
    }
}

/// Dial `addr` with bounded linear backoff (the site process may still be
/// binding its listener when the coordinator starts). `attempts` is passed
/// separately from `options` because liveness probes dial with the much
/// smaller [`TcpOptions::probe_attempts`] budget.
fn connect_with_retry(
    site: SiteId,
    addr: SocketAddr,
    options: &TcpOptions,
    attempts: u32,
) -> PaxResult<TcpStream> {
    let mut last_error = String::new();
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                configure_stream(&stream, Some(options.read_timeout)).map_err(|err| {
                    PaxError::SiteUnreachable {
                        site,
                        detail: format!("{addr}: configuring the socket: {err}"),
                    }
                })?;
                return Ok(stream);
            }
            Err(err) => last_error = err.to_string(),
        }
        std::thread::sleep(
            (options.connect_backoff_step * (attempt + 1)).min(options.connect_backoff_cap),
        );
    }
    Err(PaxError::SiteUnreachable {
        site,
        detail: format!("{addr}: no connection after {attempts} attempts: {last_error}"),
    })
}

/// Set up a dialled or accepted stream: the one place both ends of a
/// connection are configured. Frames are whole messages, so Nagle could only
/// hold them for the peer's delayed ACK; `read_timeout` is the coordinator's
/// backstop against a hung site (a site waits on its coordinator with none).
pub(crate) fn configure_stream(
    stream: &TcpStream,
    read_timeout: Option<Duration>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)
}

/// Hello + Load over a fresh connection.
fn handshake(stream: &mut TcpStream, site: SiteId, fragments: Vec<Fragment>) -> io::Result<()> {
    msg::send(stream, &WireRequest::Hello { site })?;
    match msg::recv::<WireReply>(stream)? {
        WireReply::Hello { site: echoed } if echoed == site => {}
        other => return Err(unexpected_reply("Hello", &other)),
    }
    msg::send(stream, &WireRequest::Load { fragments })?;
    match msg::recv::<WireReply>(stream)? {
        WireReply::Loaded { .. } => Ok(()),
        other => Err(unexpected_reply("Loaded", &other)),
    }
}

fn unexpected_reply(expected: &str, got: &WireReply) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("expected a {expected} reply, got {got:?}"))
}

/// One site's successfully completed share of a round.
struct RoundOutcome {
    site: SiteId,
    request_bytes: u64,
    response_bytes: u64,
    ops: u64,
    busy: Duration,
    response: ProtocolResponse,
}

impl Transport for TcpCluster {
    fn round_recorded(
        &self,
        recorder: &mut ClusterStats,
        requests: BTreeMap<SiteId, EpochRequest>,
    ) -> PaxResult<BTreeMap<SiteId, ProtocolResponse>> {
        if requests.is_empty() {
            return Ok(BTreeMap::new());
        }
        for site in requests.keys() {
            assert!(site.index() < self.conns.len(), "request addressed to unknown site {site}");
        }
        let _round = self.round_lock.lock().expect("the round lock is never poisoned");

        // The fault gate, identical to the simulator's: with a plan
        // installed every attempted round advances the fault clock and is
        // checked against the schedule before any socket is touched — a
        // faulted target fails the whole round with nothing delivered, and
        // the connection itself stays healthy so the site serves again once
        // its fault window closes.
        if let Some(plan) = self.current_fault_plan() {
            let tick = self.fault_tick.fetch_add(1, Ordering::Relaxed);
            if let Some((site, kind)) = plan.first_failure(tick, requests.keys().copied()) {
                let operation = requests.get(&site).map(|r| r.body.kind()).unwrap_or("round");
                let peer = self.peer(site).to_string();
                return Err(injected_fault_error(site, &kind, &peer, operation));
            }
            let stall = plan.total_delay(tick, requests.keys().copied());
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
        }

        // Phase 1 — write every request frame. On the first failure stop
        // sending (sites later in the order receive nothing this round).
        let mut sent: Vec<(SiteId, u64, &'static str)> = Vec::with_capacity(requests.len());
        let mut failure: Option<PaxError> = None;
        for (site, request) in &requests {
            let operation = request.body.kind();
            let peer = self.peer(*site);
            let mut conn = self.lock_conn(*site);
            let result = match &mut conn.stream {
                Ok(stream) => {
                    msg::send_with_body(stream, request, |body| WireRequest::Round { body })
                }
                Err(detail) => {
                    failure =
                        Some(PaxError::SiteUnreachable { site: *site, detail: detail.clone() });
                    break;
                }
            };
            match result {
                Ok(request_bytes) => sent.push((*site, request_bytes as u64, operation)),
                Err(err) => {
                    let label = format!("sending {operation}");
                    failure = Some(conn.kill(*site, peer, &label, &err));
                    break;
                }
            }
        }

        // Phase 2 — drain a reply from every site we reached, even when the
        // round is already doomed: leaving a reply unread would desync that
        // connection for every later round.
        let mut outcomes: Vec<RoundOutcome> = Vec::with_capacity(sent.len());
        for (site, request_bytes, operation) in sent {
            let peer = self.peer(site);
            let mut conn = self.lock_conn(site);
            let reply = match &mut conn.stream {
                Ok(stream) => msg::recv::<WireReply>(stream),
                Err(detail) => Err(io::Error::other(detail.clone())),
            };
            match reply {
                Ok(WireReply::Round { ops, busy_nanos, body }) => {
                    match codec::decode::<ProtocolResponse>(&body) {
                        Ok(response) => outcomes.push(RoundOutcome {
                            site,
                            request_bytes,
                            response_bytes: body.len() as u64,
                            ops,
                            busy: Duration::from_nanos(busy_nanos),
                            response,
                        }),
                        Err(err) => {
                            failure = failure.or(Some(PaxError::Protocol {
                                message: format!(
                                    "{peer}: undecodable {operation} response from site {site}: \
                                     {err}"
                                ),
                            }))
                        }
                    }
                }
                Ok(WireReply::Error { message }) => {
                    failure = failure.or(Some(PaxError::Protocol {
                        message: format!("{peer}: site {site} failed its {operation}: {message}"),
                    }))
                }
                Ok(other) => {
                    failure = failure.or(Some(PaxError::Protocol {
                        message: format!(
                            "{peer}: unexpected reply from site {site} to {operation}: {other:?}"
                        ),
                    }))
                }
                Err(err) => {
                    let label = format!("awaiting the {operation} reply");
                    let unreachable = conn.kill(site, peer, &label, &err);
                    failure = failure.or(Some(unreachable));
                }
            }
        }
        if let Some(error) = failure {
            return Err(error);
        }

        // Phase 3 — commit the meters whole-round, exactly like the
        // simulator: per-site work into both recorders, then the round's
        // slowest/busiest site.
        let mut responses = BTreeMap::new();
        let mut slowest = Duration::ZERO;
        let mut max_ops = 0u64;
        let mut cumulative = self.stats.lock().expect("the stats lock is never poisoned");
        for outcome in outcomes {
            for target in [&mut *cumulative, &mut *recorder] {
                target.record_site_work(
                    outcome.site,
                    outcome.ops,
                    outcome.busy,
                    outcome.request_bytes,
                    outcome.response_bytes,
                );
            }
            slowest = slowest.max(outcome.busy);
            max_ops = max_ops.max(outcome.ops);
            responses.insert(outcome.site, outcome.response);
        }
        cumulative.record_round(slowest, max_ops);
        recorder.record_round(slowest, max_ops);
        Ok(responses)
    }

    fn site_count(&self) -> usize {
        self.conns.len()
    }

    fn site_of(&self, fragment: FragmentId) -> SiteId {
        self.replicas_of(fragment).primary()
    }

    fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
        self.assignment
            .get(&fragment)
            .cloned()
            .expect("every fragment was assigned to a replica set at construction")
    }

    fn occupied_sites(&self) -> BTreeSet<SiteId> {
        self.assignment.values().flat_map(|set| set.sites().iter().copied()).collect()
    }

    fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault.lock().expect("the fault-plan lock is never poisoned") = plan;
    }

    fn probe(&self, site: SiteId) -> bool {
        // A scheduled fault makes a live socket look dead too; probes peek
        // at the fault clock without advancing it (they are not rounds).
        if let Some(plan) = self.current_fault_plan() {
            let tick = self.fault_tick.load(Ordering::Relaxed);
            if matches!(
                plan.fault_at(site, tick),
                Some(FaultKind::Kill) | Some(FaultKind::Drop) | Some(FaultKind::Garble)
            ) {
                return false;
            }
        }
        if site.index() >= self.conns.len() {
            return false;
        }
        let peer = self.peer(site);
        let _round = self.round_lock.lock().expect("the round lock is never poisoned");
        let mut conn = self.lock_conn(site);
        match &mut conn.stream {
            // Live connection: one Hello round-trip settles it.
            Ok(stream) => {
                match msg::send(stream, &WireRequest::Hello { site })
                    .and_then(|()| msg::recv::<WireReply>(stream))
                {
                    Ok(WireReply::Hello { site: echoed }) if echoed == site => true,
                    Ok(other) => {
                        let err = unexpected_reply("Hello", &other);
                        let _ = conn.kill(site, peer, "probing", &err);
                        false
                    }
                    Err(err) => {
                        let _ = conn.kill(site, peer, "probing", &err);
                        false
                    }
                }
            }
            // Dead connection: redial with the small probe budget and
            // re-introduce ourselves. The revived site starts empty — the
            // server's repair pass re-ships its fragments before readmitting
            // it to the serving path.
            Err(_) => {
                let options = self.lock_options().clone();
                match connect_with_retry(site, peer, &options, options.probe_attempts) {
                    Ok(mut stream) => match handshake(&mut stream, site, Vec::new()) {
                        Ok(()) => {
                            conn.stream = Ok(stream);
                            true
                        }
                        Err(_) => false,
                    },
                    Err(_) => false,
                }
            }
        }
    }

    fn configure_tcp(&self, options: &TcpOptions) {
        *self.lock_options() = options.clone();
        // The read timeout guards already-established streams too: apply it
        // retroactively so a deploy-time option reaches every connection.
        for conn in &self.conns {
            let mut conn = conn.lock().expect("connection locks are never poisoned");
            if let Ok(stream) = &mut conn.stream {
                let _ = stream.set_read_timeout(Some(options.read_timeout));
            }
        }
    }

    fn allocate_slots(&self, n: usize) -> usize {
        self.next_slot.fetch_add(n.max(1), Ordering::Relaxed)
    }

    fn stats(&self) -> ClusterStats {
        self.stats.lock().expect("the stats lock is never poisoned").clone()
    }

    fn reset(&self) {
        let _round = self.round_lock.lock().expect("the round lock is never poisoned");
        for index in 0..self.conns.len() {
            // Best effort: a dead site has no scratch worth clearing.
            let _ = self.control(SiteId(index), &WireRequest::Reset, "resetting scratch");
        }
        *self.stats.lock().expect("the stats lock is never poisoned") = ClusterStats::default();
    }

    fn scratch_len(&self, site: SiteId) -> usize {
        let _round = self.round_lock.lock().expect("the round lock is never poisoned");
        match self.control(site, &WireRequest::ScratchLen, "probing scratch length") {
            Ok(WireReply::ScratchLen { len }) => len,
            Ok(other) => panic!("unexpected reply to a scratch-len probe: {other:?}"),
            Err(err) => panic!("scratch-len probe failed: {err}"),
        }
    }

    fn site_load(&self, site: SiteId) -> SiteLoadReport {
        let _round = self.round_lock.lock().expect("the round lock is never poisoned");
        match self.control(site, &WireRequest::SiteLoad, "probing site load") {
            Ok(WireReply::SiteLoad { report }) => report,
            // A dead or confused site stores nothing we can observe; load
            // probes are best-effort observability, never a failure.
            _ => SiteLoadReport { site, fragments: Vec::new() },
        }
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            let connection = conn.get_mut().expect("connection locks are never poisoned");
            if let Ok(stream) = &mut connection.stream {
                // Give the site its clean shutdown; ignore failures — the
                // peer may already be gone.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = msg::send(stream, &WireRequest::Shutdown);
                let _ = msg::recv::<WireReply>(stream);
            }
        }
    }
}
