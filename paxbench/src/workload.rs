//! The seeded inputs, the deployments and the three timed workloads.
//!
//! Every workload runs PaX2 with XPath annotations on ten sites under
//! round-robin placement, over the paper's FT2 topology. Load comes from
//! one closed-loop client thread: it sends its next request only after the
//! previous one has returned.

use crate::gauge::Gauge;
use crate::procfs;
use crate::tracer::{TraceTotals, Tracer};
use paxml::core::{
    Algorithm, ExecReport, PaxResult, PaxServer, PrepareSetStats, PreparedQuery, Transport,
};
use paxml::distsim::{Cluster, Placement};
use paxml::fragment::{FragmentId, FragmentedTree, UpdateOp};
use paxml::wire::{SiteServer, TcpCluster};
use paxml::xmark::{ft2, UpdateWorkload, PAPER_QUERIES};
use paxml::xml::{NodeId, XmlTree};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Simulated sites, as in the paper's ten-machine FT2 layout.
pub const SITES: usize = 10;
/// Document size in virtual megabytes (about 11 000 nodes).
const DOC_VMB: f64 = 4.0;
/// Cached reads per serve-mix cycle.
const MIX_READS: usize = 18;
/// Ops per serve-mix update batch, spread over at most this many fragments.
const UPDATE_OPS: usize = 8;
const UPDATE_FRAGMENTS: usize = 2;
/// Cycles per serve-mix episode. Every episode starts on a fresh
/// deployment of the seed's document, so inserts grow the document by the
/// same amount in every run, however fast the host is.
const EPISODE_CYCLES: usize = 24;
/// Thread-name prefix of the benchmark's client thread.
const CLIENT_THREAD: &str = "bench-client-";
/// Thread-name prefix of simulator site workers (named by the simulator).
const SIM_SITE_THREAD: &str = "paxml-site-";
/// Thread-name prefix of TCP site servers; their connection threads
/// inherit the name.
const TCP_SITE_THREAD: &str = "pax-srv-";

/// The paper's four queries plus eight dashboard variants: the query pool
/// of every workload.
pub fn query_pool() -> Vec<String> {
    let mut queries: Vec<String> = PAPER_QUERIES.iter().map(|(_, q)| q.to_string()).collect();
    queries.extend(
        [
            "/sites/site/people/person/name",
            "//person[address/country=\"US\"]/name",
            "/sites/site/regions//item[quantity > 5]/name",
            "//open_auctions/auction/bidder/increase",
            "//closed_auctions/closed_auction[quantity >= 2]/price",
            "/sites/site/people/person[creditcard]/emailaddress",
            "//annotation/description/text",
            "//person[not(address/country=\"US\")]/address/city",
        ]
        .iter()
        .map(|q| q.to_string()),
    );
    queries
}

/// SplitMix64: a small, fully specified generator, so a seed names the same
/// query order on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from the document generator's
    /// use of the same seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xD1B5_4A32_D192_ED03)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A fresh random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// The inputs a seed determines: the document, its fragmentation, and the
/// reference answers computed centrally on the unfragmented document.
pub struct Inputs {
    pub seed: u64,
    pub tree: XmlTree,
    pub fragmented: FragmentedTree,
    pub queries: Vec<String>,
    pub reference: Vec<Vec<NodeId>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Result<Inputs, String> {
        let (tree, fragmented) = ft2(DOC_VMB, seed);
        let queries = query_pool();
        let reference = queries
            .iter()
            .map(|q| {
                paxml::xpath::centralized::evaluate(&tree, q)
                    .map(|r| r.answers)
                    .map_err(|e| format!("reference evaluation of {q}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Inputs { seed, tree, fragmented, queries, reference })
    }

    /// The seeded update generator of serve-mix episode `episode`: every
    /// episode draws its own update stream against the original document.
    fn update_workload(&self, episode: usize) -> UpdateWorkload {
        let seed = self.seed ^ 0x5EED_0F0F ^ (episode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        UpdateWorkload::new(&self.fragmented, self.tree.node_count(), seed)
    }
}

/// The sorted answer origins of one query outcome.
fn origins(report: &ExecReport, query: usize) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = report
        .queries
        .get(query)
        .map_or(Vec::new(), |q| q.answers.iter().map(|a| a.origin).collect());
    out.sort();
    out
}

fn total_visits(report: &ExecReport) -> u64 {
    report.stats.sites.values().map(|s| u64::from(s.visits)).sum()
}

/// Attempted and failed operations, with the first few failures printed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation; `problem` describes it when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            if self.failed < 10 {
                eprintln!("FAILED: {problem}");
            }
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Check one single-query execution against its expected answers and the
/// PaX2 visit bound.
fn check_query(result: &PaxResult<ExecReport>, text: &str, expected: &[NodeId]) -> Option<String> {
    match result {
        Err(e) => Some(format!("{text}: {e}")),
        Ok(r) if r.max_visits_per_site() > 2 => {
            Some(format!("{text}: {} visits to one site", r.max_visits_per_site()))
        }
        Ok(r) if origins(r, 0) != expected => {
            Some(format!("{text}: {} answers, expected {}", r.answers().len(), expected.len()))
        }
        Ok(_) => None,
    }
}

/// Which transport a deployment runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    Sim,
    Tcp,
}

impl Link {
    /// Name prefix of the threads that run the sites.
    fn site_thread(self) -> &'static str {
        match self {
            Link::Sim => SIM_SITE_THREAD,
            Link::Tcp => TCP_SITE_THREAD,
        }
    }
}

/// A running deployment: the server, its tracer when traced, and the
/// threads serving TCP sites.
pub struct Deployed {
    pub server: PaxServer,
    pub tracer: Option<Arc<Tracer>>,
    site_threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Deployed {
    /// Deploy `fragmented` on ten sites over `link`, through the tracer when
    /// `traced`.
    pub fn start(
        fragmented: &FragmentedTree,
        link: Link,
        traced: bool,
    ) -> Result<Deployed, String> {
        let builder = PaxServer::builder().algorithm(Algorithm::PaX2).annotations(true);
        let mut site_threads = Vec::new();
        let transport: Arc<dyn Transport> = match link {
            Link::Sim if !traced => {
                let server = builder
                    .sites(SITES)
                    .placement(Placement::RoundRobin)
                    .deploy(fragmented)
                    .map_err(|e| format!("deploy: {e}"))?;
                return Ok(Deployed { server, tracer: None, site_threads });
            }
            Link::Sim => Arc::new(Cluster::new(fragmented, SITES, Placement::RoundRobin)),
            Link::Tcp => {
                let mut addrs = Vec::with_capacity(SITES);
                for index in 0..SITES {
                    let site = SiteServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
                    addrs.push(site.local_addr().map_err(|e| format!("local_addr: {e}"))?);
                    let handle = std::thread::Builder::new()
                        .name(format!("{TCP_SITE_THREAD}{index}"))
                        .spawn(move || site.run())
                        .map_err(|e| format!("spawn site server: {e}"))?;
                    site_threads.push(handle);
                }
                let cluster = TcpCluster::connect(fragmented, &addrs, Placement::RoundRobin)
                    .map_err(|e| format!("connect: {e}"))?;
                Arc::new(cluster)
            }
        };
        let tracer = traced.then(|| Arc::new(Tracer::new(Arc::clone(&transport))));
        let transport = match &tracer {
            Some(tracer) => Arc::clone(tracer) as Arc<dyn Transport>,
            None => transport,
        };
        let server =
            builder.deploy_over(fragmented, transport).map_err(|e| format!("deploy: {e}"))?;
        Ok(Deployed { server, tracer, site_threads })
    }

    /// Shut the deployment down and wait for every site thread to end.
    pub fn stop(self) -> Result<(), String> {
        let Deployed { server, tracer, site_threads } = self;
        // The TCP cluster sends each site its shutdown when the last handle
        // on it drops.
        drop(server);
        drop(tracer);
        for handle in site_threads {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("site server: {e}")),
                Err(_) => return Err("a site server thread panicked".into()),
            }
        }
        Ok(())
    }
}

/// The three workloads. Each runs one closed-loop client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotSim,
    OneshotTcp,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::OneshotSim, Workload::ServeMix, Workload::OneshotTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotSim => "oneshot-sim",
            Workload::OneshotTcp => "oneshot-tcp",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn link(self) -> Link {
        match self {
            Workload::OneshotTcp => Link::Tcp,
            _ => Link::Sim,
        }
    }

    /// Set-ups per run; `setup_s` is their median. A simulator set-up takes
    /// milliseconds and varies by a third from one to the next, so it is
    /// repeated more often than the TCP one, which takes half a second.
    pub fn setup_repeats(self) -> usize {
        match self.link() {
            Link::Sim => 31,
            Link::Tcp => 7,
        }
    }

    /// What one latency sample covers.
    pub fn request(self) -> &'static str {
        match self {
            Workload::OneshotSim => "pass",
            Workload::OneshotTcp => "query",
            Workload::ServeMix => "cycle",
        }
    }

    /// Whether request times follow the host's speed, and are scaled to the
    /// reference speed by the gauge. The simulator workloads are CPU-bound;
    /// the TCP workload's time is mostly the per-round stall, a timer that
    /// does not follow the host. CPU time is scaled on every workload.
    pub fn cpu_bound(self) -> bool {
        self.link() == Link::Sim
    }
}

/// A deployment ready for its first timed operation.
pub struct Ready {
    pub deployed: Deployed,
    /// The prepared pool (serve-mix only).
    pub prepared: Vec<PreparedQuery>,
    /// The preparation report (serve-mix only).
    pub prepare_stats: Option<PrepareSetStats>,
    /// Deploy start to ready, in seconds.
    pub setup_s: f64,
}

/// Deploy and warm up: one one-shot query for the one-shot workloads
/// (starts the lazy site workers or opens the connections); preparing the
/// pool and executing every prepared query once for serve-mix (fills the
/// session caches).
pub fn set_up(
    workload: Workload,
    inputs: &Inputs,
    traced: bool,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let start = Instant::now();
    let deployed = Deployed::start(&inputs.fragmented, workload.link(), traced)?;
    let server = &deployed.server;
    let mut prepared = Vec::new();
    let mut prepare_stats = None;
    if workload == Workload::ServeMix {
        let texts: Vec<&str> = inputs.queries.iter().map(String::as_str).collect();
        let (queries, stats) = server.prepare_set(&texts).map_err(|e| format!("prepare: {e}"))?;
        for (index, query) in queries.iter().enumerate() {
            let result = server.execute(query);
            tally.check(check_query(&result, query.text(), &inputs.reference[index]));
        }
        prepared = queries;
        prepare_stats = Some(stats);
    } else {
        let result = server.query_once(&inputs.queries[0]);
        tally.check(check_query(&result, &inputs.queries[0], &inputs.reference[0]));
    }
    let setup_s = start.elapsed().as_secs_f64();
    Ok(Ready { deployed, prepared, prepare_stats, setup_s })
}

/// Before timing the TCP workload: every query must give the same answers,
/// visits and bytes over TCP as on the simulator.
pub fn check_sim_matches_tcp(
    inputs: &Inputs,
    tcp: &PaxServer,
    tally: &mut Tally,
) -> Result<(), String> {
    let sim = Deployed::start(&inputs.fragmented, Link::Sim, false)?;
    for query in &inputs.queries {
        let problem = match (sim.server.query_once(query), tcp.query_once(query)) {
            (Ok(s), Ok(t)) => {
                let same = origins(&s, 0) == origins(&t, 0)
                    && s.visits_per_site() == t.visits_per_site()
                    && s.network_bytes() == t.network_bytes();
                (!same).then(|| {
                    format!(
                        "{query}: simulator and TCP differ ({} vs {} bytes)",
                        s.network_bytes(),
                        t.network_bytes()
                    )
                })
            }
            (Err(e), _) | (_, Err(e)) => Some(format!("{query}: {e}")),
        };
        tally.check(problem);
    }
    sim.stop()
}

/// Everything the timed loop measured.
#[derive(Default)]
pub struct Meter {
    /// Latency of each request in ms: one query, or one serve-mix cycle.
    pub request_ms: Vec<f64>,
    /// Timed operations (a serve-mix cycle is twenty).
    pub ops: u64,
    pub tally: Tally,
    /// Traffic the program's byte meter charged.
    pub bytes: u64,
    /// Client-observed time, summed over operations.
    pub client_nanos: u64,
    /// `ExecReport::elapsed`, summed over operations.
    pub exec_nanos: u64,
    pub coordinator_ops: u64,
    pub fragments_evaluated: u64,
    pub fragments_total: u64,
    /// Single-query reads (one-shot or prepared).
    pub reads: u64,
    pub cache_hits: u64,
    pub read_visits: u64,
    pub read_nanos: u64,
    pub batch_nanos: u64,
    pub updates: u64,
    pub update_nanos: u64,
    pub update_rounds: u64,
    pub update_dirty_sites: u64,
    pub update_refreshed_sessions: u64,
    pub update_recomputed_fragments: u64,
    pub update_reunified_fragments: u64,
    pub update_site_ops: u64,
    pub live_epochs_max: u64,
    /// CPU of the client thread itself (the coordinator runs on it), in
    /// ticks.
    pub client_ticks: u64,
}

impl Meter {
    /// Account one successful execution's meters.
    fn record(&mut self, latency: Duration, report: &ExecReport) {
        self.client_nanos += latency.as_nanos() as u64;
        self.exec_nanos += report.elapsed.as_nanos() as u64;
        self.bytes += report.network_bytes();
        self.coordinator_ops += report.coordinator_ops;
        if report.stats.rounds > 0 {
            for outcome in &report.queries {
                self.fragments_evaluated += outcome.fragments_evaluated as u64;
                self.fragments_total += report.fragments_total as u64;
            }
        }
    }

    fn record_read(&mut self, latency: Duration, report: &ExecReport) {
        self.record(latency, report);
        self.reads += 1;
        self.read_nanos += latency.as_nanos() as u64;
        self.cache_hits += u64::from(report.from_cache);
        self.read_visits += total_visits(report);
    }
}

/// What one timed window measured, with the resource meters around it.
#[derive(Default)]
pub struct Window {
    pub meter: Meter,
    /// Wall time of the timed stretches: without the set-ups and checks
    /// between serve-mix episodes and without the gauge's slices.
    pub wall_s: f64,
    /// Process CPU over the timed stretches, in ticks (gauge slices
    /// included).
    pub process_ticks: u64,
    /// Site-thread CPU over the timed stretches, in ticks.
    pub site_ticks: u64,
    /// Tracer totals over the window (traced deployments only).
    pub trace: Option<TraceTotals>,
    /// Host-speed gauge slices taken between requests, in ns.
    pub gauge_ns: Vec<u64>,
    /// Serve-mix episodes run.
    pub episodes: usize,
}

impl Window {
    /// Mean gauge slice time in microseconds.
    pub fn gauge_us(&self) -> f64 {
        self.gauge_ns.iter().sum::<u64>() as f64 / self.gauge_ns.len().max(1) as f64 / 1e3
    }

    /// Wall time spent in gauge slices, in milliseconds.
    pub fn gauge_ms(&self) -> f64 {
        self.gauge_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

/// Resource meters at the start of a timed stretch of one deployment. Taken
/// and closed on the client thread.
struct Marks {
    start: Instant,
    process_ticks: u64,
    client_ticks: u64,
    threads: BTreeMap<u64, procfs::ThreadCpu>,
    trace: Option<TraceTotals>,
}

impl Marks {
    fn take(tracer: Option<&Tracer>) -> Marks {
        Marks {
            trace: tracer.map(Tracer::totals),
            threads: procfs::thread_cpu(),
            client_ticks: procfs::own_thread_ticks(),
            process_ticks: procfs::process_ticks(),
            start: Instant::now(),
        }
    }

    /// Add the stretch since these marks to `window`.
    fn close(self, tracer: Option<&Tracer>, site_prefix: &str, window: &mut Window) {
        window.wall_s += self.start.elapsed().as_secs_f64();
        window.process_ticks += procfs::process_ticks() - self.process_ticks;
        window.meter.client_ticks += procfs::own_thread_ticks() - self.client_ticks;
        window.site_ticks +=
            procfs::ticks_between(&self.threads, &procfs::thread_cpu(), site_prefix);
        if let (Some(tracer), Some(before)) = (tracer, self.trace) {
            window
                .trace
                .get_or_insert_with(TraceTotals::default)
                .add(&tracer.totals().since(&before));
        }
    }
}

/// Run `workload` for `seconds`, starting on the deployment `ready`.
/// Returns what was measured and the deployment still running at the end
/// (serve-mix replaces its deployment after every episode).
pub fn run_timed(
    workload: Workload,
    inputs: &Inputs,
    ready: Ready,
    seconds: u64,
) -> Result<(Window, Ready), String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // One closed-loop client on a named thread: its CPU is the
    // coordinator's, and TCP site threads are told apart by name.
    let client = std::thread::Builder::new().name(format!("{CLIENT_THREAD}0"));
    let body = move || -> Result<(Window, Ready), String> {
        let mut window = Window::default();
        let mut gauge = Gauge::new();
        let mut rng = Rng::new(inputs.seed);
        let ready = match workload {
            Workload::ServeMix => {
                serve_mix_client(inputs, ready, deadline, &mut rng, &mut gauge, &mut window)?
            }
            _ => {
                oneshot_client(
                    workload,
                    inputs,
                    &ready,
                    deadline,
                    &mut rng,
                    &mut gauge,
                    &mut window,
                );
                ready
            }
        };
        window.gauge_ns = gauge.samples;
        window.wall_s -= window.gauge_ms() / 1e3;
        Ok((window, ready))
    };
    std::thread::scope(|scope| {
        let handle = client.spawn_scoped(scope, body).map_err(|e| format!("spawn client: {e}"))?;
        handle.join().map_err(|_| "the client thread panicked".to_string())?
    })
}

/// One closed-loop client of the one-shot workloads: `query_once` over the
/// pool in a fresh seeded order each pass. A request is one query, or one
/// whole pass on `oneshot-sim`.
fn oneshot_client(
    workload: Workload,
    inputs: &Inputs,
    ready: &Ready,
    deadline: Instant,
    rng: &mut Rng,
    gauge: &mut Gauge,
    window: &mut Window,
) {
    let server = &ready.deployed.server;
    let tracer = ready.deployed.tracer.as_deref();
    let per_pass = workload == Workload::OneshotSim;
    let marks = Marks::take(tracer);
    let meter = &mut window.meter;
    let n = inputs.queries.len();
    'run: while Instant::now() < deadline {
        let mut pass = Duration::ZERO;
        for index in rng.permutation(n) {
            if Instant::now() >= deadline {
                break 'run;
            }
            let text = &inputs.queries[index];
            let start = Instant::now();
            let result = server.query_once(text);
            let latency = start.elapsed();
            pass += latency;
            meter.ops += 1;
            if !per_pass {
                meter.request_ms.push(latency.as_secs_f64() * 1e3);
            }
            meter.tally.check(check_query(&result, text, &inputs.reference[index]));
            if let Ok(report) = &result {
                meter.record_read(latency, report);
            }
            gauge.tick();
        }
        if per_pass {
            meter.request_ms.push(pass.as_secs_f64() * 1e3);
        }
    }
    marks.close(tracer, workload.link().site_thread(), window);
}

/// The serve-mix client: episodes of `EPISODE_CYCLES` cycles, each on a
/// fresh deployment with its own update stream, and each checked at its end
/// against a fresh deployment of the updated document. Update streams are
/// generated between episodes, untimed.
fn serve_mix_client(
    inputs: &Inputs,
    first: Ready,
    deadline: Instant,
    rng: &mut Rng,
    gauge: &mut Gauge,
    window: &mut Window,
) -> Result<Ready, String> {
    let traced = first.deployed.tracer.is_some();
    let mut ready = first;
    loop {
        let episode = window.episodes;
        let updates = episode_updates(inputs, episode);
        let applied = serve_mix_episode(inputs, &ready, &updates, deadline, rng, gauge, window);
        window.episodes += 1;
        check_against_fresh_deploy(
            inputs,
            episode,
            &ready.deployed.server,
            &ready.prepared,
            applied,
            &mut window.meter.tally,
        )?;
        if Instant::now() >= deadline {
            return Ok(ready);
        }
        ready.deployed.stop()?;
        ready = set_up(Workload::ServeMix, inputs, traced, &mut window.meter.tally)?;
    }
}

/// One serve-mix episode. Each cycle runs one batch of the whole prepared
/// pool, then cached reads of seeded pool members (each checked against the
/// batch's fresh answers), then one update batch. Returns the number of
/// update batches applied. A traced run also samples the live epoch count
/// after every cycle.
fn serve_mix_episode(
    inputs: &Inputs,
    ready: &Ready,
    updates: &[Vec<(FragmentId, UpdateOp)>],
    deadline: Instant,
    rng: &mut Rng,
    gauge: &mut Gauge,
    window: &mut Window,
) -> usize {
    let server = &ready.deployed.server;
    let prepared = &ready.prepared;
    let tracer = ready.deployed.tracer.as_deref();
    let marks = Marks::take(tracer);
    let meter = &mut window.meter;
    let mut applied = 0;
    while Instant::now() < deadline && applied < updates.len() {
        let mut cycle = Duration::ZERO;

        let start = Instant::now();
        let result = server.execute_batch(prepared);
        let latency = start.elapsed();
        cycle += latency;
        meter.ops += 1;
        meter.batch_nanos += latency.as_nanos() as u64;
        let fresh: Vec<Vec<NodeId>> = match &result {
            Ok(report) => {
                meter.record(latency, report);
                let answers: Vec<Vec<NodeId>> =
                    (0..prepared.len()).map(|q| origins(report, q)).collect();
                // Before the first update the batch must match the
                // centralized reference answers.
                let problem = if report.max_visits_per_site() > 2 {
                    Some(format!("batch: {} visits to one site", report.max_visits_per_site()))
                } else if applied == 0 && answers != inputs.reference {
                    Some("batch: answers differ from the centralized reference".into())
                } else {
                    None
                };
                meter.tally.check(problem);
                answers
            }
            Err(e) => {
                meter.tally.check(Some(format!("batch: {e}")));
                vec![Vec::new(); prepared.len()]
            }
        };
        gauge.tick();

        for _ in 0..MIX_READS {
            let index = rng.below(prepared.len());
            let start = Instant::now();
            let result = server.execute(&prepared[index]);
            let latency = start.elapsed();
            cycle += latency;
            meter.ops += 1;
            let problem = match &result {
                Err(e) => Some(format!("read {}: {e}", prepared[index].text())),
                Ok(r) if !r.from_cache || total_visits(r) > 0 => {
                    Some(format!("read {}: not served from the cache", prepared[index].text()))
                }
                Ok(r) if origins(r, 0) != fresh[index] => Some(format!(
                    "read {}: cached answers differ from the batch",
                    r.queries[0].query
                )),
                Ok(_) => None,
            };
            meter.tally.check(problem);
            if let Ok(report) = &result {
                meter.record_read(latency, report);
            }
            gauge.tick();
        }

        let batch = &updates[applied];
        let start = Instant::now();
        let result = server.apply_updates(batch);
        let latency = start.elapsed();
        cycle += latency;
        applied += 1;
        meter.ops += 1;
        meter.updates += 1;
        meter.update_nanos += latency.as_nanos() as u64;
        let problem = match &result {
            Err(e) => Some(format!("update: {e}")),
            Ok(r) => {
                let outcome = r.update.clone().unwrap_or_default();
                if r.clean_site_visits() != 0 {
                    Some(format!("update: {} visits to clean sites", r.clean_site_visits()))
                } else if !outcome.rejected.is_empty() || outcome.applied_ops != batch.len() {
                    Some(format!("update: {} of {} ops applied", outcome.applied_ops, batch.len()))
                } else {
                    None
                }
            }
        };
        meter.tally.check(problem);
        if let Ok(report) = &result {
            meter.record(latency, report);
            if let Some(outcome) = &report.update {
                meter.update_rounds += u64::from(report.stats.rounds);
                meter.update_dirty_sites += outcome.dirty_sites.len() as u64;
                meter.update_refreshed_sessions += outcome.refreshed_sessions as u64;
                meter.update_recomputed_fragments += outcome.recomputed_fragments as u64;
                meter.update_reunified_fragments += outcome.reunified_fragments as u64;
                meter.update_site_ops += report.stats.total_ops;
            }
        }
        meter.request_ms.push(cycle.as_secs_f64() * 1e3);
        if tracer.is_some() {
            let live = server.server_stats().live_epochs as u64;
            meter.live_epochs_max = meter.live_epochs_max.max(live);
        }
        gauge.tick();
    }
    marks.close(tracer, Link::Sim.site_thread(), window);
    applied
}

/// The update stream of serve-mix episode `episode`.
fn episode_updates(inputs: &Inputs, episode: usize) -> Vec<Vec<(FragmentId, UpdateOp)>> {
    let mut generator = inputs.update_workload(episode);
    (0..EPISODE_CYCLES).map(|_| generator.next_batch(UPDATE_OPS, UPDATE_FRAGMENTS)).collect()
}

/// After each serve-mix episode: every prepared query's cached answers must
/// equal a fresh deployment of the document with the episode's applied updates.
fn check_against_fresh_deploy(
    inputs: &Inputs,
    episode: usize,
    server: &PaxServer,
    prepared: &[PreparedQuery],
    applied: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut generator = inputs.update_workload(episode);
    for _ in 0..applied {
        generator.next_batch(UPDATE_OPS, UPDATE_FRAGMENTS);
    }
    let fresh = Deployed::start(generator.mirror(), Link::Sim, false)?;
    for query in prepared {
        let problem = match (server.execute(query), fresh.server.query_once(query.text())) {
            (Ok(cached), Ok(expected)) => (origins(&cached, 0) != origins(&expected, 0))
                .then(|| format!("{}: answers differ from a fresh deployment", query.text())),
            (Err(e), _) | (_, Err(e)) => Some(format!("{}: {e}", query.text())),
        };
        tally.check(problem);
    }
    fresh.stop()
}

/// Per-layer probes run on the traced deployment before timing: the
/// compile layer (preparing the pool into an empty table) and the batch
/// engine against one-shot execution of the same queries.
pub struct Probes {
    pub prepare: PrepareSetStats,
    pub batch_rounds: u64,
    pub batch_site_ops: u64,
    pub batch_bytes: u64,
    pub single_site_ops: u64,
}

pub fn probe(inputs: &Inputs, ready: &Ready, tally: &mut Tally) -> Result<Probes, String> {
    let server = &ready.deployed.server;
    let texts: Vec<&str> = inputs.queries.iter().map(String::as_str).collect();
    let (prepared, fresh_stats) =
        server.prepare_set(&texts).map_err(|e| format!("prepare: {e}"))?;
    let prepare = ready.prepare_stats.clone().unwrap_or(fresh_stats);
    let mut single_site_ops = 0;
    for (index, text) in texts.iter().enumerate() {
        let result = server.query_once(text);
        tally.check(check_query(&result, text, &inputs.reference[index]));
        single_site_ops += result.map_or(0, |r| r.stats.total_ops);
    }
    let batch = server.execute_batch(&prepared).map_err(|e| format!("batch: {e}"))?;
    let mismatch = (0..prepared.len()).any(|q| origins(&batch, q) != inputs.reference[q]);
    tally.check(mismatch.then(|| "probe batch: answers differ from the reference".to_string()));
    Ok(Probes {
        prepare,
        batch_rounds: u64::from(batch.stats.rounds),
        batch_site_ops: batch.stats.total_ops,
        batch_bytes: batch.network_bytes(),
        single_site_ops,
    })
}
