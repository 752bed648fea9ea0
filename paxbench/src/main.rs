//! The repository benchmark: seeded workloads against `PaxServer` through
//! its public API, measured end to end, with a separate traced run for the
//! per-layer figures.
//!
//! ```text
//! paxbench --workload <oneshot-sim|oneshot-tcp|serve-mix> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A human-readable
//! table goes to standard error. The exit code is 0 only when every checked
//! output was correct.
//!
//! End-to-end CPU time, and on the CPU-bound simulator workloads every
//! end-to-end time, is scaled to a reference host speed measured by
//! [`gauge`]; the unscaled figures go to standard error.

mod gauge;
mod procfs;
mod stats;
mod tracer;
mod workload;

use stats::{median, percentile};
use workload::{Inputs, Link, Ready, Tally, Window, Workload};

/// Seed used when none is given; the held-out seed for confirming a claimed
/// gain is 7.
const DEFAULT_SEED: u64 = 2026;
const DEFAULT_SECONDS: u64 = 30;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("bytes_per_op", "B"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("prepare.us_per_query", "us"),
    ("prepare.arena_entries", "count"),
    ("api.overhead_ms_per_op", "ms"),
    ("round.per_op", "count"),
    ("round.ms_per_op", "ms"),
    ("round.errors", "count"),
    ("site.busy_max_ms_per_op", "ms"),
    ("site.busy_sum_ms_per_op", "ms"),
    ("site.cpu_ms_per_op", "ms"),
    ("site.ops_per_op", "count"),
    ("link.residual_ms_per_round", "ms"),
    ("codec.encode_us_per_op", "us"),
    ("codec.decode_us_per_op", "us"),
    ("wire.req_bytes_per_op", "B"),
    ("wire.resp_bytes_per_op", "B"),
    ("coord.self_ms_per_op", "ms"),
    ("coord.cpu_ms_per_op", "ms"),
    ("coord.unify_ops_per_op", "count"),
    ("prune.fragments_evaluated_ratio", "ratio"),
    ("read.cache_hit_ratio", "ratio"),
    ("read.visits_per_op", "count"),
    ("epoch.live_max", "count"),
    ("session.cache_bytes", "B"),
    ("update.rounds_per_op", "count"),
    ("update.dirty_sites_per_op", "count"),
    ("update.refreshed_sessions_per_op", "count"),
    ("update.recomputed_fragments_per_op", "count"),
    ("update.reunified_fragments_per_op", "count"),
    ("update.site_ops_per_op", "count"),
    ("batch.rounds_per_op", "count"),
    ("batch.site_ops_per_query", "count"),
    ("batch.site_ops_vs_single", "ratio"),
    ("batch.bytes_per_query", "B"),
    ("time_share.read", "ratio"),
    ("time_share.batch", "ratio"),
    ("time_share.update", "ratio"),
    ("site.resident_bytes", "B"),
    ("trace.overhead_ms_per_request", "ms"),
    ("host.gauge_us", "us"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::OneshotSim,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut workload = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Metrics of one run, checked against a declared list.
struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    fn new(declared: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { declared, values: Vec::new() }
    }

    fn put(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        self.values.push((name, unit, value));
    }

    /// The result line: every declared metric, in declared order.
    fn json(&self, tally: Tally) -> String {
        let metrics: Vec<String> = self
            .declared
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .values
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .2;
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// `numerator / denominator`, or 0 with nothing to divide by.
fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Set up `workload.setup_repeats()` times, keeping the last deployment; returns it
/// with the median set-up time.
fn set_up_repeatedly(
    workload: Workload,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(Ready, f64), String> {
    let mut times = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..workload.setup_repeats() {
        if let Some(previous) = ready.take() {
            previous.deployed.stop()?;
        }
        let next = workload::set_up(workload, inputs, false, tally)?;
        times.push(next.setup_s);
        ready = Some(next);
    }
    let ready = ready.expect("at least one set-up ran");
    Ok((ready, median(&times).expect("set-up times were recorded")))
}

/// The untraced run: the end-to-end metrics.
fn run_end_to_end(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Result<Metrics, String> {
    let workload = args.workload;
    let (ready, setup_s) = set_up_repeatedly(workload, inputs, tally)?;
    if workload.link() == Link::Tcp {
        workload::check_sim_matches_tcp(inputs, &ready.deployed.server, tally)?;
    }
    let (window, ready) = workload::run_timed(workload, inputs, ready, args.seconds)?;
    finish(&window, tally);
    let peak_rss_mb = procfs::peak_rss_mb();
    ready.deployed.stop()?;

    let meter = &window.meter;
    let ops = meter.ops as f64;
    let slowdown = gauge::slowdown(window.gauge_us());
    let wall_slowdown = if workload.cpu_bound() { slowdown } else { 1.0 };
    let cpu_ms = procfs::ticks_to_ms(window.process_ticks) - window.gauge_ms();
    let mut metrics = Metrics::new(END_TO_END);
    metrics.put("setup_s", setup_s / wall_slowdown);
    metrics.put("throughput_ops_s", per(ops, window.wall_s) * wall_slowdown);
    metrics.put("p50_ms", percentile(&meter.request_ms, 50.0).unwrap_or(0.0) / wall_slowdown);
    metrics.put("p90_ms", percentile(&meter.request_ms, 90.0).unwrap_or(0.0) / wall_slowdown);
    metrics.put("bytes_per_op", per(meter.bytes as f64, ops));
    metrics.put("cpu_ms_per_op", per(cpu_ms, ops) / slowdown);
    metrics.put("peak_rss_mb", peak_rss_mb);
    eprintln!(
        "{}: {} requests (one {} each), {} ops in {:.2} s timed; {} episodes; setup median of {}; \
         {} cores",
        workload.name(),
        meter.request_ms.len(),
        workload.request(),
        meter.ops,
        window.wall_s,
        window.episodes,
        workload.setup_repeats(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    eprintln!(
        "gauge: {} slices, mean {:.2} us; slowdown {:.4}{}; as measured: setup {:.4} s, \
         {:.2} ops/s, p50 {:.3} ms, p90 {:.3} ms, cpu {:.3} ms/op",
        window.gauge_ns.len(),
        window.gauge_us(),
        slowdown,
        if workload.cpu_bound() { "" } else { " (applied to CPU time only)" },
        setup_s,
        per(ops, window.wall_s),
        percentile(&meter.request_ms, 50.0).unwrap_or(0.0),
        percentile(&meter.request_ms, 90.0).unwrap_or(0.0),
        per(cpu_ms, ops),
    );
    Ok(metrics)
}

/// Count the window's own checks, and the tracer's codec check.
fn finish(window: &Window, tally: &mut Tally) {
    tally.merge(window.meter.tally);
    if let Some(trace) = &window.trace {
        tally.check((trace.codec_mismatches > 0).then(|| {
            format!("{} messages did not re-encode to their charged size", trace.codec_mismatches)
        }));
    }
}

/// The traced run: an untraced half for the overhead baseline, then a traced
/// half that yields the per-layer metrics.
fn run_traced(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Result<Metrics, String> {
    let workload = args.workload;
    let half = (args.seconds / 2).max(1);

    let ready = workload::set_up(workload, inputs, false, tally)?;
    let (base, ready) = workload::run_timed(workload, inputs, ready, half)?;
    finish(&base, tally);
    ready.deployed.stop()?;

    let ready = workload::set_up(workload, inputs, true, tally)?;
    let probes = workload::probe(inputs, &ready, tally)?;
    let (window, ready) = workload::run_timed(workload, inputs, ready, half)?;
    finish(&window, tally);
    let server_stats = ready.deployed.server.server_stats();
    ready.deployed.stop()?;

    let m = &window.meter;
    let t = window.trace.expect("a traced deployment yields trace totals");
    let ops = m.ops as f64;
    let rounds = t.rounds as f64;
    let queries = inputs.queries.len() as f64;
    let mut metrics = Metrics::new(PER_LAYER);
    metrics.put("prepare.us_per_query", probes.prepare.elapsed.as_secs_f64() * 1e6 / queries);
    metrics.put("prepare.arena_entries", probes.prepare.arena_entries as f64);
    metrics.put("api.overhead_ms_per_op", per(ms(m.client_nanos) - ms(m.exec_nanos), ops));
    metrics.put("round.per_op", per(rounds, ops));
    metrics.put("round.ms_per_op", per(ms(t.round_nanos), ops));
    metrics.put("round.errors", t.round_errors as f64);
    metrics.put("site.busy_max_ms_per_op", per(ms(t.busy_max_nanos), ops));
    metrics.put("site.busy_sum_ms_per_op", per(ms(t.busy_sum_nanos), ops));
    metrics.put("site.cpu_ms_per_op", per(procfs::ticks_to_ms(window.site_ticks), ops));
    metrics.put("site.ops_per_op", per(t.site_ops as f64, ops));
    metrics.put(
        "link.residual_ms_per_round",
        per(ms(t.link_busy_nanos) - ms(t.busy_max_nanos), rounds),
    );
    metrics.put("codec.encode_us_per_op", per(t.encode_nanos as f64 / 1e3, ops));
    metrics.put("codec.decode_us_per_op", per(t.decode_nanos as f64 / 1e3, ops));
    metrics.put("wire.req_bytes_per_op", per(t.request_bytes as f64, ops));
    metrics.put("wire.resp_bytes_per_op", per(t.response_bytes as f64, ops));
    metrics.put("coord.self_ms_per_op", per(ms(m.exec_nanos) - ms(t.round_nanos), ops));
    metrics.put(
        "coord.cpu_ms_per_op",
        per(procfs::ticks_to_ms(m.client_ticks) - window.gauge_ms(), ops),
    );
    metrics.put("coord.unify_ops_per_op", per(m.coordinator_ops as f64, ops));
    metrics.put(
        "prune.fragments_evaluated_ratio",
        per(m.fragments_evaluated as f64, m.fragments_total as f64),
    );
    metrics.put("read.cache_hit_ratio", per(m.cache_hits as f64, m.reads as f64));
    metrics.put("read.visits_per_op", per(m.read_visits as f64, m.reads as f64));
    metrics.put("epoch.live_max", m.live_epochs_max.max(server_stats.live_epochs as u64) as f64);
    metrics.put("session.cache_bytes", server_stats.session_cache_bytes as f64);
    let updates = m.updates as f64;
    metrics.put("update.rounds_per_op", per(m.update_rounds as f64, updates));
    metrics.put("update.dirty_sites_per_op", per(m.update_dirty_sites as f64, updates));
    metrics
        .put("update.refreshed_sessions_per_op", per(m.update_refreshed_sessions as f64, updates));
    metrics.put(
        "update.recomputed_fragments_per_op",
        per(m.update_recomputed_fragments as f64, updates),
    );
    metrics.put(
        "update.reunified_fragments_per_op",
        per(m.update_reunified_fragments as f64, updates),
    );
    metrics.put("update.site_ops_per_op", per(m.update_site_ops as f64, updates));
    metrics.put("batch.rounds_per_op", probes.batch_rounds as f64);
    metrics.put("batch.site_ops_per_query", probes.batch_site_ops as f64 / queries);
    metrics.put(
        "batch.site_ops_vs_single",
        per(probes.batch_site_ops as f64, probes.single_site_ops as f64),
    );
    metrics.put("batch.bytes_per_query", probes.batch_bytes as f64 / queries);
    metrics.put("time_share.read", per(m.read_nanos as f64, m.client_nanos as f64));
    metrics.put("time_share.batch", per(m.batch_nanos as f64, m.client_nanos as f64));
    metrics.put("time_share.update", per(m.update_nanos as f64, m.client_nanos as f64));
    metrics.put(
        "site.resident_bytes",
        server_stats.site_loads.iter().map(|l| l.resident_bytes).sum::<u64>() as f64,
    );
    metrics.put("host.gauge_us", window.gauge_us());
    // Means, not medians: one-shot TCP latencies cluster around whole
    // multiples of the per-round stall, and a median jumps between them.
    // Each half is scaled by its own gauge on the CPU-bound workloads,
    // since the host's speed may change between the halves.
    let mean = |w: &Window| {
        let slowdown = if workload.cpu_bound() { gauge::slowdown(w.gauge_us()) } else { 1.0 };
        per(w.meter.request_ms.iter().sum(), w.meter.request_ms.len() as f64) / slowdown
    };
    metrics.put("trace.overhead_ms_per_request", mean(&window) - mean(&base));
    Ok(metrics)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: paxbench --workload <oneshot-sim|oneshot-tcp|serve-mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let result = Inputs::generate(args.seed).and_then(|inputs| {
        if args.trace {
            run_traced(&args, &inputs, &mut tally)
        } else {
            run_end_to_end(&args, &inputs, &mut tally)
        }
    });
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    };
    for (name, unit, value) in &metrics.values {
        eprintln!("{name:<36} {value:>14.4} {unit}");
    }
    eprintln!("attempted {} failed {}", tally.attempted, tally.failed);
    println!("{}", metrics.json(tally));
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for workload in Workload::ALL {
            assert!(valid_name(workload.name()));
        }
        assert!(!valid_name("p50 ms") && !valid_name(".hidden") && !valid_name("a/b"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(declared(name), "{name} missing from BENCHMARK.json");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        for workload in Workload::ALL {
            assert!(declared(workload.name()), "{} missing", workload.name());
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len());
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut metrics = Metrics::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            metrics.put(name, 0.5 + i as f64);
        }
        let line = metrics.json(Tally { attempted: 3, failed: 0 });
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}}"));
    }

    #[test]
    fn arguments_parse_and_reject_unknown_input() {
        let args: Vec<String> =
            ["--workload", "serve-mix", "--seed", "9", "--seconds", "3", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workload, Workload::ServeMix);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 3, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
    }
}
