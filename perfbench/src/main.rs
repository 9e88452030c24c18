//! End-to-end serving benchmark.
//!
//! Serves real staged networks through `StagedNetworkEngine` ->
//! `ServingRuntime` -> `Gateway` / `ShardRouter` and drives them over one
//! TCP connection. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! prints the per-layer metrics from a traced run (plus micro-phases) and
//! the tracing overhead against an untraced run of the same length.
//!
//! ```text
//! eugene-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--commit <id>] [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when
//! the correctness gate fails.

mod check;
mod drive;
mod host;
mod micro;
mod stats;
mod trace;
mod workload;

use check::{check_answer, Answer, Ledger, Reference};
use drive::{drive, Record, Records};
use host::{StealLog, StealSampler};
pub use stats::SplitMix;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Span, SpanKind, SpanLog};
use workload::{build_model, client_classes, Model, SeededSource, Server, Spec};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Traffic sent before the measured window, so plans compile and queues
/// reach their steady state.
const WARMUP: Duration = Duration::from_secs(1);
/// Sub-windows of the measured window. Latency, goodput and utility are
/// the median of their values over the quiet sub-windows: those whose
/// host steal is at most the [`QUIET_SHARE`] quantile of the run's, or at
/// most [`QUIET_FLOOR`].
const WINDOWS: usize = 30;
/// Share of the sub-windows, the least disturbed by the host, that the
/// windowed metrics are taken over (ties included).
const QUIET_SHARE: f64 = 1.0 / 6.0;
/// Steal too small to matter, in ticks per CPU-second: 2%. On a quiet
/// host a busy run still reads a tick or two per second, and every
/// sub-window below this counts.
const QUIET_FLOOR: f64 = 2.0;
/// A run is invalid when the open-loop generator's median lag behind its
/// schedule exceeds this: it fell behind, rather than being held up by
/// an occasional scheduling stall.
const MAX_LAG_P50_MS: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    out: PathBuf,
}

const USAGE: &str =
    "usage: eugene-perfbench --workload <interactive_small|bulk_wide|sharded_overload> \
                     --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_owned(), value);
    }
    let take = |key: &str| {
        values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let number = |key: &str| -> Result<u64, String> {
        take(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    let args = Args {
        workload: take("workload")?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
        commit: values
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".to_owned()),
        out: PathBuf::from(
            values
                .get("out")
                .cloned()
                .unwrap_or_else(|| ".bench_build/perfbench".to_owned()),
        ),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(result) => {
            result.print(&args, &spec);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    info: BTreeMap<&'static str, String>,
}

impl RunResult {
    fn print(&self, args: &Args, spec: &Spec) {
        for p in &self.problems {
            eprintln!("perfbench: CHECK FAILED: {p}");
        }
        println!(
            "perfbench {} seed={} seconds={} trace={}",
            spec.name, args.seed, args.seconds, args.trace as u8
        );
        for m in &self.metrics {
            println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.info {
            println!("  # {k}: {v}");
        }
        println!("{}", stamp(args));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Host and build identity, so numbers from different hosts or commits
/// are never compared by accident.
fn stamp(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {}, \
         \"isa_tier\": \"{}\", \"quant_tier\": \"{}\", \"commit\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        cores,
        eugene_tensor::isa_tier(),
        eugene_tensor::quant_tier_name(),
        args.commit.replace(['"', '\\'], "")
    )
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Model, server and connection, ready to drive.
struct Live {
    model: Model,
    server: Server,
    stream: std::net::TcpStream,
}

fn set_up(spec: &Spec, seed: u64, spans: Option<&SpanLog>) -> Result<Live, String> {
    let model = build_model(spec, seed);
    let server = Server::start(spec, &model, spans).map_err(|e| format!("server start: {e}"))?;
    let stream = drive::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Live {
        model,
        server,
        stream,
    })
}

fn tear_down(live: Live) {
    drop(live.stream);
    live.server.shutdown();
}

/// What one driven pass left behind.
struct Pass {
    /// `(payload, answer)` of the priming bursts sent before the drive.
    primed: Vec<(usize, Answer)>,
    /// Priming requests sent.
    primed_sent: usize,
    record: Record,
    measure_from: Instant,
    window: Duration,
    degraded: u64,
    submitted: u64,
    deadline_kills: u64,
    fused_batches: u64,
    batched_stages: u64,
    gather_wait_us: f64,
    completed: Vec<u64>,
    rejects: u64,
    peak_in_flight: u64,
    failover_replays: u64,
    plan_hits: u64,
    plan_misses: u64,
    /// Peak resident set up to the end of the drive, less the drive's
    /// pre-written records; evaluation, which allocates per-request tables
    /// of its own, comes after.
    peak_rss_mb: f64,
    /// Host steal readings through the drive.
    steal: StealLog,
}

fn drive_pass(
    spec: &Spec,
    live: &Live,
    records: Records,
    seed: u64,
    window: Duration,
) -> Result<Pass, String> {
    let classes = client_classes(spec);
    // Batched workloads first run every batch shape, so plan compilation
    // for each shape lands before timing and peak memory includes it.
    let (primed, primed_sent) = if spec.max_batch > 1 {
        drive::prime(
            &live.stream,
            spec.max_batch,
            &classes,
            &live.model.payloads,
            Duration::from_secs(10),
        )
        .map_err(|e| format!("priming: {e}"))?
    } else {
        (Vec::new(), 0)
    };
    let mut source = SeededSource::new(spec, live.model.payloads.len(), seed);
    let grace = Duration::from_millis(
        spec.classes
            .iter()
            .map(|c| c.deadline_ms)
            .max()
            .unwrap_or(0),
    ) + Duration::from_secs(2);
    let records_mb = records.bytes() as f64 / (1024.0 * 1024.0);
    let sampler = StealSampler::start();
    let record = drive(
        &live.stream,
        spec.traffic,
        records,
        &mut source,
        &classes,
        &live.model.payloads,
        WARMUP + window,
        grace,
    );
    let steal = sampler.stop();
    let peak_rss_mb = peak_rss_mb() - records_mb;
    let stats = live.server.runtime_stats();
    let statuses = live.server.statuses();
    let (plan_hits, plan_misses) = live
        .model
        .networks
        .iter()
        .map(|n| n.plan_cache().stats())
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    let gather: Vec<f64> = stats
        .iter()
        .filter(|s| s.fused_batches() > 0)
        .map(|s| s.mean_gather_wait().as_secs_f64() * 1e6)
        .collect();
    Ok(Pass {
        primed,
        primed_sent,
        measure_from: record.start + WARMUP,
        window,
        degraded: stats.iter().map(|s| s.degraded_exits()).sum(),
        submitted: stats.iter().map(|s| s.submitted()).sum(),
        deadline_kills: stats.iter().map(|s| s.deadline_kills()).sum(),
        fused_batches: stats.iter().map(|s| s.fused_batches()).sum(),
        batched_stages: stats.iter().map(|s| s.batched_stage_executions()).sum(),
        gather_wait_us: gather.iter().fold(0.0, |a, b| a + b) / gather.len().max(1) as f64,
        completed: stats.iter().map(|s| s.completed()).collect(),
        rejects: statuses.iter().map(|s| s.rejects_sent()).sum(),
        peak_in_flight: statuses
            .iter()
            .map(|s| s.peak_in_flight())
            .max()
            .unwrap_or(0),
        failover_replays: live.server.failover_replays(),
        plan_hits,
        plan_misses,
        peak_rss_mb,
        record,
        steal,
    })
}

/// Measured requests of one sub-window of the measured window.
#[derive(Default)]
struct Window {
    /// Host steal ticks during the sub-window.
    steal: u64,
    latencies_ms: Vec<f64>,
    /// Requests due in the sub-window.
    attempted: usize,
    /// Answers carrying the ground-truth label.
    right: usize,
    on_time: usize,
    utility: f64,
}

/// End-to-end view of one pass, with the correctness gate applied.
struct Evaluation {
    ledger: Ledger,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Latency of every measured answer.
    latencies_ms: Vec<f64>,
    /// The measured window split by due time into [`WINDOWS`] parts.
    windows: Vec<Window>,
    window_secs: f64,
    lag_p99_ms: f64,
    /// Sums over measured answers, in seconds: e2e, server, wire, lag.
    sum_e2e: f64,
    sum_server: f64,
    sum_wire: f64,
    sum_lag: f64,
    server_ms: Vec<f64>,
}

impl Evaluation {
    /// Most host steal a sub-window may have and still count as quiet.
    fn quiet_limit(&self) -> u64 {
        let mut steal: Vec<f64> = self.windows.iter().map(|w| w.steal as f64).collect();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let floor = QUIET_FLOOR * cpus as f64 * self.window_secs;
        percentile(&mut steal, QUIET_SHARE).max(floor) as u64
    }

    /// Sub-windows counted as quiet.
    fn quiet_windows(&self) -> usize {
        let limit = self.quiet_limit();
        self.windows.iter().filter(|w| w.steal <= limit).count()
    }

    /// Median over the quiet sub-windows of a per-window statistic. The
    /// host takes the CPU in bursts, and a latency of about a millisecond
    /// is mostly thread wake-ups, which a burst of steal stretches; taking
    /// the sub-windows it spared keeps the figure the program's.
    fn windowed(&mut self, mut f: impl FnMut(&mut Window) -> f64) -> f64 {
        let limit = self.quiet_limit();
        let mut values: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| w.steal <= limit)
            .map(&mut f)
            .collect();
        median(&mut values)
    }

    fn latency_ms(&mut self, q: f64) -> f64 {
        self.windowed(|w| percentile(&mut w.latencies_ms, q))
    }

    fn goodput_rps(&mut self) -> f64 {
        let secs = self.window_secs;
        self.windowed(|w| w.on_time as f64 / secs)
    }

    fn utility_per_s(&mut self) -> f64 {
        let secs = self.window_secs;
        self.windowed(|w| w.utility / secs)
    }

    /// Share of the requests due in the quiet sub-windows that `f` counts.
    fn quiet_share(&self, f: impl Fn(&Window) -> usize) -> f64 {
        let limit = self.quiet_limit();
        let quiet = || self.windows.iter().filter(|w| w.steal <= limit);
        let attempted: usize = quiet().map(|w| w.attempted).sum();
        quiet().map(f).sum::<usize>() as f64 / attempted.max(1) as f64
    }

    /// Share of requests answered with the ground-truth label.
    fn accuracy(&self) -> f64 {
        self.quiet_share(|w| w.right)
    }

    /// Share of requests answered correctly and on time.
    fn ok_frac(&self) -> f64 {
        self.quiet_share(|w| w.on_time)
    }
}

fn evaluate(spec: &Spec, refs: &[Reference], pass: &Pass) -> Evaluation {
    let record = &pass.record;
    let (ledger, first) = Ledger::reconcile(
        record.sent.len(),
        record
            .arrivals
            .iter()
            .map(|a| (a.tag, a.answer == Answer::Rejected)),
    );
    let window_secs = pass.window.as_secs_f64() / WINDOWS as f64;
    let mut problems = Vec::new();
    let mut mismatches = 0usize;
    let mut e = Evaluation {
        ledger: Ledger::default(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        latencies_ms: Vec::new(),
        windows: (0..WINDOWS)
            .map(|i| {
                let from = pass.measure_from + pass.window * i as u32 / WINDOWS as u32;
                let to = pass.measure_from + pass.window * (i as u32 + 1) / WINDOWS as u32;
                Window {
                    steal: pass.steal.between(from, to),
                    ..Window::default()
                }
            })
            .collect(),
        window_secs,
        lag_p99_ms: 0.0,
        sum_e2e: 0.0,
        sum_server: 0.0,
        sum_wire: 0.0,
        sum_lag: 0.0,
        server_ms: Vec::new(),
    };
    for (item, answer) in &pass.primed {
        if let Err(msg) = check_answer(&refs[*item], answer) {
            mismatches += 1;
            if problems.len() < 5 {
                problems.push(format!("priming answer for payload {item}: {msg}"));
            }
        }
    }
    if pass.primed.len() != pass.primed_sent {
        problems.push(format!(
            "priming: {} of {} requests answered",
            pass.primed.len(),
            pass.primed_sent
        ));
    }
    let mut unanswered = 0usize;
    let mut lags = Vec::new();
    for (sent, slot) in record.sent.iter().zip(&first) {
        let arrival = slot.map(|i| &record.arrivals[i]);
        let reference = &refs[sent.item];
        let mut wrong = false;
        if let Some(a) = arrival {
            if let Err(msg) = check_answer(reference, &a.answer) {
                mismatches += 1;
                wrong = true;
                if problems.len() < 5 {
                    problems.push(format!("tag {}: {msg}", a.tag));
                }
            }
        }
        if sent.due < pass.measure_from {
            continue;
        }
        e.attempted += 1;
        let offset = (sent.due - pass.measure_from).as_secs_f64();
        let window = &mut e.windows[((offset / window_secs) as usize).min(WINDOWS - 1)];
        window.attempted += 1;
        lags.push((sent.sent - sent.due).as_secs_f64() * 1e3);
        let Some(a) = arrival else {
            unanswered += 1;
            continue;
        };
        if wrong {
            e.failed += 1;
        }
        let Answer::Final {
            predicted,
            confidence,
            expired,
            server_us,
            ..
        } = a.answer
        else {
            continue;
        };
        let e2e = a.at - sent.due;
        let e2e_ms = e2e.as_secs_f64() * 1e3;
        let server = Duration::from_micros(server_us);
        window.latencies_ms.push(e2e_ms);
        e.latencies_ms.push(e2e_ms);
        e.server_ms.push(server.as_secs_f64() * 1e3);
        e.sum_e2e += e2e.as_secs_f64();
        e.sum_server += server.as_secs_f64();
        e.sum_wire += (a.at - sent.sent).as_secs_f64() - server.as_secs_f64();
        e.sum_lag += (sent.sent - sent.due).as_secs_f64();
        if predicted == Some(reference.label as u64) {
            window.right += 1;
        }
        let deadline = Duration::from_millis(spec.classes[sent.class].deadline_ms);
        if !expired && !wrong && predicted.is_some() && e2e <= deadline {
            window.on_time += 1;
            window.utility += f64::from(confidence.unwrap_or(0.0));
        }
    }
    e.failed += unanswered + record.protocol_errors + ledger.duplicates + ledger.unknown;
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} answers differ from the in-process model"
        ));
    }
    if !ledger.exactly_once() {
        problems.push(format!(
            "exactly-once broken: {} duplicate answers, {} answers for unknown tags",
            ledger.duplicates, ledger.unknown
        ));
    }
    if record.protocol_errors > 0 {
        problems.push(format!("{} protocol errors", record.protocol_errors));
    }
    if record.full {
        problems.push(format!(
            "invalid run: the drive filled its records (a closed loop holds at most {} rps; \
             raise drive::CLOSED_LOOP_MAX_RPS)",
            drive::CLOSED_LOOP_MAX_RPS
        ));
    }
    if e.attempted == 0 {
        problems.push("no request was sent in the measured window".to_owned());
    }
    let lag_p50_ms = percentile(&mut lags, 0.5);
    e.lag_p99_ms = percentile(&mut lags, 0.99);
    if matches!(spec.traffic, drive::Traffic::Poisson { .. }) && lag_p50_ms > MAX_LAG_P50_MS {
        problems.push(format!(
            "invalid run: the generator fell behind its schedule (median lag {lag_p50_ms:.3} ms, \
             limit {MAX_LAG_P50_MS} ms)"
        ));
    }
    e.problems = problems;
    e.ledger = ledger;
    e
}

fn references(spec: &Spec, model: &Model) -> Vec<Reference> {
    let network = &model.networks[0];
    model
        .payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| {
            let outputs = network.classify(payload);
            let label = match &model.labels {
                Some(labels) => labels[i],
                None => outputs.last().map_or(0, |o| o.predicted),
            };
            Reference::new(&outputs, spec.threshold, label)
        })
        .collect()
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run(spec: &Spec, args: &Args) -> Result<RunResult, String> {
    let window = Duration::from_secs(args.seconds);
    if !args.trace {
        // Reserved before the first set-up, so the records are resident
        // through every moment the peak could be reached.
        let records = Records::reserve(spec.traffic, WARMUP + window);
        let mut setups: Vec<f64> = Vec::with_capacity(SETUPS);
        let mut live = None;
        for _ in 0..SETUPS {
            if let Some(previous) = live.take() {
                tear_down(previous);
            }
            let t = Instant::now();
            live = Some(set_up(spec, args.seed, None)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let live = live.expect("at least one set-up");
        let refs = references(spec, &live.model);
        let pass = drive_pass(spec, &live, records, args.seed, window)?;
        tear_down(live);
        let mut e = evaluate(spec, &refs, &pass);
        let mut info = BTreeMap::new();
        info.insert("requests_measured", e.attempted.to_string());
        info.insert(
            "answers",
            format!(
                "{} final, {} rejected, {} unanswered (every sent tag, warm-up included)",
                e.ledger.answered, e.ledger.rejected, e.ledger.unanswered
            ),
        );
        info.insert("gen.lag_p99_ms", format!("{:.4}", e.lag_p99_ms));
        info.insert(
            "host.steal_ticks",
            format!(
                "{} in the measured window; {} of {WINDOWS} sub-windows quiet (at most {} each)",
                e.windows.iter().map(|w| w.steal).sum::<u64>(),
                e.quiet_windows(),
                e.quiet_limit()
            ),
        );
        let metrics = vec![
            metric("setup_s", median(&mut setups), "s"),
            metric("latency_p50_ms", e.latency_ms(0.50), "ms"),
            metric("goodput_rps", e.goodput_rps(), "1/s"),
            metric("utility_per_s", e.utility_per_s(), "1/s"),
            metric("accuracy", e.accuracy(), "ratio"),
            metric("ok_frac", e.ok_frac(), "ratio"),
            metric("peak_rss_mb", pass.peak_rss_mb, "MiB"),
        ];
        return Ok(RunResult {
            correct: e.problems.is_empty(),
            attempted: e.attempted,
            failed: e.failed,
            problems: e.problems,
            metrics,
            info,
        });
    }

    // Traced run: an untraced pass and a traced pass of equal length, so
    // the difference between them is the tracing overhead.
    let half = Duration::from_secs_f64((args.seconds as f64 / 2.0).max(1.0));
    let live = set_up(spec, args.seed, None)?;
    let refs = references(spec, &live.model);
    let records = Records::reserve(spec.traffic, WARMUP + half);
    let plain_pass = drive_pass(spec, &live, records, args.seed, half)?;
    tear_down(live);
    let mut plain = evaluate(spec, &refs, &plain_pass);

    let log = SpanLog::new();
    let live = set_up(spec, args.seed, Some(&log))?;
    let origin = Instant::now();
    let records = Records::reserve(spec.traffic, WARMUP + half);
    let pass = drive_pass(spec, &live, records, args.seed, half)?;
    let network = std::sync::Arc::clone(&live.model.networks[0]);
    tear_down(live);
    let mut e = evaluate(spec, &refs, &pass);
    let spans_path = args
        .out
        .join(format!("spans-{}-seed{}.csv", spec.name, args.seed));
    log.write_csv(&spans_path, origin, &stamp(args))
        .map_err(|err| format!("write {}: {err}", spans_path.display()))?;

    let spans: Vec<Span> = log
        .spans()
        .into_iter()
        .filter(|s| s.start >= pass.measure_from)
        .collect();
    let stage_spans: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Stage).collect();
    let mut assign_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Assign)
        .map(Span::micros)
        .collect();
    let compute: f64 = stage_spans
        .iter()
        .map(|s| s.micros() * 1e-6 * f64::from(s.rows))
        .sum();
    let rows: f64 = stage_spans.iter().map(|s| f64::from(s.rows)).sum();
    // Worker utilisation: engine time over the workers' time in the window.
    let busy: f64 = stage_spans.iter().map(|s| s.micros() * 1e-6).sum();
    let last_end = stage_spans
        .iter()
        .map(|s| s.end)
        .max()
        .unwrap_or(pass.measure_from);
    let worker_time = (last_end - pass.measure_from).as_secs_f64()
        * (workload::NUM_WORKERS * spec.shards.max(1)) as f64;
    let share = |part: f64| part / e.sum_e2e.max(f64::MIN_POSITIVE);

    let mut metrics = Vec::new();
    for stage in 0..network.num_stages() {
        let mut us: Vec<f64> = stage_spans
            .iter()
            .filter(|s| s.stage as usize == stage)
            .map(|s| s.micros())
            .collect();
        metrics.push(metric(
            format!("engine.stage_us.s{stage}"),
            median(&mut us),
            "us",
        ));
    }
    metrics.push(metric(
        "engine.rows_per_call",
        rows / stage_spans.len().max(1) as f64,
        "rows",
    ));
    metrics.push(metric(
        "engine.busy_frac",
        busy / worker_time.max(f64::MIN_POSITIVE),
        "ratio",
    ));
    metrics.push(metric("engine.compute_share", share(compute), "ratio"));
    metrics.push(metric(
        "serve.runtime_share",
        share(e.sum_server - compute),
        "ratio",
    ));
    metrics.push(metric("net.wire_share", share(e.sum_wire), "ratio"));
    metrics.push(metric("gen.lag_share", share(e.sum_lag), "ratio"));
    metrics.push(metric("gen.lag_p99_ms", e.lag_p99_ms, "ms"));
    // Tail latency of the untraced pass, over the whole window.
    for (name, q) in [("latency_p90_ms", 0.90), ("latency_p99_ms", 0.99)] {
        metrics.push(metric(name, percentile(&mut plain.latencies_ms, q), "ms"));
    }
    metrics.push(metric(
        "serve.server_latency_p50_ms",
        percentile(&mut e.server_ms, 0.5),
        "ms",
    ));
    metrics.push(metric(
        "serve.fused_batch_mean",
        pass.batched_stages as f64 / pass.fused_batches.max(1) as f64,
        "rows",
    ));
    metrics.push(metric("serve.gather_wait_us", pass.gather_wait_us, "us"));
    metrics.push(metric(
        "serve.degraded_frac",
        pass.degraded as f64 / pass.submitted.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "serve.deadline_kills",
        pass.deadline_kills as f64,
        "count",
    ));
    metrics.push(metric("net.rejects", pass.rejects as f64, "count"));
    metrics.push(metric(
        "net.peak_in_flight",
        pass.peak_in_flight as f64,
        "count",
    ));
    metrics.push(metric(
        "shard.failover_replays",
        pass.failover_replays as f64,
        "count",
    ));
    let most = pass.completed.iter().copied().max().unwrap_or(0);
    let least = pass.completed.iter().copied().min().unwrap_or(0);
    metrics.push(metric(
        "shard.completion_spread",
        most as f64 / least.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "sched.assign_calls",
        assign_us.len() as f64,
        "count",
    ));
    metrics.push(metric("sched.assign_us", median(&mut assign_us), "us"));
    metrics.push(metric(
        "nn.plan_hit_ratio",
        pass.plan_hits as f64 / (pass.plan_hits + pass.plan_misses).max(1) as f64,
        "ratio",
    ));

    // Micro-phases, with every server stopped. Plans are timed on the
    // wide model whatever the workload, so every traced run measures the
    // f32 and Int8 kernels at the `bulk_wide` shapes.
    let wide = workload::wide_network();
    for stage in 0..wide.num_stages() {
        for rows in [1, 8] {
            metrics.push(metric(
                format!("nn.plan_us.s{stage}.r{rows}"),
                micro::plan_us(&wide, stage, rows),
                "us",
            ));
        }
    }
    let (f32_gemm, i8_gemm) = micro::gemm(8, 1024, 1024);
    metrics.push(metric(
        "tensor.gemm_gflops.f32",
        f32_gemm.gflops(),
        "GFLOP/s",
    ));
    metrics.push(metric("tensor.gemm_gflops.i8", i8_gemm.gflops(), "GOP/s"));
    metrics.push(metric("tensor.gemm_gbps.f32", f32_gemm.gbps(), "GB/s"));
    metrics.push(metric("tensor.gemm_gbps.i8", i8_gemm.gbps(), "GB/s"));
    metrics.push(metric("sched.pick_us.n1k", micro::assign_us(1_000), "us"));
    metrics.push(metric("sched.pick_us.n10k", micro::assign_us(10_000), "us"));

    let plain_p50 = plain.latency_ms(0.5);
    let traced_p50 = e.latency_ms(0.5);
    metrics.push(metric(
        "trace.overhead_p50_frac",
        (traced_p50 - plain_p50) / plain_p50.max(f64::MIN_POSITIVE),
        "ratio",
    ));

    let mut info = BTreeMap::new();
    info.insert("spans_file", spans_path.display().to_string());
    info.insert("spans_measured", spans.len().to_string());
    info.insert(
        "gemm_8x1024x1024",
        format!(
            "{:.0} ops, f32 {:.0} bytes in {:.1} us, i8 {:.0} bytes in {:.1} us (bytes from tensor sizes)",
            f32_gemm.ops, f32_gemm.bytes, f32_gemm.micros, i8_gemm.bytes, i8_gemm.micros
        ),
    );
    info.insert(
        "untraced_vs_traced",
        format!(
            "p50 {plain_p50:.4} -> {traced_p50:.4} ms, goodput {:.1} -> {:.1} rps",
            plain.goodput_rps(),
            e.goodput_rps()
        ),
    );
    let mut problems = plain.problems;
    problems.extend(e.problems);
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: plain.attempted + e.attempted,
        failed: plain.failed + e.failed,
        problems,
        metrics,
        info,
    })
}
