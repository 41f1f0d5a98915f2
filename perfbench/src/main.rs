//! End-to-end and per-layer benchmark of the vani-rs pipeline, driven from
//! outside the library: it sets up each workload, times only its calls
//! into the public functions of `vani_core`, `exemplar_workloads` and
//! `recorder_sim`, and checks every output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-six|fleet|trace-roundtrip> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). See `README.md` here.

mod fleet;
mod host;
mod paper_six;
mod roundtrip;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use recorder_sim::chunk::trace_gauge;

use crate::spans::{SpanId, Spans};
use crate::stats::{failed_frac, rate};

/// Records moved through one timed phase of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Records the phase carried.
    pub records: f64,
    /// Seconds it took.
    pub secs: f64,
}

/// One timed, checked, untraced pass of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall clock of the whole pass.
    pub wall_s: f64,
    /// Jobs the pass completed.
    pub jobs: f64,
    /// The producing side: simulation and capture.
    pub capture: Phase,
    /// The consuming side: recovery, decode and analysis.
    pub replay: Phase,
    /// Operations attempted (the `failed_frac` base).
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Trace column bytes held at once on paths the trace gauge does not
    /// meter (0 where the gauge covers the pass).
    pub trace_bytes: u64,
}

/// One traced pass: additive layer counts plus the decode probe to run
/// once the pass's span has closed.
pub struct Traced {
    /// Counts and times that are not span durations.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Worker threads the pass fanned out over.
    pub workers: usize,
    /// Re-decodes the pass's chunks outside the timed pass and returns the
    /// decode seconds (the decode share of the fold).
    pub probe: Box<dyn FnOnce() -> f64>,
}

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("capture_records_per_s", "1/s"),
    ("replay_records_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("peak_trace_bytes", "B"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics and their units, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sim.busy_s", "s"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("sim.records", "count"),
    ("sim.pfs_ops", "count"),
    ("sim.job_max_s", "s"),
    ("analyze.fused_s", "s"),
    ("analyze.fused_records_per_s", "1/s"),
    ("report.busy_s", "s"),
    ("report.bytes", "B"),
    ("tenancy.manifest_s", "s"),
    ("tenancy.schedule_s", "s"),
    ("tenancy.interference_s", "s"),
    ("fleet.profile_s", "s"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("fleet.job_p50_ms", "ms"),
    ("fleet.job_p95_ms", "ms"),
    ("fleet.job_samples", "count"),
    ("tracer.record_s", "s"),
    ("tracer.ns_per_record", "ns"),
    ("codec.seal_s", "s"),
    ("codec.bytes_per_record", "B/record"),
    ("codec.chunks", "count"),
    ("spill.append_s", "s"),
    ("spill.fsync_points", "count"),
    ("spill.bytes", "B"),
    ("spill.fsck_s", "s"),
    ("spill.quarantined", "count"),
    ("spill.committed_frac", "frac"),
    ("spill.read_s", "s"),
    ("codec.decode_s", "s"),
    ("analyzer.fold_s", "s"),
    ("analyzer.fold_records_per_s", "1/s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.residual_s", "s"),
    ("bench.wall_s", "s"),
    ("host.ref_mops", "Mop/s"),
    ("failed_frac", "frac"),
];

/// The share of an untraced run's timed window spent setting up again.
/// Set-ups interleave with the passes, so they sample the same host states
/// the passes do.
const SETUP_SHARE: f64 = 0.2;
/// Untimed passes that measure the resident peak.
const RSS_PASSES: usize = 3;
/// How long the reference kernel runs after each pass, as a share of the
/// pass. Shared hosts slow down by up to 1.5x for seconds and for minutes
/// at a time, with no steal time showing. Every timing is pooled over the
/// run (total work over total time) and rescaled by the kernel's
/// time-weighted mean speed over the same run, so the kernel samples the
/// host states the passes saw, in proportion to how long they held.
const REF_SHARE: f64 = 0.15;
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Where the trace round trip writes its spill log, relative to the
/// working directory.
const TMP_DIR: &str = ".perfbench_tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSix,
    Fleet,
    TraceRoundtrip,
}

impl Workload {
    /// Worker threads the workload's passes run on.
    fn workers(self) -> usize {
        match self {
            Workload::PaperSix => paper_six::WORKERS,
            Workload::Fleet => fleet::WORKERS,
            Workload::TraceRoundtrip => roundtrip::WORKERS,
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-six" => Some(Workload::PaperSix),
            "fleet" => Some(Workload::Fleet),
            "trace-roundtrip" => Some(Workload::TraceRoundtrip),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Flip a byte of every trace-roundtrip log before replay.
    corrupt_log: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-six|fleet|trace-roundtrip> \
                     [--seed N] [--seconds S] [--trace 0|1] [--corrupt-log]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperSix,
        seed: paper_six::PINNED_SEED,
        seconds: 10.0,
        trace: false,
        corrupt_log: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-log" {
            args.corrupt_log = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A workload's set-up state.
enum Setup {
    PaperSix(paper_six::Setup),
    Fleet(fleet::Setup),
    Roundtrip(Box<roundtrip::Setup>),
}

impl Setup {
    fn new(w: Workload, seed: u64, dir: &Path) -> Setup {
        match w {
            Workload::PaperSix => Setup::PaperSix(paper_six::setup(seed)),
            Workload::Fleet => Setup::Fleet(fleet::setup(seed)),
            Workload::TraceRoundtrip => Setup::Roundtrip(Box::new(roundtrip::setup(seed, dir))),
        }
    }

    fn input_digest(&self) -> u64 {
        match self {
            Setup::PaperSix(s) => paper_six::input_digest(s),
            Setup::Fleet(s) => fleet::input_digest(s),
            Setup::Roundtrip(s) => roundtrip::input_digest(s),
        }
    }

    /// Benchmark-owned input bytes resident while the passes run.
    fn input_bytes(&self) -> u64 {
        match self {
            Setup::Roundtrip(s) => roundtrip::input_bytes(s),
            _ => 0,
        }
    }

    fn pass(&mut self) -> Pass {
        match self {
            Setup::PaperSix(s) => paper_six::pass(s),
            Setup::Fleet(s) => fleet::pass(s),
            Setup::Roundtrip(s) => roundtrip::pass(s),
        }
    }

    fn traced_pass(&self, spans: &Spans, root: SpanId) -> Traced {
        match self {
            Setup::PaperSix(s) => paper_six::traced_pass(s, spans, root),
            Setup::Fleet(s) => fleet::traced_pass(s, spans, root),
            Setup::Roundtrip(s) => roundtrip::traced_pass(s, spans, root),
        }
    }
}

/// Metric name → value, in output order.
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// The run's verdict and figures.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn tally(ps: &[Pass]) -> (u64, u64) {
    ps.iter()
        .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
}

/// Set up once. Returns the set-up, its time and the digest of the inputs
/// it generated.
fn set_up(args: &Args, dir: &Path) -> (Setup, f64, u64) {
    let t = Instant::now();
    let mut s = Setup::new(args.workload, args.seed, dir);
    let secs = t.elapsed().as_secs_f64();
    if let Setup::Roundtrip(r) = &mut s {
        r.corrupt = args.corrupt_log;
    }
    let digest = s.input_digest();
    (s, secs, digest)
}

/// Total work over total time of `(work, secs)` pairs.
fn pooled(v: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (work, secs) = v.fold((0.0, 0.0), |(w, t), (a, b)| (w + a, t + b));
    rate(work, secs)
}

fn untraced(args: &Args, dir: &Path) -> Outcome {
    let workers = args.workload.workers();
    let mut refs = Vec::new();
    let (mut s, first_setup_s, digest) = set_up(args, dir);
    let mut setup_times = vec![first_setup_s];
    let mut stable = true;
    trace_gauge().reset();
    let warm = s.pass();
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(args.seconds);
    let mut ps = Vec::new();
    let mut resetup_s = 0.0;
    let mut gauge_peak = 0;
    while ps.len() < MIN_PASSES || Instant::now() < deadline {
        let p = s.pass();
        refs.push(host::ref_sample(workers, REF_SHARE * p.wall_s));
        ps.push(p);
        if resetup_s < SETUP_SHARE * window.elapsed().as_secs_f64() {
            // Free the current set-up first, so only one copy of the inputs
            // is ever resident. A set-up may charge the trace gauge (the
            // fleet's reference sweep does), so the passes' peak so far is
            // kept and the gauge restarts after it.
            gauge_peak = gauge_peak.max(trace_gauge().peak());
            drop(s);
            let (next, secs, d) = set_up(args, dir);
            s = next;
            setup_times.push(secs);
            resetup_s += secs;
            stable &= d == digest;
            trace_gauge().reset();
        }
    }
    // Memory passes, after the timed ones: each starts from freed heap and
    // a reset high-water mark, so its resident peak is its own. Freeing the
    // heap makes the next pass fault its pages back in, which is why these
    // passes are not timed. The run reports the lowest of these peaks:
    // neither set-up's peak nor a pass whose worker threads grew an extra
    // allocator arena is reported for the run.
    let mut rss_mb = Vec::new();
    let mut checked = vec![warm];
    for _ in 0..RSS_PASSES {
        let reset = host::reset_peak_rss();
        checked.push(s.pass());
        if let (true, Some(peak)) = (reset, host::peak_rss_bytes()) {
            rss_mb.push(peak.saturating_sub(s.input_bytes()) as f64 / (1u64 << 20) as f64);
        }
    }
    let (mut attempted, mut failed) = tally(&ps);
    let (a, f) = tally(&checked);
    attempted += a;
    failed += f;
    if !stable {
        eprintln!("set-up generated different inputs from the same seed");
        failed = attempted;
    }
    // Pooled figures, rescaled from the host's mean speed in this run to
    // the nominal one (see `host::REF_NOMINAL_MOPS`).
    let host_mops = host::mean_mops(&refs);
    let scale = host::REF_NOMINAL_MOPS / host_mops;
    let rescaled = |f: &dyn Fn(&Pass) -> (f64, f64)| scale * pooled(ps.iter().map(f));
    let setup_s = setup_times.iter().sum::<f64>() / setup_times.len() as f64 / scale;
    let peak_trace = ps
        .iter()
        .map(|p| p.trace_bytes)
        .max()
        .unwrap_or(0)
        .max(gauge_peak)
        .max(trace_gauge().peak());
    let show = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ")
    };
    eprintln!(
        "pass wall clocks (s): {}",
        show(&mut ps.iter().map(|p| p.wall_s))
    );
    eprintln!(
        "pass resident peaks (MiB): {}",
        show(&mut rss_mb.iter().copied())
    );
    eprintln!(
        "set-up times (s): {}",
        show(&mut setup_times.iter().copied())
    );
    eprintln!(
        "reference speeds (Mop/s): {}; mean {host_mops:.3}; rescale {scale:.4}; raw jobs/s {:.4}",
        show(&mut refs.iter().map(|r| r.mops)),
        pooled(ps.iter().map(|p| (p.jobs, p.wall_s))),
    );
    let values = [
        setup_s,
        rescaled(&|p| (p.jobs, p.wall_s)),
        rescaled(&|p| (p.capture.records, p.capture.secs)),
        rescaled(&|p| (p.replay.records, p.replay.secs)),
        rss_mb.iter().copied().fold(f64::INFINITY, f64::min),
        peak_trace as f64,
        1.0 - failed_frac(failed, attempted),
    ];
    Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
    }
}

/// Layer figures of one traced pass, from its spans and counts.
fn layer_values(
    all: &[spans::Span],
    layers: &BTreeMap<&'static str, f64>,
    workers: usize,
    probe_s: f64,
) -> BTreeMap<&'static str, f64> {
    let tot = spans::totals(all);
    let secs = |name: &str| tot.get(name).map_or(0, |x| x.total_ns) as f64 / 1e9;
    let mut m = layers.clone();
    let durs = |name: &'static str| all.iter().filter(move |s| s.name == name);
    m.insert("sim.busy_s", secs("sim"));
    m.insert(
        "sim.job_max_s",
        durs("sim").map(|s| s.dur_ns()).max().unwrap_or(0) as f64 / 1e9,
    );
    m.insert("analyze.fused_s", secs("analyze.fused"));
    m.insert("report.busy_s", secs("report"));
    m.insert("tenancy.manifest_s", secs("tenancy.manifest"));
    m.insert("tenancy.schedule_s", secs("tenancy.schedule"));
    m.insert("tenancy.interference_s", secs("tenancy.interference"));
    m.insert("fleet.profile_s", secs("fleet.profile"));
    let busy = secs("par.job");
    let capacity = (secs("fleet.profile") + secs("fleet.jobs")) * workers as f64;
    m.insert("par.busy_s", busy);
    m.insert("par.idle_s", (capacity - busy).max(0.0));
    let job_waves: Vec<SpanId> = durs("fleet.jobs").map(|s| s.id).collect();
    let job_ms: Vec<f64> = durs("par.job")
        .filter(|s| s.parent.is_some_and(|p| job_waves.contains(&p)))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let (p50, p95, samples) = fleet::job_latency(&job_ms);
    m.insert("fleet.job_p50_ms", p50);
    m.insert("fleet.job_p95_ms", p95);
    m.insert("fleet.job_samples", samples);
    m.insert("tracer.record_s", secs("tracer.record"));
    m.insert("codec.seal_s", secs("codec.seal"));
    m.insert("spill.append_s", secs("spill.append"));
    m.insert("spill.fsck_s", secs("spill.fsck"));
    m.insert("codec.decode_s", probe_s);
    let read = m.get("spill.read_s").copied().unwrap_or(0.0);
    m.insert(
        "analyzer.fold_s",
        (secs("analyzer.fold") - read - probe_s).max(0.0),
    );
    let pass = tot.get("pass").copied().unwrap_or_default();
    m.insert("bench.residual_s", pass.self_ns as f64 / 1e9);
    m.insert("bench.wall_s", pass.total_ns as f64 / 1e9);
    m
}

fn traced(args: &Args, dir: &Path) -> Outcome {
    let workers = args.workload.workers();
    let (mut s, _, _) = set_up(args, dir);
    let warm = s.pass();
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    // Untraced and traced passes alternate, so both see the same host
    // states, and the overhead compares their mean wall clocks.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut plain = Vec::new();
    let mut walls = Vec::new();
    let mut refs = Vec::new();
    while walls.len() < 2 || Instant::now() < deadline {
        let p = s.pass();
        attempted += p.attempted;
        failed += p.failed;
        plain.push(p.wall_s);
        let log = Spans::new();
        let t = log.time("pass", None, |root| s.traced_pass(&log, root));
        attempted += t.attempted;
        failed += t.failed;
        let probe_s = (t.probe)();
        let m = layer_values(&log.into_spans(), &t.layers, t.workers, probe_s);
        walls.push(m["bench.wall_s"]);
        refs.push(host::ref_sample(
            workers,
            REF_SHARE * (p.wall_s + m["bench.wall_s"]),
        ));
        for (k, v) in m {
            *sums.entry(k).or_default() += v;
        }
    }
    let n = walls.len() as f64;
    let mean = |k: &str| sums.get(k).copied().unwrap_or(0.0) / n;
    let mut m: BTreeMap<&str, f64> = sums.keys().map(|&k| (k, mean(k))).collect();
    m.insert(
        "sim.steps_per_s",
        rate(mean("sim.steps"), mean("sim.busy_s")),
    );
    m.insert(
        "analyze.fused_records_per_s",
        rate(mean("analyze.records"), mean("analyze.fused_s")),
    );
    m.insert(
        "tracer.ns_per_record",
        rate(mean("tracer.record_s") * 1e9, mean("tracer.records")),
    );
    m.insert(
        "codec.bytes_per_record",
        rate(mean("codec.bytes"), mean("codec.records")),
    );
    m.insert(
        "spill.committed_frac",
        rate(mean("spill.committed"), mean("spill.expected")),
    );
    m.insert(
        "analyzer.fold_records_per_s",
        rate(mean("analyzer.records"), mean("analyzer.fold_s")),
    );
    let plain_s = plain.iter().sum::<f64>() / n;
    let traced_s = walls.iter().sum::<f64>() / n;
    m.insert("bench.trace_overhead_frac", rate(traced_s, plain_s) - 1.0);
    m.insert("host.ref_mops", host::mean_mops(&refs));
    m.insert("failed_frac", failed_frac(failed, attempted));
    eprintln!(
        "{} untraced and traced pass pairs; mean wall clock \
         {plain_s:.4} s untraced, {traced_s:.4} s traced; spans cover {:.2}% of the traced \
         wall clock",
        walls.len(),
        100.0 * (1.0 - rate(mean("bench.residual_s"), mean("bench.wall_s"))),
    );
    Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
            .collect(),
    }
}

/// A metric value as JSON: every digit as measured; non-finite values
/// (which no metric should produce) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn render(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(TMP_DIR);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {TMP_DIR}: {e}");
        std::process::exit(1);
    }
    let workers = args.workload.workers();
    let before = host::ref_mops(workers);
    let outcome = if args.trace {
        traced(&args, &dir)
    } else {
        untraced(&args, &dir)
    };
    eprintln!(
        "host.ref_mops {before:.3} before the run, {:.3} after; {} core(s) available",
        host::ref_mops(workers),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = std::fs::remove_dir(&dir);
    println!("{}", render(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vani_rt::Json;

    fn strings(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&strings(&[
            "--workload",
            "fleet",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 12.0, true));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "fleet", "--trace", "2"],
            &["--workload", "fleet", "--seconds", "0"],
            &["--workload", "fleet", "--extra", "x"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.field(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.field(k)
                            .and_then(Json::as_str)
                            .expect("field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn failed_frac_base_is_jobs_or_records() {
        // paper-six counts its six jobs, fleet its manifest jobs, and the
        // round trip every record of the generated trace.
        assert_eq!(fleet::config(1).n_jobs, fleet::JOBS);
        let p = Pass {
            wall_s: 1.0,
            jobs: 1.0,
            capture: Phase {
                records: 4.0,
                secs: 1.0,
            },
            replay: Phase {
                records: 4.0,
                secs: 1.0,
            },
            attempted: roundtrip::RECORDS as u64,
            failed: 0,
            trace_bytes: 0,
        };
        let wrong = Pass {
            failed: roundtrip::RECORDS as u64,
            ..p
        };
        let (a, f) = tally(&[p, wrong]);
        assert_eq!(failed_frac(f, a), 0.5);
    }

    #[test]
    fn rates_pool_work_over_time() {
        // One slow pass weighs by its length, not as one of two samples.
        let v = [(10.0, 1.0), (10.0, 3.0)];
        assert_eq!(pooled(v.into_iter()), 5.0);
        assert_eq!(pooled(std::iter::empty()), 0.0);
    }

    #[test]
    fn rendered_result_is_one_json_line() {
        let o = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", "s", 0.812_7), ("ok_frac", "frac", 1.0)],
        };
        let line = render(&o);
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let v = j
            .field("metrics")
            .and_then(|m| m.field("setup_s"))
            .and_then(|m| m.field("value"))
            .and_then(Json::as_f64)
            .expect("value");
        assert_eq!(v, 0.812_7);
    }
}
