//! Reproduction harness: regenerates every table (I–XI) and figure (1–8)
//! of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- table1 table3 fig7
//! VANI_SCALE=0.1 cargo run --release -p bench --bin repro -- fig8
//! cargo run --release -p bench --bin repro -- fault-sweep
//! cargo run --release -p bench --bin repro -- crash-sweep
//! cargo run --release -p bench --bin repro -- ablations
//! cargo run --release -p bench --bin repro -- fleet-sweep [--short] [--jobs N] [--node-faults] [--spill DIR]
//! cargo run --release -p bench --bin repro -- trace-fsck PATH
//! ```
//!
//! `VANI_SCALE` (default 0.05) sets the workload scale: 1.0 is the paper's
//! full configuration (1.5 TiB CosmoFlow corpus, 1280 ranks), which takes
//! considerably longer. Shapes are scale-stable by construction.
//!
//! Every argument is checked against [`ARTIFACTS`] before any simulation
//! starts: an unknown name, a flag none of the named artifacts takes, a
//! bad `--jobs`/`--spill` value or a bad `VANI_SCALE` exits 2.

use bench::{ior_peak, scale_from_env};
use vani_core::analyzer::Analysis;
use vani_core::{crashsweep, figures, reconfig, sweep, tables, yaml};

/// A command-line flag and the value it takes, if any.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flag {
    Short,
    Jobs,
    NodeFaults,
    Spill,
}

impl Flag {
    const ALL: [Flag; 4] = [Flag::Short, Flag::Jobs, Flag::NodeFaults, Flag::Spill];

    fn name(self) -> &'static str {
        match self {
            Flag::Short => "--short",
            Flag::Jobs => "--jobs",
            Flag::NodeFaults => "--node-faults",
            Flag::Spill => "--spill",
        }
    }

    /// Placeholder for the flag's value in the usage text.
    fn value_name(self) -> Option<&'static str> {
        match self {
            Flag::Jobs => Some("N"),
            Flag::Spill => Some("DIR"),
            Flag::Short | Flag::NodeFaults => None,
        }
    }
}

/// One row of the artifact table.
struct Artifact {
    name: &'static str,
    /// Rendered by `all` (and when no artifact is named).
    in_all: bool,
    /// Reads the six exemplar analyses.
    needs_six: bool,
    flags: &'static [Flag],
}

const fn six(name: &'static str) -> Artifact {
    Artifact {
        name,
        in_all: true,
        needs_six: true,
        flags: &[],
    }
}

const fn self_contained(name: &'static str) -> Artifact {
    Artifact {
        name,
        in_all: true,
        needs_six: false,
        flags: &[],
    }
}

/// Every artifact, in the order `all` renders them.
const ARTIFACTS: &[Artifact] = &[
    six("table1"),
    six("table2"),
    six("table3"),
    six("table4"),
    six("table5"),
    six("table6"),
    six("table7"),
    six("table8"),
    six("table9"),
    six("table10"),
    six("table11"),
    six("fig1"),
    six("fig2"),
    six("fig3"),
    six("fig4"),
    six("fig5"),
    six("fig6"),
    self_contained("fig7"),
    self_contained("fig8"),
    self_contained("fault-sweep"),
    self_contained("crash-sweep"),
    self_contained("ablations"),
    six("yaml"),
    Artifact {
        name: "fleet-sweep",
        in_all: false,
        needs_six: false,
        flags: &Flag::ALL,
    },
];

/// The usage text, generated from [`ARTIFACTS`].
fn usage() -> String {
    let mut out = String::from(
        "usage: repro -- [all | ARTIFACT [FLAG]...] | trace-fsck PATH\n  all renders:",
    );
    for a in ARTIFACTS.iter().filter(|a| a.in_all) {
        out.push(' ');
        out.push_str(a.name);
    }
    for a in ARTIFACTS.iter().filter(|a| !a.in_all) {
        out.push_str("\n  named only: ");
        out.push_str(a.name);
        for f in a.flags {
            match f.value_name() {
                Some(v) => out.push_str(&format!(" [{} {v}]", f.name())),
                None => out.push_str(&format!(" [{}]", f.name())),
            }
        }
    }
    out
}

/// A validated command line.
#[derive(Default)]
struct Request {
    wanted: Vec<&'static Artifact>,
    short: bool,
    node_faults: bool,
    jobs: Option<usize>,
    spill: Option<String>,
}

/// Check the command line against [`ARTIFACTS`]; an error is the message
/// to print before the usage.
fn parse(args: &[String]) -> Result<Request, String> {
    let mut req = Request::default();
    let mut given: Vec<Flag> = Vec::new();
    let mut all = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if a == "all" {
                all = true;
            } else {
                let art = ARTIFACTS
                    .iter()
                    .find(|x| x.name == a)
                    .ok_or_else(|| format!("unknown artifact: {a}"))?;
                req.wanted.push(art);
            }
            continue;
        }
        let (key, inline) = match a.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let flag = Flag::ALL
            .into_iter()
            .find(|f| f.name() == key)
            .ok_or_else(|| format!("unknown flag: {a}"))?;
        let value = match (flag.value_name(), inline) {
            (Some(_), Some(v)) => v,
            (Some(_), None) => it.next().cloned().unwrap_or_default(),
            (None, None) => String::new(),
            (None, Some(_)) => {
                return Err(format!("{key} takes no value: {a}"));
            }
        };
        match flag {
            Flag::Short => req.short = true,
            Flag::NodeFaults => req.node_faults = true,
            Flag::Jobs => {
                req.jobs = Some(bench::fleet::parse_jobs(&value).map_err(|e| e.to_string())?)
            }
            Flag::Spill => {
                bench::fleet::validate_spill_dir(&value).map_err(|e| e.to_string())?;
                req.spill = Some(value);
            }
        }
        given.push(flag);
    }
    if all || req.wanted.is_empty() {
        req.wanted = ARTIFACTS.iter().filter(|a| a.in_all).collect();
    }
    if let Some(f) = given
        .iter()
        .find(|f| !req.wanted.iter().any(|a| a.flags.contains(f)))
    {
        return Err(format!("{} is not a flag of any named artifact", f.name()));
    }
    Ok(req)
}

/// `trace-fsck PATH`: walk the spill log and print the recovery report —
/// a missing or unreadable path is a typed error and exit 2, never a
/// panic.
fn trace_fsck(args: &[String]) {
    let [path] = args else {
        eprintln!("trace-fsck takes exactly one PATH argument");
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    match bench::fsck::run_fsck(path) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("trace-fsck failed: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-fsck") {
        return trace_fsck(&args[1..]);
    }
    let req = match parse(&args) {
        Ok(req) => req,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let scale = match scale_from_env() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let analyses: Vec<Analysis> = if req.wanted.iter().any(|a| a.needs_six) {
        eprintln!("running the six exemplar workloads at scale {scale} ...");
        sweep::paper_six(scale, 7, sweep::Driver::Parallel)
    } else {
        Vec::new()
    };
    let cols: Vec<&Analysis> = analyses.iter().collect();

    for w in &req.wanted {
        match w.name {
            "table1" => print!("{}", tables::table1(&cols).render()),
            "table2" => print!("{}", tables::table2(&cols).render()),
            "table3" => print!("{}", tables::table3(&cols).render()),
            "table4" => print!("{}", tables::table4(&cols).render()),
            "table5" => print!("{}", tables::table5(&cols).render()),
            "table6" => print!("{}", tables::table6(&cols).render()),
            "table7" => print!("{}", tables::table7(&cols).render()),
            "table8" => print!("{}", tables::table8(&cols).render()),
            "table9" => {
                eprintln!("measuring IOR peak bandwidth ...");
                print!("{}", tables::table9(&cols, ior_peak()).render());
            }
            "table10" => print!("{}", tables::table10(&cols).render()),
            "table11" => print!("{}", tables::table11(&cols).render()),
            f @ ("fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6") => {
                let idx = f[3..].parse::<usize>().expect("figure index") - 1;
                println!(
                    "== Figure {}: I/O behavior of {}",
                    idx + 1,
                    cols[idx].kind.name()
                );
                print!("{}", figures::figure(cols[idx]));
            }
            "fig7" => {
                eprintln!("running Figure 7 sweep (CosmoFlow preload-to-shm) ...");
                let pts = reconfig::figure7((scale * 2.0).clamp(0.05, 1.0), &[32, 64, 128, 256], 7);
                print!(
                    "{}",
                    reconfig::render_sweep(
                        "Figure 7: CosmoFlow baseline (GPFS) vs optimized (preload to shm)",
                        &pts
                    )
                );
            }
            "fig8" => {
                eprintln!("running Figure 8 sweep (Montage intermediates-to-shm) ...");
                let pts = reconfig::figure8(scale.max(0.02) * 4.0, &[32, 64, 128, 256], 7);
                print!(
                    "{}",
                    reconfig::render_sweep(
                        "Figure 8: Montage-MPI baseline (GPFS) vs optimized (/dev/shm intermediates)",
                        &pts
                    )
                );
            }
            "fault-sweep" => {
                eprintln!(
                    "running fault-injection sweep (MDS brownout, NSD outage, shm shielding) ..."
                );
                let s = scale.clamp(0.02, 1.0);
                let report = sweep::fault_sweep(s, 7, 20.0, sweep::Driver::Parallel);
                print!("{}", report.render());
            }
            "crash-sweep" => {
                eprintln!(
                    "running crash-recovery sweep (checkpoint interval vs time-to-solution) ..."
                );
                let s = scale.clamp(0.02, 1.0);
                let report = crashsweep::crash_sweep(s, 7, sweep::Driver::Parallel);
                print!("{}", report.render());
            }
            "ablations" => {
                eprintln!("running storage-knob ablations (simulated completion times) ...");
                print!("{}", bench::ablations::render());
            }
            "fleet-sweep" => {
                eprintln!("running fleet sweep (multi-tenant shared-PFS characterization) ...");
                let run = bench::fleet::run_fleet(
                    req.short,
                    scale,
                    req.jobs,
                    req.node_faults,
                    req.spill.as_deref(),
                );
                match run {
                    Ok(render) => print!("{render}"),
                    Err(e) => {
                        eprintln!("fleet-sweep failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "yaml" => {
                for a in &cols {
                    println!("# --- {}", a.kind.name());
                    print!("{}", yaml::emit(&tables::entities_for(a)));
                }
            }
            other => unreachable!("artifact {other} has a row in ARTIFACTS but no renderer"),
        }
        println!();
    }
}
