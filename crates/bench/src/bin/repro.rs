//! Reproduction harness: regenerates every table (I–XI) and figure (1–8)
//! of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- table1 table3 fig7
//! VANI_SCALE=0.1 cargo run --release -p bench --bin repro -- fig8
//! cargo run --release -p bench --bin repro -- fault-sweep
//! cargo run --release -p bench --bin repro -- crash-sweep
//! cargo run --release -p bench --bin repro -- fleet-sweep [--short] [--jobs N] [--node-faults] [--spill DIR]
//! cargo run --release -p bench --bin repro -- trace-fsck PATH
//! cargo run --release -p bench --bin repro -- bench-pipeline [--short]
//! ```
//!
//! `VANI_SCALE` (default 0.05) sets the workload scale: 1.0 is the paper's
//! full configuration (1.5 TiB CosmoFlow corpus, 1280 ranks), which takes
//! considerably longer. Shapes are scale-stable by construction.

use bench::{ior_peak, run_all_six, scale_from_env};
use vani_core::analyzer::Analysis;
use vani_core::{crashsweep, figures, reconfig, sweep, tables, yaml};

/// The artifacts `all` (or no argument) renders, in order.
const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fault-sweep",
    "crash-sweep",
    "yaml",
];

/// Artifacts that are only rendered when named.
const STANDALONE: &[&str] = &["fleet-sweep", "bench-pipeline"];

const USAGE: &str = "usage: repro -- [all | ARTIFACT...] | trace-fsck PATH
  artifacts: table1..table11 fig1..fig8 fault-sweep crash-sweep yaml
             fleet-sweep [--short] [--jobs N] [--node-faults] [--spill DIR]
             bench-pipeline [--short]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = args.iter().any(|a| a == "--short");
    let node_faults = args.iter().any(|a| a == "--node-faults");
    let args: Vec<String> = args
        .into_iter()
        .filter(|a| a != "--short" && a != "--node-faults")
        .collect();
    // `--jobs N` overrides the fleet size (fleet-sweep only); consume the
    // flag and its value so neither is mistaken for an artifact name.
    // Validation goes through the typed `FleetError::InvalidJobs` — `0` or
    // a non-numeric value exits 2 with a usage message, never a panic.
    // `--spill DIR` is validated the same way (typed
    // `FleetError::InvalidSpillDir`, exit 2) before any simulation starts.
    let mut jobs: Option<usize> = None;
    let mut spill: Option<String> = None;
    let mut args_out: Vec<String> = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let jobs_value = if a == "--jobs" {
            Some(it.next().unwrap_or_default())
        } else {
            a.strip_prefix("--jobs=").map(str::to_string)
        };
        if let Some(v) = jobs_value {
            match bench::fleet::parse_jobs(&v) {
                Ok(n) => jobs = Some(n),
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!(
                        "usage: repro -- fleet-sweep [--short] [--jobs N] [--node-faults] [--spill DIR]"
                    );
                    std::process::exit(2);
                }
            }
            continue;
        }
        let spill_value = if a == "--spill" {
            Some(it.next().unwrap_or_default())
        } else {
            a.strip_prefix("--spill=").map(str::to_string)
        };
        match spill_value {
            Some(v) => match bench::fleet::validate_spill_dir(&v) {
                Ok(_) => spill = Some(v),
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!(
                        "usage: repro -- fleet-sweep [--short] [--jobs N] [--node-faults] [--spill DIR]"
                    );
                    std::process::exit(2);
                }
            },
            None => args_out.push(a),
        }
    }
    let args = args_out;

    // `trace-fsck PATH` is a standalone subcommand: walk the spill log,
    // print the recovery report, and exit — a missing or unreadable path
    // is a typed error and exit 2, never a panic.
    if args.first().map(String::as_str) == Some("trace-fsck") {
        let Some(path) = args.get(1) else {
            eprintln!("trace-fsck: missing PATH argument");
            eprintln!("usage: repro -- trace-fsck PATH");
            std::process::exit(2);
        };
        match bench::fsck::run_fsck(path) {
            Ok(text) => {
                print!("{text}");
                return;
            }
            Err(e) => {
                eprintln!("trace-fsck failed: {e}");
                std::process::exit(2);
            }
        }
    }
    // Every name is checked before any simulation starts: a typo exits 2
    // at once instead of after minutes of work.
    let known = |a: &str| a == "all" || ALL.contains(&a) || STANDALONE.contains(&a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        eprintln!("unknown artifact: {bad}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let scale = scale_from_env();
    let needs_six = wanted.iter().any(|w| {
        w.starts_with("table")
            || matches!(
                *w,
                "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "yaml"
            )
    });
    let analyses: Vec<Analysis> = if needs_six {
        eprintln!("running the six exemplar workloads at scale {scale} ...");
        run_all_six(scale, 7)
    } else {
        Vec::new()
    };
    let cols: Vec<&Analysis> = analyses.iter().collect();

    for w in wanted {
        match w {
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
            "fleet-sweep" => {
                eprintln!("running fleet sweep (multi-tenant shared-PFS characterization) ...");
                match bench::fleet::run_fleet(short, scale, jobs, node_faults, spill.as_deref()) {
                    Ok(render) => print!("{render}"),
                    Err(e) => {
                        eprintln!("fleet-sweep failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "bench-pipeline" => {
                bench::pipeline::run_bench(short);
            }
            "yaml" => {
                for a in &cols {
                    println!("# --- {}", a.kind.name());
                    print!("{}", yaml::emit(&tables::entities_for(a)));
                }
            }
            other => unreachable!("artifact {other} was validated above"),
        }
        println!();
    }
}
