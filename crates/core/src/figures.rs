//! Regenerates the per-workload figure panels (Figures 1–6):
//! (a) request-size and per-request-bandwidth histograms,
//! (b) process/app data-dependency summaries,
//! (c) read/write timelines.
//!
//! Output is plain text (ASCII bars) so the `repro` harness can print the
//! same series the paper plots.

use crate::analyzer::Analysis;
use sim_core::units::{fmt_bw, fmt_bytes, fmt_count};

/// Render panel (a): request-size histogram + bandwidth histogram.
pub(crate) fn panel_a(a: &Analysis) -> String {
    let p = &a.profile;
    let mut out = String::new();
    out.push_str(&format!("(a) {} — request sizes:\n", a.kind.name()));
    out.push_str(&hist_text(&p.req_sizes, |v| fmt_bytes(v)));
    out.push_str("    per-request bandwidth:\n");
    out.push_str(&hist_text(&p.req_bandwidth, |v| fmt_bw(v as f64)));
    out
}

fn hist_text(h: &sim_core::Histogram, label: impl Fn(u64) -> String) -> String {
    let mut out = String::new();
    let max = h.iter().map(|(_, c)| c).max().unwrap_or(1).max(1);
    for (bucket, count) in h.iter() {
        let bar = "#".repeat(((count as f64 / max as f64) * 40.0).ceil() as usize);
        out.push_str(&format!(
            "    {:>12} | {:40} {}\n",
            label(bucket),
            bar,
            fmt_count(count)
        ));
    }
    out
}

/// Render panel (b): dependency summary — top files with reader/writer
/// rank counts, plus app-level producer → consumer edges for workflows.
pub(crate) fn panel_b(a: &Analysis) -> String {
    let p = &a.profile;
    let mut out = String::new();
    out.push_str(&format!(
        "(b) {} — process/data dependency:\n",
        a.kind.name()
    ));
    for f in p.files.iter().take(6) {
        out.push_str(&format!(
            "    {:50} size={:>10} readers={:>5} writers={:>4} {}\n",
            truncate(&f.path, 50),
            fmt_bytes(f.size),
            f.readers.len(),
            f.writers.len(),
            if f.is_shared() { "[shared]" } else { "[fpp]" },
        ));
    }
    if p.files.len() > 6 {
        out.push_str(&format!("    ... and {} more files\n", p.files.len() - 6));
    }
    if !p.app_deps.is_empty() {
        out.push_str("    app dependencies:\n");
        for (from, to) in &p.app_deps {
            out.push_str(&format!("      {from} -> {to}\n"));
        }
    }
    out
}

/// Render panel (c): read/write timeline as bytes-per-bin bars.
pub(crate) fn panel_c(a: &Analysis) -> String {
    let p = &a.profile;
    let mut out = String::new();
    out.push_str(&format!(
        "(c) {} — I/O timeline ({} bins over {:.1}s):\n",
        a.kind.name(),
        p.read_timeline
            .bins()
            .len()
            .max(p.write_timeline.bins().len()),
        a.job_time.as_secs_f64()
    ));
    let peak = p.read_timeline.peak().max(p.write_timeline.peak()).max(1.0);
    let bins = p
        .read_timeline
        .bins()
        .len()
        .max(p.write_timeline.bins().len());
    // Downsample to at most 32 printed rows.
    let step = (bins / 32).max(1);
    for b in (0..bins).step_by(step) {
        let r: f64 = p.read_timeline.bins().get(b).copied().unwrap_or(0.0);
        let w: f64 = p.write_timeline.bins().get(b).copied().unwrap_or(0.0);
        if r == 0.0 && w == 0.0 {
            continue;
        }
        let rbar = "R".repeat(((r / peak) * 30.0).ceil() as usize);
        let wbar = "W".repeat(((w / peak) * 30.0).ceil() as usize);
        let t = b as f64 * p.read_timeline.bin_width().as_secs_f64();
        out.push_str(&format!("    t={t:>8.2}s |{rbar}{wbar}\n"));
    }
    out
}

/// All three panels for one workload's figure.
pub fn figure(a: &Analysis) -> String {
    format!("{}{}{}", panel_a(a), panel_b(a), panel_c(a))
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("…{}", &s[s.len() - (n - 1)..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analysis;
    use exemplar_workloads::{hacc, montage};

    #[test]
    fn panels_render_nonempty() {
        let a = Analysis::from_run(&hacc::run(0.02, 1));
        let fig = figure(&a);
        assert!(fig.contains("request sizes"));
        assert!(fig.contains("process/data dependency"));
        assert!(fig.contains("I/O timeline"));
        assert!(fig.lines().count() > 10);
    }

    #[test]
    fn workflow_figures_show_app_edges() {
        let a = Analysis::from_run(&montage::run(0.02, 2));
        let b = panel_b(&a);
        assert!(b.contains("app dependencies"), "{b}");
        assert!(b.contains("->"));
    }

    #[test]
    fn timeline_panel_downsamples() {
        let a = Analysis::from_run(&hacc::run(0.02, 1));
        let c = panel_c(&a);
        assert!(c.lines().count() <= 40);
    }
}
