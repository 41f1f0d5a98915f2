//! The analyzer's test-only oracle: one scan (or sequential loop) per
//! statistic over a whole in-memory trace, through public API only.
//!
//! It restates the analyzer's rules rather than importing them — 128
//! timeline bins, a phase gap of `job_time / 50` floored at 1 ms, the 0.85
//! sequential cut, the interface selection and the emission orders — so a
//! change on either side is caught by the other. Phases and the access
//! pattern come from scans over the selection *sorted by start time*: the
//! definition the library's online detectors must reproduce while they
//! visit records in capture order.

use std::collections::{HashMap, HashSet};
use vani_suite::recorder::record::{Layer, OpKind};
use vani_suite::recorder::ColumnarTrace;
use vani_suite::sim::{Dur, Histogram, SimTime, TimeSeries};
use vani_suite::vani::analyzer::{AppProfile, FileProfile, PhaseInfo, TraceProfile};

/// Profile `c` the slow, obvious way.
pub fn multipass(c: &ColumnarTrace, job_time: Dur) -> TraceProfile {
    let interface = detect_interface(c);
    let iface_layers = interface_layers(&interface);

    // Interface-layer selections, plus POSIX ops on files the interface
    // layers never touch.
    let iface_files: HashSet<u32> = (0..c.len())
        .filter(|&i| c.op[i].is_io() && iface_layers.contains(&c.layer[i]))
        .filter_map(|i| c.file_id(i).map(|f| f.0))
        .collect();
    let io_sel = c.select(|i| {
        c.op[i].is_io()
            && (iface_layers.contains(&c.layer[i])
                || (c.layer[i] == Layer::Posix
                    && !iface_layers.contains(&Layer::Posix)
                    && c.file_id(i).is_some_and(|f| !iface_files.contains(&f.0))))
    });
    let data_sel: Vec<u32> = io_sel
        .iter()
        .copied()
        .filter(|&i| c.op[i as usize].is_data())
        .collect();
    let meta_sel: Vec<u32> = io_sel
        .iter()
        .copied()
        .filter(|&i| c.op[i as usize].is_meta())
        .collect();
    let of_op = |op: OpKind| -> Vec<u32> {
        data_sel
            .iter()
            .copied()
            .filter(|&i| c.op[i as usize] == op)
            .collect()
    };
    let read_bytes = c.sum_bytes(&of_op(OpKind::Read));
    let write_bytes = c.sum_bytes(&of_op(OpKind::Write));

    // Mean per-rank I/O time over the run, summed in ascending rank order.
    let by_rank = c.group_by_rank(&io_sel);
    let mut ranks: Vec<u32> = by_rank.keys().copied().collect();
    ranks.sort_unstable();
    let io_secs: f64 = ranks.iter().map(|r| by_rank[r].time.as_secs_f64()).sum();
    let io_time_frac = if ranks.is_empty() || job_time == Dur::ZERO {
        0.0
    } else {
        ((io_secs / ranks.len() as f64) / job_time.as_secs_f64()).min(1.0)
    };

    let mut req_sizes = Histogram::new();
    let mut req_bandwidth = Histogram::new();
    for &i in &data_sel {
        let i = i as usize;
        if c.bytes[i] == 0 {
            continue;
        }
        req_sizes.record(c.bytes[i]);
        let bw = Dur(c.end[i] - c.start[i]).bandwidth(c.bytes[i]);
        if bw.is_finite() {
            req_bandwidth.record(bw as u64);
        }
    }

    // 128 bins over the run, contributions added in capture order.
    let bin = Dur((job_time.as_nanos() / 128).max(1));
    let mut read_timeline = TimeSeries::new(bin);
    let mut write_timeline = TimeSeries::new(bin);
    for &i in &data_sel {
        let i = i as usize;
        let ts = match c.op[i] {
            OpKind::Read => &mut read_timeline,
            _ => &mut write_timeline,
        };
        ts.add(SimTime(c.start[i]), SimTime(c.end[i]), c.bytes[i] as f64);
    }

    let mut sorted_io = io_sel.clone();
    sorted_io.sort_by_key(|&i| c.start[i as usize]);
    let phases = phases_sorted(c, &sorted_io, job_time);
    let sorted_data: Vec<u32> = sorted_io
        .iter()
        .copied()
        .filter(|&i| c.op[i as usize].is_data())
        .collect();
    let access_pattern = access_pattern_sorted(c, &sorted_data);
    let (apps, app_deps) = profile_apps(c);

    let mut p = TraceProfile {
        io_time_frac,
        read_bytes,
        write_bytes,
        data_ops: data_sel.len() as u64,
        meta_ops: meta_sel.len() as u64,
        interface,
        access_pattern,
        req_sizes,
        req_bandwidth,
        read_timeline,
        write_timeline,
        files: profile_files(c, &io_sel),
        phases,
        apps,
        app_deps,
        fault_events: 0,
        retry_events: 0,
        retried_bytes: 0,
        fault_time: Dur::ZERO,
        ckpt_events: 0,
        ckpt_time: Dur::ZERO,
        restart_events: 0,
        crash_lost_time: Dur::ZERO,
        recovery_time: Dur::ZERO,
    };
    // Resilience records are neither data nor metadata: a scan of their own.
    for i in 0..c.len() {
        let d = Dur(c.end[i] - c.start[i]);
        match c.op[i] {
            OpKind::Fault => {
                p.fault_events += 1;
                p.fault_time += d;
            }
            OpKind::Retry => {
                p.retry_events += 1;
                p.retried_bytes += c.bytes[i];
                p.fault_time += d;
            }
            OpKind::Checkpoint => {
                p.ckpt_events += 1;
                p.ckpt_time += d;
            }
            OpKind::Crash => p.crash_lost_time += d,
            OpKind::RestartEpoch => {
                p.restart_events += 1;
                p.recovery_time += d;
            }
            _ => {}
        }
    }
    p
}

/// Table I: HDF5 over MPI-IO when both layers appear, else STDIO when
/// present, else POSIX.
fn detect_interface(c: &ColumnarTrace) -> String {
    let has = |l: Layer| c.layer.contains(&l);
    if has(Layer::MpiIo) && has(Layer::HighLevel) {
        "HDF5-MPI-IO".to_string()
    } else if has(Layer::Stdio) {
        "STDIO".to_string()
    } else {
        "POSIX".to_string()
    }
}

fn interface_layers(interface: &str) -> Vec<Layer> {
    match interface {
        "HDF5-MPI-IO" => vec![Layer::HighLevel, Layer::MpiIo],
        "STDIO" => vec![Layer::Stdio],
        _ => vec![Layer::Posix],
    }
}

fn app_name(c: &ColumnarTrace, app: u16) -> String {
    c.app_names
        .get(app as usize)
        .cloned()
        .unwrap_or_else(|| format!("app{app}"))
}

/// Per-file profiles over the interface selection, most-read first with
/// the path as the tiebreak.
fn profile_files(c: &ColumnarTrace, io_sel: &[u32]) -> Vec<FileProfile> {
    let mut map: HashMap<u32, FileProfile> = HashMap::new();
    for &i in io_sel {
        let i = i as usize;
        let Some(fid) = c.file_id(i) else { continue };
        let f = map.entry(fid.0).or_insert_with(|| FileProfile {
            path: c
                .file_paths
                .get(fid.0 as usize)
                .cloned()
                .unwrap_or_default(),
            ..Default::default()
        });
        match c.op[i] {
            OpKind::Read | OpKind::Write => {
                if c.op[i] == OpKind::Read {
                    f.readers.insert(c.rank[i]);
                    f.read_bytes += c.bytes[i];
                } else {
                    f.writers.insert(c.rank[i]);
                    f.write_bytes += c.bytes[i];
                }
                f.data_ops += 1;
                f.size = f.size.max(c.offset[i] + c.bytes[i]);
            }
            _ => {
                f.meta_ops += 1;
                f.openers.insert(c.rank[i]);
            }
        }
        f.time += Dur(c.end[i] - c.start[i]);
    }
    let mut v: Vec<FileProfile> = map.into_values().collect();
    v.sort_by(|a, b| b.read_bytes.cmp(&a.read_bytes).then(a.path.cmp(&b.path)));
    v
}

/// Per-app profiles over I/O at every layer, sorted by (first record,
/// name), and the sorted producer → consumer edges through shared files.
fn profile_apps(c: &ColumnarTrace) -> (Vec<AppProfile>, Vec<(String, String)>) {
    let mut map: HashMap<u16, AppProfile> = HashMap::new();
    let mut ranks: HashMap<u16, HashSet<u32>> = HashMap::new();
    let mut writers_of: HashMap<u32, HashSet<u16>> = HashMap::new();
    let mut readers_of: HashMap<u32, HashSet<u16>> = HashMap::new();
    for i in 0..c.len() {
        if !c.op[i].is_io() {
            continue;
        }
        let app = c.app[i];
        let p = map.entry(app).or_insert_with(|| AppProfile {
            name: app_name(c, app),
            first: SimTime(u64::MAX),
            ..Default::default()
        });
        ranks.entry(app).or_default().insert(c.rank[i]);
        p.first = p.first.min(SimTime(c.start[i]));
        p.last = p.last.max(SimTime(c.end[i]));
        match c.op[i] {
            OpKind::Read => {
                p.read_bytes += c.bytes[i];
                p.data_ops += 1;
                if let Some(f) = c.file_id(i) {
                    readers_of.entry(f.0).or_default().insert(app);
                }
            }
            OpKind::Write => {
                p.write_bytes += c.bytes[i];
                p.data_ops += 1;
                if let Some(f) = c.file_id(i) {
                    writers_of.entry(f.0).or_default().insert(app);
                }
            }
            _ => p.meta_ops += 1,
        }
    }
    for (app, r) in ranks {
        map.get_mut(&app).expect("profiled app").processes = r.len();
    }
    let mut deps = HashSet::new();
    for (file, writers) in &writers_of {
        for rd in readers_of.get(file).into_iter().flatten() {
            for wr in writers {
                if wr != rd {
                    deps.insert((app_name(c, *wr), app_name(c, *rd)));
                }
            }
        }
    }
    let mut deps: Vec<_> = deps.into_iter().collect();
    deps.sort();
    let mut apps: Vec<AppProfile> = map.into_values().collect();
    apps.sort_by(|a, b| a.first.cmp(&b.first).then_with(|| a.name.cmp(&b.name)));
    (apps, deps)
}

/// Phases over the interface selection in start order: a record starting
/// more than `job_time / 50` (at least 1 ms) after the latest end seen so
/// far opens a new phase.
fn phases_sorted(c: &ColumnarTrace, sorted_io: &[u32], job_time: Dur) -> Vec<PhaseInfo> {
    let threshold = Dur((job_time.as_nanos() / 50).max(1_000_000));
    let mut phases: Vec<(PhaseInfo, Histogram)> = Vec::new();
    let mut frontier = SimTime::ZERO;
    for &i in sorted_io {
        let i = i as usize;
        let start = SimTime(c.start[i]);
        let end = SimTime(c.end[i]);
        if phases.is_empty() || start.since(frontier) > threshold {
            let ph = PhaseInfo {
                start,
                end,
                bytes: 0,
                data_ops: 0,
                meta_ops: 0,
                dominant_xfer: 0,
            };
            phases.push((ph, Histogram::new()));
        }
        frontier = frontier.max(end);
        let (ph, hist) = phases.last_mut().expect("a phase is open");
        ph.end = ph.end.max(end);
        if c.op[i].is_data() {
            ph.bytes += c.bytes[i];
            ph.data_ops += 1;
            if c.bytes[i] > 0 {
                hist.record(c.bytes[i]);
            }
        } else {
            ph.meta_ops += 1;
        }
    }
    phases
        .into_iter()
        .map(|(mut ph, hist)| {
            // The most frequent transfer-size bucket; the last one on ties.
            ph.dominant_xfer = hist
                .iter()
                .max_by_key(|&(_, count)| count)
                .map_or(0, |(bucket, _)| bucket);
            ph
        })
        .collect()
}

/// "Seq" when at least 85% of consecutive same-(rank, file) data ops, in
/// start order, begin at or past the previous op's end (or none compare).
fn access_pattern_sorted(c: &ColumnarTrace, sorted_data: &[u32]) -> String {
    let mut last: HashMap<(u32, u32), u64> = HashMap::new();
    let (mut seq, mut total) = (0u64, 0u64);
    for &i in sorted_data {
        let i = i as usize;
        let Some(f) = c.file_id(i) else { continue };
        if let Some(&prev_end) = last.get(&(c.rank[i], f.0)) {
            total += 1;
            if c.offset[i] >= prev_end {
                seq += 1;
            }
        }
        last.insert((c.rank[i], f.0), c.offset[i] + c.bytes[i]);
    }
    if total == 0 || seq as f64 / total as f64 >= 0.85 {
        "Seq".to_string()
    } else {
        "Mixed".to_string()
    }
}
