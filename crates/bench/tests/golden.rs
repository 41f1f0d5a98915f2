//! Golden digests for every artifact `repro all` renders.
//!
//! One run of `repro all` at `VANI_SCALE=0.01` covers tables I–XI,
//! figures 1–8, the fault and crash sweeps, the storage-knob ablations
//! and the YAML. The output is cut into one slice per artifact at the
//! artifact's first header line, and each slice is pinned by an FNV-1a
//! 64 digest, so a refactor that moves a single byte of any artifact
//! names the artifact it moved. The fleet report is pinned separately by
//! `tests/fleet_resilience.rs`.
//!
//! Debug and release builds render byte-identical output, and the run
//! writes no files.

use std::process::Command;

/// `(artifact, first line of its output, FNV-1a 64 of its output)` in
/// the order `repro all` renders them. An artifact's output runs from its
/// header line up to the next artifact's header line.
const PINS: &[(&str, &str, u64)] = &[
    ("table1", "== Table I:", 0x4cbc_39d4_3dad_933f),
    ("table2", "== Table II:", 0xdcd1_9bd4_aa79_7163),
    ("table3", "== Table III:", 0xe0e0_19b9_40fb_5110),
    ("table4", "== Table IV:", 0x1527_129b_0ef8_ec25),
    ("table5", "== Table V:", 0xa68f_d52a_ee25_4bc3),
    ("table6", "== Table VI:", 0x4e91_7dc8_2e36_7464),
    ("table7", "== Table VII:", 0x7428_c728_e807_c21e),
    ("table8", "== Table VIII:", 0x2a98_f4a6_7be2_5db9),
    ("table9", "== Table IX:", 0x08eb_e30a_a103_e71e),
    ("table10", "== Table X:", 0xc342_eb54_dd0a_2ec8),
    ("table11", "== Table XI:", 0x98ab_641d_3578_6769),
    ("fig1", "== Figure 1:", 0x76b4_7c37_f6ff_586d),
    ("fig2", "== Figure 2:", 0x4df7_6ea2_1e31_b6e7),
    ("fig3", "== Figure 3:", 0x8455_b828_555a_fa78),
    ("fig4", "== Figure 4:", 0x7015_f27e_41e3_0001),
    ("fig5", "== Figure 5:", 0x6e60_f29d_01a8_192f),
    ("fig6", "== Figure 6:", 0xd42b_84c9_be50_27b1),
    ("fig7", "== Figure 7:", 0x61b9_aa50_e0e9_fb1d),
    ("fig8", "== Figure 8:", 0xbb9c_f51c_565f_87e8),
    ("fault-sweep", "== Fault sweep:", 0x6be1_1916_6930_d021),
    ("crash-sweep", "== Crash sweep:", 0x8caa_a6a3_268f_787b),
    ("ablations", "== Ablations:", 0xcf29_41ea_386a_6ed7),
    ("yaml", "# --- ", 0xcb28_c06c_686b_057e),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Splits `out` at each pinned header, in order: every header must start
/// a line after the previous artifact's header.
fn split_artifacts(out: &str) -> Vec<(&'static str, &str)> {
    let mut starts = Vec::with_capacity(PINS.len());
    let mut from = 0;
    for (name, header, _) in PINS {
        let at = if out[from..].starts_with(header) {
            from
        } else {
            let needle = format!("\n{header}");
            let off = out[from..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{name}: header {header:?} not found in repro output"));
            from + off + 1
        };
        starts.push((*name, at));
        from = at + header.len();
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &(name, at))| {
            let end = starts.get(i + 1).map_or(out.len(), |&(_, next)| next);
            (name, &out[at..end])
        })
        .collect()
}

#[test]
fn every_repro_artifact_matches_its_golden_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .env("VANI_SCALE", "0.01")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let moved: Vec<String> = split_artifacts(&text)
        .iter()
        .zip(PINS)
        .filter_map(|(&(name, body), &(_, _, pin))| {
            let got = fnv1a64(body.as_bytes());
            (got != pin).then(|| format!("{name}: digest {got:#018x}, pinned {pin:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "artifacts moved:\n{}", moved.join("\n"));
}
