//! Trace persistence.
//!
//! Whole traces serialize to JSON (the stand-in for Recorder's binary logs
//! and the parquet conversion). Round-tripping through disk lets experiments
//! separate capture from analysis, exactly like the paper's two-phase
//! JobUtility/Analyzer pipeline.
//!
//! Columnar traces persist in a *row-group* layout built for integrity
//! salvage: line 1 is a header (format tag, record/group counts, intern
//! tables), every following line is one self-verifying row group carrying
//! its row count and a per-column checksum. A truncated or corrupted file
//! therefore loses only its damaged tail: [`load_columnar`] rejects it with
//! a typed [`TraceLoadError`], while [`load_columnar_salvaged`] recovers
//! the longest consistent prefix and reports a [`TraceCompleteness`]
//! diagnostic — the same engineering stance Recorder takes toward
//! incomplete multi-level traces.
//!
//! Two row-group versions coexist:
//!
//! * **v1** — each group stores its columns as JSON arrays, checksummed
//!   over their canonical rendering. Still loaded; no longer written.
//! * **v2** (current) — each group is a sealed [`CompressedChunk`]: the ten
//!   delta/RLE/raw-encoded column buffers hex-encoded, checksummed over the
//!   *encoded bytes*. Groups map 1:1 onto capture chunks, so a trace
//!   streams to disk and back without ever materializing whole columns.
//!
//! Both loaders dispatch on the header's `version`; salvage semantics are
//! identical (longest consistent group prefix).
//!
//! A third generation lives in [`crate::spill`]: the binary append-only
//! segment log spill capture writes (spill format v4, magic
//! `vanispill4\n`). The path-taking loaders here sniff the `vanispill`
//! prefix *before* reading the file as UTF-8 and route spill logs to the
//! spill loaders, so every generation loads through the same entry points
//! with the same strict/salvage semantics, and a retired v3 log fails with
//! the spill loaders' typed error rather than a UTF-8 one.

use crate::chunk::{ChunkedTrace, CompressedChunk};
use crate::codec;
use crate::columnar::ColumnarTrace;
use crate::spill::{self, SpillError, SPILL_MAGIC};
use crate::tracer::Tracer;
use std::fs;
use std::io::{self, Read};
use std::path::Path;
use vani_rt::{Json, JsonError, ToJson};

/// Format tag in the row-group header line.
pub const ROWGROUP_FORMAT: &str = "vani-trace-rowgroups";
/// Current row-group format version (compressed chunk groups).
pub const ROWGROUP_VERSION: u64 = 2;
/// The legacy JSON-array row-group version (still loadable).
pub const ROWGROUP_VERSION_V1: u64 = 1;
/// Default rows per group: granular enough that a torn tail loses little,
/// coarse enough that per-group overhead stays negligible.
pub const GROUP_ROWS: usize = 4096;

/// The ten data columns, in their fixed on-disk order.
const COLUMNS: [&str; 10] = [
    "rank", "node", "app", "layer", "op", "start", "end", "file", "offset", "bytes",
];

/// Why a persisted trace failed to load.
#[derive(Debug)]
pub enum TraceLoadError {
    /// The file could not be read at all.
    Io(io::Error),
    /// A line was not valid JSON or decoded to the wrong shape; the cause
    /// carries the byte offset within that line.
    Malformed {
        /// Which part of the file was being parsed.
        context: String,
        /// The underlying JSON error (with byte-offset context).
        cause: JsonError,
    },
    /// The header line is valid JSON but not a trace we understand.
    Header(String),
    /// A row group's column disagrees with its promised row count.
    ColumnMismatch {
        /// Zero-based row-group index (0 for row-major tracer files).
        group: u64,
        /// Offending column name.
        column: String,
        /// Entries actually present.
        len: usize,
        /// Rows the group promised.
        rows: usize,
    },
    /// A row group's column fails its stored checksum.
    BadChecksum {
        /// Zero-based row-group index.
        group: u64,
        /// Offending column name.
        column: String,
    },
    /// A v2 row group's encoded column bytes fail to decode (bad hex or a
    /// codec-layer rejection).
    Codec {
        /// Zero-based row-group index.
        group: u64,
        /// What the codec layer objected to.
        detail: String,
    },
    /// The file ends before all promised row groups arrive.
    Truncated {
        /// Byte offset at which the data ran out.
        at_byte: usize,
        /// Records the header promised.
        expected_records: u64,
        /// Records actually present.
        loaded_records: u64,
    },
    /// A spill log failed to load (see [`crate::spill::SpillError`]).
    Spill(SpillError),
}

impl std::fmt::Display for TraceLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceLoadError::Io(e) => write!(f, "{e}"),
            TraceLoadError::Malformed { context, cause } => {
                write!(f, "malformed trace ({context}): {cause}")
            }
            TraceLoadError::Header(msg) => write!(f, "unrecognized trace header: {msg}"),
            TraceLoadError::ColumnMismatch { group, column, len, rows } => write!(
                f,
                "row group {group}: column `{column}` carries {len} values for {rows} rows"
            ),
            TraceLoadError::BadChecksum { group, column } => {
                write!(f, "row group {group}: column `{column}` fails its checksum")
            }
            TraceLoadError::Codec { group, detail } => {
                write!(f, "row group {group}: {detail}")
            }
            TraceLoadError::Truncated { at_byte, expected_records, loaded_records } => write!(
                f,
                "trace truncated at byte {at_byte}: {loaded_records} of {expected_records} records present"
            ),
            TraceLoadError::Spill(e) => write!(f, "spill log: {e}"),
        }
    }
}

impl std::error::Error for TraceLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceLoadError::Io(e) => Some(e),
            TraceLoadError::Spill(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceLoadError {
    fn from(e: io::Error) -> Self {
        TraceLoadError::Io(e)
    }
}

impl From<SpillError> for TraceLoadError {
    fn from(e: SpillError) -> Self {
        TraceLoadError::Spill(e)
    }
}

/// How much of a persisted trace survived loading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCompleteness {
    /// Records the header promised.
    pub expected_records: u64,
    /// Records actually loaded.
    pub loaded_records: u64,
    /// Row groups the header promised.
    pub expected_groups: u64,
    /// Row groups that verified and loaded.
    pub loaded_groups: u64,
}

impl TraceCompleteness {
    /// Loaded fraction in [0, 1]; an empty-but-complete trace is 1.
    pub fn fraction(&self) -> f64 {
        if self.expected_records == 0 {
            1.0
        } else {
            self.loaded_records as f64 / self.expected_records as f64
        }
    }

    /// Whether every promised record loaded.
    pub fn is_complete(&self) -> bool {
        self.loaded_records == self.expected_records && self.loaded_groups == self.expected_groups
    }
}

/// FNV-1a 64-bit over a byte slice — the per-column integrity checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn col_json<T: ToJson>(v: &[T]) -> Json {
    Json::Arr(v.iter().map(|x| x.to_json()).collect())
}

/// Save a row-major trace as JSON.
pub fn save_tracer(t: &Tracer, path: &Path) -> io::Result<()> {
    fs::write(path, vani_rt::json::to_string(t))
}

/// Load a row-major trace from JSON (intern maps rebuilt). Files whose
/// per-column lengths disagree are rejected: silent column zipping would
/// mis-attribute every field after the divergence point.
pub fn load_tracer(path: &Path) -> Result<Tracer, TraceLoadError> {
    let json = fs::read_to_string(path)?;
    let mut t: Tracer =
        vani_rt::json::from_str(&json).map_err(|cause| TraceLoadError::Malformed {
            context: "row-major trace".to_string(),
            cause,
        })?;
    if let Err((column, len, rows)) = t.columnar().validate() {
        return Err(TraceLoadError::ColumnMismatch {
            group: 0,
            column,
            len,
            rows,
        });
    }
    t.rebuild_index();
    Ok(t)
}

/// Render a columnar trace in the *legacy* v1 row-group layout (JSON-array
/// columns). Kept so the loader's backward-compatibility path stays
/// exercised by tests; new files are written by [`render_chunked`].
pub fn render_rowgroups(c: &ColumnarTrace, group_rows: usize) -> String {
    let group_rows = group_rows.max(1);
    let n = c.rank.len();
    let n_groups = n.div_ceil(group_rows);
    let mut out = Json::obj([
        ("format", Json::Str(ROWGROUP_FORMAT.to_string())),
        ("version", ROWGROUP_VERSION_V1.to_json()),
        ("records", (n as u64).to_json()),
        ("group_rows", (group_rows as u64).to_json()),
        ("groups", (n_groups as u64).to_json()),
        ("file_paths", c.file_paths.to_json()),
        ("app_names", c.app_names.to_json()),
    ])
    .render();
    out.push('\n');
    for g in 0..n_groups {
        let lo = g * group_rows;
        let hi = n.min(lo + group_rows);
        let cols: Vec<(&str, Json)> = vec![
            ("rank", col_json(&c.rank[lo..hi])),
            ("node", col_json(&c.node[lo..hi])),
            ("app", col_json(&c.app[lo..hi])),
            ("layer", col_json(&c.layer[lo..hi])),
            ("op", col_json(&c.op[lo..hi])),
            ("start", col_json(&c.start[lo..hi])),
            ("end", col_json(&c.end[lo..hi])),
            ("file", col_json(&c.file[lo..hi])),
            ("offset", col_json(&c.offset[lo..hi])),
            ("bytes", col_json(&c.bytes[lo..hi])),
        ];
        let checksums: Vec<u64> = cols
            .iter()
            .map(|(_, j)| fnv1a(j.render().as_bytes()))
            .collect();
        let line = Json::obj([
            ("rows", ((hi - lo) as u64).to_json()),
            ("checksums", checksums.to_json()),
            ("columns", Json::obj(cols.into_iter())),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

/// Render a chunked trace in the current (v2) compressed row-group layout:
/// one line per sealed chunk, the ten encoded column buffers hex-encoded
/// and checksummed over the encoded bytes.
pub fn render_chunked(t: &ChunkedTrace) -> String {
    let mut out = Json::obj([
        ("format", Json::Str(ROWGROUP_FORMAT.to_string())),
        ("version", ROWGROUP_VERSION.to_json()),
        ("records", (t.len() as u64).to_json()),
        ("group_rows", (t.chunk_rows.max(1) as u64).to_json()),
        ("groups", (t.chunks.len() as u64).to_json()),
        ("file_paths", t.file_paths.to_json()),
        ("app_names", t.app_names.to_json()),
    ])
    .render();
    out.push('\n');
    for chunk in &t.chunks {
        let checksums: Vec<u64> = (0..COLUMNS.len()).map(|i| fnv1a(chunk.column(i))).collect();
        let cols: Vec<Json> = (0..COLUMNS.len())
            .map(|i| Json::Str(codec::to_hex(chunk.column(i))))
            .collect();
        let line = Json::obj([
            ("rows", (chunk.rows as u64).to_json()),
            ("checksums", checksums.to_json()),
            ("columns", Json::Arr(cols)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

/// Save a columnar trace in the self-verifying row-group layout (v2:
/// sealed into [`GROUP_ROWS`]-row compressed chunks first).
pub fn save_columnar(c: &ColumnarTrace, path: &Path) -> io::Result<()> {
    fs::write(
        path,
        render_chunked(&ChunkedTrace::from_columnar(c, GROUP_ROWS)),
    )
}

/// Save an already-chunked trace verbatim (capture chunks map 1:1 onto
/// on-disk row groups — nothing is re-sealed).
pub fn save_chunked(t: &ChunkedTrace, path: &Path) -> io::Result<()> {
    fs::write(path, render_chunked(t))
}

/// One verified row group appended into the output trace, or the error
/// that stopped it.
fn load_group(j: &Json, g: u64, out: &mut ColumnarTrace) -> Result<u64, TraceLoadError> {
    let malformed = |cause: JsonError| TraceLoadError::Malformed {
        context: format!("row group {g}"),
        cause,
    };
    let rows: u64 = j.decode_field("rows").map_err(malformed)?;
    let checksums: Vec<u64> = j.decode_field("checksums").map_err(malformed)?;
    let columns = j.field("columns").map_err(malformed)?;
    if checksums.len() != COLUMNS.len() {
        return Err(TraceLoadError::Malformed {
            context: format!("row group {g}"),
            cause: JsonError::shape(format!(
                "expected {} checksums, found {}",
                COLUMNS.len(),
                checksums.len()
            )),
        });
    }
    // Verify integrity over the canonical rendering before decoding.
    for (ci, name) in COLUMNS.iter().enumerate() {
        let col = columns.field(name).map_err(malformed)?;
        if fnv1a(col.render().as_bytes()) != checksums[ci] {
            return Err(TraceLoadError::BadChecksum {
                group: g,
                column: name.to_string(),
            });
        }
    }
    let mut part = ColumnarTrace {
        rank: columns.decode_field("rank").map_err(malformed)?,
        node: columns.decode_field("node").map_err(malformed)?,
        app: columns.decode_field("app").map_err(malformed)?,
        layer: columns.decode_field("layer").map_err(malformed)?,
        op: columns.decode_field("op").map_err(malformed)?,
        start: columns.decode_field("start").map_err(malformed)?,
        end: columns.decode_field("end").map_err(malformed)?,
        file: columns.decode_field("file").map_err(malformed)?,
        offset: columns.decode_field("offset").map_err(malformed)?,
        bytes: columns.decode_field("bytes").map_err(malformed)?,
        file_paths: Vec::new(),
        app_names: Vec::new(),
    };
    for (name, len) in [
        ("rank", part.rank.len()),
        ("node", part.node.len()),
        ("app", part.app.len()),
        ("layer", part.layer.len()),
        ("op", part.op.len()),
        ("start", part.start.len()),
        ("end", part.end.len()),
        ("file", part.file.len()),
        ("offset", part.offset.len()),
        ("bytes", part.bytes.len()),
    ] {
        if len != rows as usize {
            return Err(TraceLoadError::ColumnMismatch {
                group: g,
                column: name.to_string(),
                len,
                rows: rows as usize,
            });
        }
    }
    out.rank.append(&mut part.rank);
    out.node.append(&mut part.node);
    out.app.append(&mut part.app);
    out.layer.append(&mut part.layer);
    out.op.append(&mut part.op);
    out.start.append(&mut part.start);
    out.end.append(&mut part.end);
    out.file.append(&mut part.file);
    out.offset.append(&mut part.offset);
    out.bytes.append(&mut part.bytes);
    Ok(rows)
}

/// Parsed row-group header line.
struct RgHeader {
    version: u64,
    expected_records: u64,
    expected_groups: u64,
    group_rows: u64,
    file_paths: Vec<String>,
    app_names: Vec<String>,
}

fn parse_header(header_line: &str) -> Result<RgHeader, TraceLoadError> {
    let malformed = |cause: JsonError| TraceLoadError::Malformed {
        context: "header".to_string(),
        cause,
    };
    let header = Json::parse(header_line.trim_end()).map_err(malformed)?;
    let format: String = header.decode_field("format").map_err(malformed)?;
    if format != ROWGROUP_FORMAT {
        return Err(TraceLoadError::Header(format!("format `{format}`")));
    }
    let version: u64 = header.decode_field("version").map_err(malformed)?;
    if version != ROWGROUP_VERSION_V1 && version != ROWGROUP_VERSION {
        return Err(TraceLoadError::Header(format!("version {version}")));
    }
    Ok(RgHeader {
        version,
        expected_records: header.decode_field("records").map_err(malformed)?,
        expected_groups: header.decode_field("groups").map_err(malformed)?,
        group_rows: header.decode_field("group_rows").map_err(malformed)?,
        file_paths: header.decode_field("file_paths").map_err(malformed)?,
        app_names: header.decode_field("app_names").map_err(malformed)?,
    })
}

/// One verified v2 row group: hex-decode the ten encoded column buffers,
/// check their checksums, and rebuild the [`CompressedChunk`] (which
/// re-validates by decoding).
fn load_group_v2(j: &Json, g: u64) -> Result<CompressedChunk, TraceLoadError> {
    let malformed = |cause: JsonError| TraceLoadError::Malformed {
        context: format!("row group {g}"),
        cause,
    };
    let rows: u64 = j.decode_field("rows").map_err(malformed)?;
    let checksums: Vec<u64> = j.decode_field("checksums").map_err(malformed)?;
    let cols_hex: Vec<String> = j.decode_field("columns").map_err(malformed)?;
    if checksums.len() != COLUMNS.len() || cols_hex.len() != COLUMNS.len() {
        return Err(malformed(JsonError::shape(format!(
            "expected {} checksums and columns, found {} and {}",
            COLUMNS.len(),
            checksums.len(),
            cols_hex.len()
        ))));
    }
    let mut cols: [Vec<u8>; 10] = Default::default();
    for (ci, hex) in cols_hex.iter().enumerate() {
        let bytes = codec::from_hex(hex).ok_or_else(|| TraceLoadError::Codec {
            group: g,
            detail: format!("column `{}` is not valid hex", COLUMNS[ci]),
        })?;
        if fnv1a(&bytes) != checksums[ci] {
            return Err(TraceLoadError::BadChecksum {
                group: g,
                column: COLUMNS[ci].to_string(),
            });
        }
        cols[ci] = bytes;
    }
    CompressedChunk::from_encoded(cols, rows as usize).map_err(|e| TraceLoadError::Codec {
        group: g,
        detail: e.to_string(),
    })
}

/// Drive the per-group loop shared by every loader: fetch each promised
/// line, hand it to `consume`, and keep the completeness tally. With
/// `salvage`, the first bad group stops consumption; otherwise it is
/// an error.
fn parse_groups<'a>(
    mut lines: std::str::SplitInclusive<'a, char>,
    mut offset: usize,
    h: &RgHeader,
    salvage: bool,
    mut consume: impl FnMut(&Json, u64) -> Result<u64, TraceLoadError>,
) -> Result<TraceCompleteness, TraceLoadError> {
    let mut loaded_groups = 0u64;
    let mut loaded_records = 0u64;
    for g in 0..h.expected_groups {
        let line = match lines.next() {
            Some(l) if !l.trim_end().is_empty() => l,
            _ => {
                let err = TraceLoadError::Truncated {
                    at_byte: offset,
                    expected_records: h.expected_records,
                    loaded_records,
                };
                if salvage {
                    break;
                }
                return Err(err);
            }
        };
        let parsed = Json::parse(line.trim_end())
            .map_err(|cause| TraceLoadError::Malformed {
                context: format!("row group {g}"),
                cause,
            })
            .and_then(|j| consume(&j, g));
        match parsed {
            Ok(rows) => {
                loaded_groups += 1;
                loaded_records += rows;
                offset += line.len();
            }
            Err(e) => {
                if salvage {
                    break;
                }
                return Err(e);
            }
        }
    }
    if !salvage && loaded_records != h.expected_records {
        return Err(TraceLoadError::Truncated {
            at_byte: offset,
            expected_records: h.expected_records,
            loaded_records,
        });
    }
    Ok(TraceCompleteness {
        expected_records: h.expected_records,
        loaded_records,
        expected_groups: h.expected_groups,
        loaded_groups,
    })
}

/// Parse a row-group file into a materialized columnar trace, dispatching
/// on the header's version. Header problems are always fatal; with
/// `salvage`, the first bad row group stops consumption and the verified
/// prefix is returned, otherwise any bad group is an error.
fn parse_rowgroups(
    text: &str,
    salvage: bool,
) -> Result<(ColumnarTrace, TraceCompleteness), TraceLoadError> {
    let mut lines = text.split_inclusive('\n');
    let header_line = lines.next().unwrap_or("");
    let h = parse_header(header_line)?;
    let mut out = ColumnarTrace::with_capacity(h.expected_records as usize);
    out.file_paths = h.file_paths.clone();
    out.app_names = h.app_names.clone();

    let completeness = {
        let out = &mut out;
        parse_groups(lines, header_line.len(), &h, salvage, move |j, g| {
            if h.version == ROWGROUP_VERSION_V1 {
                load_group(j, g, out)
            } else {
                let chunk = load_group_v2(j, g)?;
                // Decode into a staging trace first: a failure must not
                // leave `out` with ragged columns.
                let mut part = ColumnarTrace::default();
                chunk
                    .decode_into(&mut part, true)
                    .map_err(|e| TraceLoadError::Codec {
                        group: g,
                        detail: e.to_string(),
                    })?;
                out.rank.append(&mut part.rank);
                out.node.append(&mut part.node);
                out.app.append(&mut part.app);
                out.layer.append(&mut part.layer);
                out.op.append(&mut part.op);
                out.start.append(&mut part.start);
                out.end.append(&mut part.end);
                out.file.append(&mut part.file);
                out.offset.append(&mut part.offset);
                out.bytes.append(&mut part.bytes);
                Ok(chunk.rows as u64)
            }
        })?
    };
    Ok((out, completeness))
}

/// Parse a row-group file into a [`ChunkedTrace`] *without* materializing
/// whole columns — the streaming analyzer's loader. v2 groups become
/// chunks verbatim; v1 files load through the legacy path and are
/// re-sealed at their on-disk group size.
fn parse_chunked(
    text: &str,
    salvage: bool,
) -> Result<(ChunkedTrace, TraceCompleteness), TraceLoadError> {
    let mut lines = text.split_inclusive('\n');
    let header_line = lines.next().unwrap_or("");
    let h = parse_header(header_line)?;
    if h.version == ROWGROUP_VERSION_V1 {
        let (c, completeness) = parse_rowgroups(text, salvage)?;
        let t = ChunkedTrace::from_columnar(&c, (h.group_rows as usize).max(1));
        return Ok((t, completeness));
    }
    let mut chunks = Vec::with_capacity(h.expected_groups as usize);
    let completeness = {
        let chunks = &mut chunks;
        parse_groups(lines, header_line.len(), &h, salvage, move |j, g| {
            let chunk = load_group_v2(j, g)?;
            let rows = chunk.rows as u64;
            chunks.push(chunk);
            Ok(rows)
        })?
    };
    Ok((
        ChunkedTrace {
            chunk_rows: (h.group_rows as usize).max(1),
            chunks,
            file_paths: h.file_paths,
            app_names: h.app_names,
        },
        completeness,
    ))
}

/// Whether `path` starts with `vanispill`, the prefix of every spill log
/// version. Binary spill logs are not valid UTF-8, so this must run
/// *before* any `read_to_string`; the spill loaders then accept v4 and
/// refuse any other version with a typed error.
fn sniff_spill(path: &Path) -> io::Result<bool> {
    let mut head = [0u8; 9];
    let mut file = fs::File::open(path)?;
    let mut got = 0usize;
    while got < head.len() {
        match file.read(&mut head[got..])? {
            0 => return Ok(false),
            n => got += n,
        }
    }
    Ok(head == SPILL_MAGIC[..9])
}

/// Decode a chunked trace's committed chunks into whole columns (the spill
/// materializing path; chunks were deep-verified at load).
fn materialize(t: ChunkedTrace) -> Result<ColumnarTrace, TraceLoadError> {
    t.to_columnar().map_err(|e| TraceLoadError::Codec {
        group: 0,
        detail: e.to_string(),
    })
}

/// Load a chunked trace, requiring every row group to verify.
pub fn load_chunked(path: &Path) -> Result<ChunkedTrace, TraceLoadError> {
    if sniff_spill(path)? {
        return Ok(spill::load_spill(path)?);
    }
    let text = fs::read_to_string(path)?;
    parse_chunked(&text, false).map(|(t, _)| t)
}

/// Load as much of a chunked trace as verifies — the streaming analyzer's
/// salvage entry: the longest consistent prefix of compressed row groups,
/// without ever materializing whole columns.
pub fn load_chunked_salvaged(
    path: &Path,
) -> Result<(ChunkedTrace, TraceCompleteness), TraceLoadError> {
    if sniff_spill(path)? {
        return Ok(spill::load_spill_salvaged(path)?);
    }
    let text = fs::read_to_string(path)?;
    parse_chunked(&text, true)
}

/// Load a columnar trace, requiring every row group to verify. Truncated,
/// corrupt, length-mismatched, or checksum-failing files are rejected with
/// the precise reason; use [`load_columnar_salvaged`] to recover a prefix
/// instead.
pub fn load_columnar(path: &Path) -> Result<ColumnarTrace, TraceLoadError> {
    if sniff_spill(path)? {
        return materialize(spill::load_spill(path)?);
    }
    let text = fs::read_to_string(path)?;
    parse_rowgroups(&text, false).map(|(c, _)| c)
}

/// Load as much of a columnar trace as verifies: the longest consistent
/// row-group prefix, plus a completeness diagnostic the analyzer threads
/// through to the entity YAML. Only an unreadable or headerless file is an
/// error — a damaged tail is data loss, not failure.
pub fn load_columnar_salvaged(
    path: &Path,
) -> Result<(ColumnarTrace, TraceCompleteness), TraceLoadError> {
    if sniff_spill(path)? {
        let (t, comp) = spill::load_spill_salvaged(path)?;
        return Ok((materialize(t)?, comp));
    }
    let text = fs::read_to_string(path)?;
    parse_rowgroups(&text, true)
}

/// [`load_columnar_salvaged`] over already-read text — for captures that
/// arrive through something other than a file (a stream, a test vector).
pub fn parse_rowgroups_salvaged(
    text: &str,
) -> Result<(ColumnarTrace, TraceCompleteness), TraceLoadError> {
    parse_rowgroups(text, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Layer, OpKind};
    use sim_core::SimTime;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vani_persist_test");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample(n: u32) -> ColumnarTrace {
        let mut t = Tracer::new();
        let f = t.file_id("/y");
        let a = t.app_id("a");
        for i in 0..n {
            t.record(
                i % 4,
                i % 2,
                a,
                Layer::Stdio,
                OpKind::Read,
                SimTime(i as u64),
                SimTime(i as u64 + 9),
                Some(f),
                4,
                8 + i as u64,
            );
        }
        ColumnarTrace::from_tracer(&t)
    }

    #[test]
    fn tracer_round_trips_through_disk() {
        let mut t = Tracer::new();
        let f = t.file_id("/p/gpfs1/x");
        let a = t.app_id("hacc");
        t.record(
            3,
            1,
            a,
            Layer::Posix,
            OpKind::Write,
            SimTime(5),
            SimTime(10),
            Some(f),
            0,
            42,
        );
        let p = tmp("trace.json");
        save_tracer(&t, &p).unwrap();
        let back = load_tracer(&p).unwrap();
        assert_eq!(back.records(), t.records());
        assert_eq!(back.path_of(f), "/p/gpfs1/x");
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn columnar_round_trips_through_disk() {
        let c = sample(1);
        let p = tmp("columnar.json");
        save_columnar(&c, &p).unwrap();
        let back = load_columnar(&p).unwrap();
        assert_eq!(back.to_records(), c.to_records());
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn multi_group_files_round_trip() {
        let c = sample(25);
        let p = tmp("multigroup.json");
        fs::write(&p, render_rowgroups(&c, 4)).unwrap();
        let back = load_columnar(&p).unwrap();
        assert_eq!(back, c);
        let (salvaged, comp) = load_columnar_salvaged(&p).unwrap();
        assert_eq!(salvaged, c);
        assert!(comp.is_complete());
        assert_eq!(comp.fraction(), 1.0);
        assert_eq!(comp.expected_groups, 7);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncation_mid_record_is_rejected_and_salvaged() {
        let c = sample(25);
        let text = render_rowgroups(&c, 4);
        // Cut inside the penultimate group line.
        let cut = text.len() - text.lines().last().unwrap().len() - 10;
        let p = tmp("truncated.json");
        fs::write(&p, &text[..cut]).unwrap();
        let err = load_columnar(&p).expect_err("truncated file must be rejected");
        assert!(
            matches!(
                err,
                TraceLoadError::Malformed { .. } | TraceLoadError::Truncated { .. }
            ),
            "unexpected error: {err}"
        );
        assert!(
            err.to_string().contains("byte"),
            "error carries byte context: {err}"
        );
        let (salvaged, comp) = load_columnar_salvaged(&p).unwrap();
        assert!(!comp.is_complete());
        assert_eq!(comp.expected_records, 25);
        assert_eq!(comp.loaded_records, salvaged.rank.len() as u64);
        assert!(comp.loaded_records >= 16, "all intact groups salvage");
        assert!(comp.fraction() < 1.0);
        // The salvaged prefix is exactly the original's first records.
        let want = c.to_records();
        assert_eq!(salvaged.to_records(), want[..salvaged.rank.len()].to_vec());
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn mismatched_column_lengths_are_rejected() {
        let c = sample(6);
        let text = render_rowgroups(&c, 8);
        // Rebuild the single group with a shortened `node` column whose
        // checksum is *valid* for the short data: only the length check can
        // catch the disagreement (this is the silent-zip regression).
        let mut lines: Vec<&str> = text.lines().collect();
        let group = Json::parse(lines[1]).unwrap();
        let rows: u64 = group.decode_field("rows").unwrap();
        let mut checksums: Vec<u64> = group.decode_field("checksums").unwrap();
        let mut node: Vec<u32> = group
            .field("columns")
            .unwrap()
            .decode_field("node")
            .unwrap();
        node.pop();
        checksums[1] = fnv1a(col_json(&node).render().as_bytes());
        let columns = group.field("columns").unwrap();
        let rebuilt = Json::obj([
            ("rows", rows.to_json()),
            ("checksums", checksums.to_json()),
            (
                "columns",
                Json::obj(COLUMNS.iter().map(|&name| {
                    if name == "node" {
                        (name, col_json(&node))
                    } else {
                        (name, columns.field(name).unwrap().clone())
                    }
                })),
            ),
        ])
        .render();
        lines[1] = &rebuilt;
        let p = tmp("mismatched.json");
        fs::write(&p, lines.join("\n")).unwrap();
        let err = load_columnar(&p).expect_err("mismatched columns must be rejected");
        match err {
            TraceLoadError::ColumnMismatch {
                column, len, rows, ..
            } => {
                assert_eq!(column, "node");
                assert_eq!(len, 5);
                assert_eq!(rows, 6);
            }
            other => panic!("expected ColumnMismatch, got: {other}"),
        }
        // Salvage drops the bad group but keeps the file loadable.
        let (_, comp) = load_columnar_salvaged(&p).unwrap();
        assert_eq!(comp.loaded_groups, 0);
        assert!(!comp.is_complete());
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn bad_checksum_is_rejected_and_salvage_stops_there() {
        let c = sample(25);
        let text = render_rowgroups(&c, 4);
        // Corrupt one byte inside the *last* group's column data without
        // breaking JSON: flip a digit in the bytes column payload.
        let lines: Vec<&str> = text.lines().collect();
        let last = lines.len() - 1;
        let corrupted = lines[last].replacen("\"bytes\":[", "\"bytes\":[9", 1);
        let mut doctored: Vec<&str> = lines[..last].to_vec();
        doctored.push(&corrupted);
        let p = tmp("badsum.json");
        fs::write(&p, doctored.join("\n")).unwrap();
        let err = load_columnar(&p).expect_err("corrupt payload must be rejected");
        assert!(
            matches!(
                err,
                TraceLoadError::BadChecksum { .. } | TraceLoadError::ColumnMismatch { .. }
            ),
            "unexpected error: {err}"
        );
        let (salvaged, comp) = load_columnar_salvaged(&p).unwrap();
        assert_eq!(
            comp.loaded_groups, 6,
            "all groups before the corrupt one salvage"
        );
        assert_eq!(comp.loaded_records, 24);
        assert_eq!(salvaged.rank.len(), 24);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v2_round_trips_and_preserves_chunk_boundaries() {
        let c = sample(25);
        let t = ChunkedTrace::from_columnar(&c, 4);
        let p = tmp("v2roundtrip.json");
        save_chunked(&t, &p).unwrap();
        let back = load_chunked(&p).unwrap();
        assert_eq!(back.chunk_rows, 4);
        assert_eq!(
            back.chunks.len(),
            7,
            "chunk boundaries survive the disk trip"
        );
        assert_eq!(back, t);
        // The materializing loader agrees with the original columns.
        assert_eq!(load_columnar(&p).unwrap(), c);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v2_corruption_is_rejected_and_salvages_the_prefix() {
        let c = sample(25);
        let text = render_chunked(&ChunkedTrace::from_columnar(&c, 4));
        // Flip one hex digit inside the last group's encoded payload
        // without breaking JSON: the checksum must catch it.
        let lines: Vec<&str> = text.lines().collect();
        let last = lines.len() - 1;
        let pos = lines[last].rfind('"').unwrap() - 2;
        let mut doctored_last = lines[last].to_string();
        let old = doctored_last.as_bytes()[pos];
        let new = if old == b'0' { b'1' } else { b'0' };
        doctored_last.replace_range(pos..pos + 1, std::str::from_utf8(&[new]).unwrap());
        let mut doctored: Vec<&str> = lines[..last].to_vec();
        doctored.push(&doctored_last);
        let p = tmp("v2badsum.json");
        fs::write(&p, doctored.join("\n")).unwrap();
        let err = load_columnar(&p).expect_err("corrupt v2 payload must be rejected");
        assert!(
            matches!(
                err,
                TraceLoadError::BadChecksum { .. } | TraceLoadError::Codec { .. }
            ),
            "unexpected error: {err}"
        );
        // Both salvage entries recover exactly the intact prefix groups.
        let (salvaged, comp) = load_columnar_salvaged(&p).unwrap();
        assert_eq!(comp.loaded_groups, 6);
        assert_eq!(comp.loaded_records, 24);
        assert_eq!(salvaged.to_records(), c.to_records()[..24].to_vec());
        let (chunked, comp2) = load_chunked_salvaged(&p).unwrap();
        assert_eq!(comp2, comp);
        assert_eq!(chunked.chunks.len(), 6);
        assert_eq!(
            chunked.to_columnar().unwrap().to_records(),
            c.to_records()[..24].to_vec()
        );
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v1_files_still_load_and_stream() {
        // A legacy v1 file (JSON-array groups) loads through both the
        // materializing and the chunked loader.
        let c = sample(25);
        let p = tmp("v1legacy.json");
        fs::write(&p, render_rowgroups(&c, 4)).unwrap();
        assert_eq!(load_columnar(&p).unwrap(), c);
        let (t, comp) = load_chunked_salvaged(&p).unwrap();
        assert!(comp.is_complete());
        assert_eq!(t.chunk_rows, 4);
        assert_eq!(t.to_columnar().unwrap().to_records(), c.to_records());
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn spill_logs_load_through_every_entry_point() {
        use crate::spill::{spill_columnar, SpillFaultPlan};
        let c = sample(25);
        let p = tmp("spill.vsp3");
        spill_columnar(&c, 4, &p, SpillFaultPlan::none()).unwrap();
        // The chunked loader routes on the magic bytes; a binary log would
        // otherwise fail `read_to_string` with an Io error.
        let t = load_chunked(&p).unwrap();
        assert_eq!(t.chunk_rows, 4);
        assert_eq!(t.chunks.len(), 7);
        assert_eq!(load_columnar(&p).unwrap(), c);
        let (ts, comp) = load_chunked_salvaged(&p).unwrap();
        assert!(comp.is_complete());
        assert_eq!(ts, t);
        let (cs, comp2) = load_columnar_salvaged(&p).unwrap();
        assert_eq!(comp2, comp);
        assert_eq!(cs, c);
        fs::remove_file(&p).unwrap();
    }

    #[test]
    fn tracer_loads_reject_mismatched_columns() {
        let mut t = Tracer::new();
        let f = t.file_id("/z");
        let a = t.app_id("w");
        for i in 0..4 {
            t.record(
                i,
                0,
                a,
                Layer::Posix,
                OpKind::Write,
                SimTime(0),
                SimTime(1),
                Some(f),
                0,
                1,
            );
        }
        let p = tmp("zip.trace.json");
        save_tracer(&t, &p).unwrap();
        // Drop one entry from the node column only: still perfectly valid
        // JSON, but the columns no longer agree.
        let text = fs::read_to_string(&p).unwrap();
        let doctored = text.replacen("\"node\":[0,0,0,0]", "\"node\":[0,0,0]", 1);
        assert_ne!(
            text, doctored,
            "fixture must actually change the node column"
        );
        fs::write(&p, doctored).unwrap();
        let err = load_tracer(&p).expect_err("zipped columns must be rejected");
        match err {
            TraceLoadError::ColumnMismatch {
                column, len, rows, ..
            } => {
                assert_eq!(column, "node");
                assert_eq!(len, 3);
                assert_eq!(rows, 4);
            }
            other => panic!("expected ColumnMismatch, got: {other}"),
        }
        fs::remove_file(&p).unwrap();
    }
}
