//! The NumPy `.npy` array format over buffered stdio — JAG ICF's interface
//! ("JAG performs I/O using the STDIO interface used by NumPy array Python
//! files", §IV-A4).
//!
//! The v1.0 header is encoded and parsed for real: magic, version, a
//! little-endian header length, and the Python dict literal with `descr`,
//! `fortran_order`, and `shape`.

use crate::stdio::{self, FileStream};
use crate::world::IoWorld;
use hpc_cluster::topology::RankId;
use recorder_sim::record::{Layer, OpKind};
use sim_core::SimTime;
use storage_sim::IoErr;

/// Magic prefix of every `.npy` file.
const MAGIC: &[u8; 6] = b"\x93NUMPY";

/// Metadata of an npy array.
#[derive(Debug, Clone, PartialEq)]
pub struct NpyHeader {
    /// NumPy dtype string, e.g. `"<f4"`.
    pub descr: String,
    /// Array shape.
    pub shape: Vec<u64>,
}

impl NpyHeader {
    /// Bytes per element implied by `descr` (the trailing digits).
    pub(crate) fn dtype_size(&self) -> u64 {
        self.descr
            .trim_start_matches(|c: char| !c.is_ascii_digit())
            .parse()
            .unwrap_or(1)
    }

    /// Total payload bytes.
    pub fn nbytes(&self) -> u64 {
        self.shape.iter().product::<u64>() * self.dtype_size()
    }

    /// Encode the full header block (magic + version + len + dict, padded
    /// to 64 bytes as NumPy does).
    pub fn encode(&self) -> Vec<u8> {
        let shape_str = match self.shape.len() {
            1 => format!("({},)", self.shape[0]),
            _ => format!(
                "({})",
                self.shape
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        let dict = format!(
            "{{'descr': '{}', 'fortran_order': False, 'shape': {}, }}",
            self.descr, shape_str
        );
        let unpadded = MAGIC.len() + 2 + 2 + dict.len() + 1; // +1 newline
        let total = unpadded.div_ceil(64) * 64;
        let pad = total - unpadded;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(MAGIC);
        out.push(1); // major
        out.push(0); // minor
        let hlen = (dict.len() + pad + 1) as u16;
        out.extend_from_slice(&hlen.to_le_bytes());
        out.extend_from_slice(dict.as_bytes());
        out.extend(std::iter::repeat_n(b' ', pad));
        out.push(b'\n');
        out
    }

    /// Parse a header block (magic + version + len + dict).
    pub fn parse(buf: &[u8]) -> Result<(NpyHeader, u64), IoErr> {
        if buf.len() < 10 || &buf[..6] != MAGIC {
            return Err(IoErr::Invalid);
        }
        let hlen = u16::from_le_bytes([buf[8], buf[9]]) as usize;
        if buf.len() < 10 + hlen {
            return Err(IoErr::Invalid);
        }
        let dict = std::str::from_utf8(&buf[10..10 + hlen]).map_err(|_| IoErr::Invalid)?;
        let descr = extract_quoted(dict, "'descr':").ok_or(IoErr::Invalid)?;
        let shape_src = dict.split("'shape':").nth(1).ok_or(IoErr::Invalid)?;
        let open = shape_src.find('(').ok_or(IoErr::Invalid)?;
        let close = shape_src.find(')').ok_or(IoErr::Invalid)?;
        let shape: Vec<u64> = shape_src[open + 1..close]
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        Ok((
            NpyHeader {
                descr: descr.to_string(),
                shape,
            },
            (10 + hlen) as u64,
        ))
    }
}

fn extract_quoted<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let rest = src.split(key).nth(1)?;
    let first = rest.find('\'')?;
    let rest = &rest[first + 1..];
    let second = rest.find('\'')?;
    Some(&rest[..second])
}

/// An open npy file for sample reads.
pub struct NpyFile {
    stream: FileStream,
    path_id: recorder_sim::record::FileId,
    /// Parsed header.
    pub header: NpyHeader,
    /// Byte offset where the array payload begins.
    pub data_offset: u64,
}

/// Open an npy file and parse its header.
pub fn open(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    now: SimTime,
) -> (Result<NpyFile, IoErr>, SimTime) {
    let t0 = now;
    let (h, t) = stdio::fopen(w, rank, path, "r", now);
    let h = match h {
        Ok(h) => h,
        Err(e) => return (Err(e), t),
    };
    // NumPy reads the magic+version+len first, then the dict.
    let (head, t) = stdio::fread_data(w, rank, h, 10, t);
    let head = match head {
        Ok(d) => d,
        Err(e) => return (Err(e), t),
    };
    if head.len() < 10 || &head[..6] != MAGIC {
        return (Err(IoErr::Invalid), t);
    }
    let hlen = u16::from_le_bytes([head[8], head[9]]) as u64;
    let (dict, t) = stdio::fread_data(w, rank, h, hlen, t);
    let dict = match dict {
        Ok(d) => d,
        Err(e) => return (Err(e), t),
    };
    let mut full = head;
    full.extend_from_slice(&dict);
    let (header, data_offset) = match NpyHeader::parse(&full) {
        Ok(x) => x,
        Err(e) => return (Err(e), t),
    };
    let path_id = w.tracer.file_id(path);
    let end = w.trace_io(
        rank,
        Layer::HighLevel,
        OpKind::Open,
        t0,
        t,
        Some(path_id),
        0,
        0,
    );
    (
        Ok(NpyFile {
            stream: h,
            path_id,
            header,
            data_offset,
        }),
        end,
    )
}

impl NpyFile {
    /// Read `count` elements starting at element `index` (row-major order).
    pub fn read_elements(
        &self,
        w: &mut IoWorld,
        rank: RankId,
        index: u64,
        count: u64,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let t0 = now;
        let esz = self.header.dtype_size();
        let off = self.data_offset + index * esz;
        let (res, t) = stdio::fseek(
            w,
            rank,
            self.stream,
            off as i64,
            crate::posix::Whence::Set,
            now,
        );
        if let Err(e) = res {
            return (Err(e), t);
        }
        let (res, t) = stdio::fread(w, rank, self.stream, count * esz, t);
        let n = match res {
            Ok(n) => n,
            Err(e) => return (Err(e), t),
        };
        let end = w.trace_io(
            rank,
            Layer::HighLevel,
            OpKind::Read,
            t0,
            t,
            Some(self.path_id),
            off,
            n,
        );
        (Ok(n / esz.max(1)), end)
    }

    /// Close the file.
    pub fn close(
        self,
        w: &mut IoWorld,
        rank: RankId,
        now: SimTime,
    ) -> (Result<(), IoErr>, SimTime) {
        stdio::fclose(w, rank, self.stream, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Dur;

    #[test]
    fn header_encode_parse_round_trip() {
        let h = NpyHeader {
            descr: "<f4".to_string(),
            shape: vec![100_000, 16],
        };
        let enc = h.encode();
        assert_eq!(enc.len() % 64, 0, "numpy pads headers to 64 bytes");
        let (parsed, off) = NpyHeader::parse(&enc).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(off as usize, enc.len());
        assert_eq!(h.dtype_size(), 4);
        assert_eq!(h.nbytes(), 100_000 * 16 * 4);
    }

    #[test]
    fn one_dim_shape_round_trips() {
        let h = NpyHeader {
            descr: "<i8".to_string(),
            shape: vec![42],
        };
        let (parsed, _) = NpyHeader::parse(&h.encode()).unwrap();
        assert_eq!(parsed.shape, vec![42]);
    }

    #[test]
    fn write_open_read_cycle() {
        let mut w = IoWorld::lassen(1, 1, Dur::from_secs(3600), 8);
        let r = RankId(0);
        let h = NpyHeader {
            descr: "<f4".to_string(),
            shape: vec![1000, 64],
        };
        let (s, t) = stdio::fopen(&mut w, r, "/p/gpfs1/jag.npy", "w", SimTime::ZERO);
        let s = s.unwrap();
        let (res, t) = stdio::fwrite(&mut w, r, s, &h.encode(), t);
        res.unwrap();
        let (res, t) = stdio::fwrite_pattern(&mut w, r, s, h.nbytes(), 42, t);
        res.unwrap();
        let (res, t) = stdio::fclose(&mut w, r, s, t);
        res.unwrap();
        let (f, t) = open(&mut w, r, "/p/gpfs1/jag.npy", t);
        let f = f.unwrap();
        assert_eq!(f.header, h);
        let (n, t) = f.read_elements(&mut w, r, 0, 64, t);
        assert_eq!(n.unwrap(), 64);
        let (res, _) = f.close(&mut w, r, t);
        res.unwrap();
        // HighLevel open + read records present.
        assert!(w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .any(|rec| rec.layer == Layer::HighLevel && rec.op == OpKind::Open));
        assert!(w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .any(|rec| rec.layer == Layer::HighLevel && rec.op == OpKind::Read));
    }

    #[test]
    fn garbage_is_rejected() {
        let mut w = IoWorld::lassen(1, 1, Dur::from_secs(60), 8);
        let r = RankId(0);
        let (h, t) = stdio::fopen(&mut w, r, "/p/gpfs1/junk.npy", "w", SimTime::ZERO);
        let (_, t) = stdio::fwrite(&mut w, r, h.unwrap(), b"garbage bytes here", t);
        let (_, t) = stdio::fclose(&mut w, r, h.unwrap(), t);
        let (res, _) = open(&mut w, r, "/p/gpfs1/junk.npy", t);
        assert_eq!(res.err().unwrap(), IoErr::Invalid);
    }
}
