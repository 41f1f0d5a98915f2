//! The FITS (Flexible Image Transport System) format over buffered stdio —
//! Montage's input images are FITS files read with 64 KiB transfers
//! (§IV-A5).
//!
//! Real structure: 80-byte header cards in 2880-byte logical blocks
//! (`SIMPLE`, `BITPIX`, `NAXIS`, `NAXIS1..n`, `END`), followed by the image
//! payload padded to a 2880-byte boundary.

use crate::stdio::{self, FileStream};
use crate::world::IoWorld;
use hpc_cluster::topology::RankId;
use recorder_sim::record::{Layer, OpKind};
use sim_core::SimTime;
use storage_sim::IoErr;

/// FITS logical block size.
pub const BLOCK: u64 = 2880;
/// Header card size.
pub(crate) const CARD: usize = 80;
/// Buffer size FITS libraries typically use (cfitsio-style), which is what
/// makes Montage's input reads appear as 64 KiB POSIX transfers.
pub(crate) const FITS_BUFSIZE: u64 = 64 * 1024;

/// Image metadata carried in the FITS header.
#[derive(Debug, Clone, PartialEq)]
pub struct FitsHeader {
    /// Bits per pixel (8, 16, 32, -32, -64).
    pub bitpix: i32,
    /// Axis lengths (`NAXIS1`, `NAXIS2`, …).
    pub naxes: Vec<u64>,
}

impl FitsHeader {
    /// Payload bytes (before block padding).
    pub(crate) fn data_bytes(&self) -> u64 {
        let npix: u64 = self.naxes.iter().product();
        npix * (self.bitpix.unsigned_abs() as u64 / 8)
    }

    /// Payload bytes padded to the 2880-byte block boundary.
    pub fn padded_data_bytes(&self) -> u64 {
        self.data_bytes().div_ceil(BLOCK) * BLOCK
    }

    fn card(key: &str, value: &str) -> [u8; CARD] {
        let mut c = [b' '; CARD];
        let s = format!("{key:<8}= {value:>20}");
        c[..s.len().min(CARD)].copy_from_slice(&s.as_bytes()[..s.len().min(CARD)]);
        c
    }

    /// Encode the header block (cards padded to 2880 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut cards: Vec<[u8; CARD]> = Vec::new();
        cards.push(Self::card("SIMPLE", "T"));
        cards.push(Self::card("BITPIX", &self.bitpix.to_string()));
        cards.push(Self::card("NAXIS", &self.naxes.len().to_string()));
        for (i, n) in self.naxes.iter().enumerate() {
            cards.push(Self::card(&format!("NAXIS{}", i + 1), &n.to_string()));
        }
        let mut end = [b' '; CARD];
        end[..3].copy_from_slice(b"END");
        cards.push(end);
        let mut out: Vec<u8> = cards.into_iter().flatten().collect();
        let padded = (out.len() as u64).div_ceil(BLOCK) * BLOCK;
        out.resize(padded as usize, b' ');
        out
    }

    /// Parse a header block.
    pub fn parse(buf: &[u8]) -> Result<(FitsHeader, u64), IoErr> {
        if buf.len() < CARD {
            return Err(IoErr::Invalid);
        }
        let mut bitpix: Option<i32> = None;
        let mut naxis: Option<usize> = None;
        let mut naxes: Vec<(usize, u64)> = Vec::new();
        let mut simple = false;
        let mut end_at: Option<usize> = None;
        for (i, card) in buf.chunks(CARD).enumerate() {
            let text = std::str::from_utf8(card).map_err(|_| IoErr::Invalid)?;
            let key = text[..8.min(text.len())].trim();
            if key == "END" {
                end_at = Some(i);
                break;
            }
            let value = text.split('=').nth(1).map(str::trim).unwrap_or("");
            match key {
                "SIMPLE" => simple = value.starts_with('T'),
                "BITPIX" => bitpix = value.parse().ok(),
                "NAXIS" => naxis = value.parse().ok(),
                k if k.starts_with("NAXIS") => {
                    let idx: usize = k[5..].parse().map_err(|_| IoErr::Invalid)?;
                    naxes.push((idx, value.parse().map_err(|_| IoErr::Invalid)?));
                }
                _ => {}
            }
        }
        let end_at = end_at.ok_or(IoErr::Invalid)?;
        if !simple {
            return Err(IoErr::Invalid);
        }
        let bitpix = bitpix.ok_or(IoErr::Invalid)?;
        let n = naxis.ok_or(IoErr::Invalid)?;
        naxes.sort_by_key(|&(i, _)| i);
        if naxes.len() != n {
            return Err(IoErr::Invalid);
        }
        let header = FitsHeader {
            bitpix,
            naxes: naxes.into_iter().map(|(_, v)| v).collect(),
        };
        // Header occupies blocks up to and including the END card.
        let bytes = ((end_at + 1) * CARD) as u64;
        let header_len = bytes.div_ceil(BLOCK) * BLOCK;
        Ok((header, header_len))
    }
}

/// An open FITS file.
pub struct FitsFile {
    stream: FileStream,
    path_id: recorder_sim::record::FileId,
    /// Parsed header.
    pub header: FitsHeader,
    /// Byte offset of the image payload.
    pub data_offset: u64,
}

/// Write a complete FITS file (header + synthetic image).
pub fn save(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    header: &FitsHeader,
    seed: u64,
    now: SimTime,
) -> (Result<(), IoErr>, SimTime) {
    let (h, t) = stdio::fopen_buffered(w, rank, path, "w", FITS_BUFSIZE, now);
    let h = match h {
        Ok(h) => h,
        Err(e) => return (Err(e), t),
    };
    let enc = header.encode();
    let (res, t) = stdio::fwrite(w, rank, h, &enc, t);
    if let Err(e) = res {
        return (Err(e), t);
    }
    let (res, t) = stdio::fwrite_pattern(w, rank, h, header.padded_data_bytes(), seed, t);
    if let Err(e) = res {
        return (Err(e), t);
    }
    stdio::fclose(w, rank, h, t)
}

/// Open a FITS file and parse its header.
pub fn open(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    now: SimTime,
) -> (Result<FitsFile, IoErr>, SimTime) {
    let t0 = now;
    let (h, t) = stdio::fopen_buffered(w, rank, path, "r", FITS_BUFSIZE, now);
    let h = match h {
        Ok(h) => h,
        Err(e) => return (Err(e), t),
    };
    let (block, t) = stdio::fread_data(w, rank, h, BLOCK, t);
    let block = match block {
        Ok(b) => b,
        Err(e) => return (Err(e), t),
    };
    let (header, data_offset) = match FitsHeader::parse(&block) {
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
        Ok(FitsFile {
            stream: h,
            path_id,
            header,
            data_offset,
        }),
        end,
    )
}

impl FitsFile {
    /// Read the whole image payload in FITS-buffer-sized sweeps.
    pub fn read_image(
        &self,
        w: &mut IoWorld,
        rank: RankId,
        now: SimTime,
    ) -> (Result<u64, IoErr>, SimTime) {
        let t0 = now;
        let (res, t) = stdio::fseek(
            w,
            rank,
            self.stream,
            self.data_offset as i64,
            crate::posix::Whence::Set,
            now,
        );
        if let Err(e) = res {
            return (Err(e), t);
        }
        let (res, t) = stdio::fread(w, rank, self.stream, self.header.padded_data_bytes(), t);
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
            self.data_offset,
            n,
        );
        (Ok(n), end)
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

    #[test]
    fn header_encode_parse_round_trip() {
        let h = FitsHeader {
            bitpix: 16,
            naxes: vec![1024, 1024],
        };
        let enc = h.encode();
        assert_eq!(enc.len() as u64 % BLOCK, 0);
        let (parsed, hlen) = FitsHeader::parse(&enc).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(hlen, BLOCK);
        assert_eq!(h.data_bytes(), 1024 * 1024 * 2);
        assert_eq!(h.padded_data_bytes() % BLOCK, 0);
    }

    #[test]
    fn negative_bitpix_floats() {
        let h = FitsHeader {
            bitpix: -32,
            naxes: vec![100, 50],
        };
        assert_eq!(h.data_bytes(), 100 * 50 * 4);
        let (parsed, _) = FitsHeader::parse(&h.encode()).unwrap();
        assert_eq!(parsed.bitpix, -32);
    }

    #[test]
    fn save_open_read_cycle_uses_64k_buffers() {
        let mut w = IoWorld::lassen(1, 1, 2);
        let r = RankId(0);
        let h = FitsHeader {
            bitpix: 16,
            naxes: vec![1024, 1024],
        };
        let (res, t) = save(&mut w, r, "/p/gpfs1/ngc3372.fits", &h, 3, SimTime::ZERO);
        res.unwrap();
        let (f, t) = open(&mut w, r, "/p/gpfs1/ngc3372.fits", t);
        let f = f.unwrap();
        assert_eq!(f.header, h);
        let before = w.tracer.len();
        let (n, t) = f.read_image(&mut w, r, t);
        assert_eq!(n.unwrap(), h.padded_data_bytes());
        let (res, _) = f.close(&mut w, r, t);
        res.unwrap();
        // The bulk read bypasses the 64 KiB buffer as one large POSIX read
        // (cfitsio reads image data in big sequential sweeps).
        let posix_read_sizes: Vec<u64> = w.tracer.columnar().to_records()[before..]
            .iter()
            .filter(|rec| rec.layer == Layer::Posix && rec.op == OpKind::Read)
            .map(|rec| rec.bytes)
            .collect();
        assert!(!posix_read_sizes.is_empty());
    }

    #[test]
    fn missing_end_card_is_invalid() {
        let mut buf = FitsHeader {
            bitpix: 8,
            naxes: vec![4],
        }
        .encode();
        // Blank out the END card.
        for b in buf.iter_mut() {
            if *b == b'E' {
                *b = b' ';
            }
        }
        assert_eq!(FitsHeader::parse(&buf), Err(IoErr::Invalid));
    }
}
