//! The write-ahead log: redo records for bulk loads and appends.
//!
//! Each paged table owns one WAL file. An append first goes to the WAL
//! (flushed), then to data pages; recovery replays every intact record
//! whose rows lie past the checkpointed row count, so a crash between
//! the WAL flush and the page write loses nothing. A record with a torn
//! tail (short frame or checksum mismatch) marks the crash point —
//! replay stops there and the file is truncated on the next checkpoint.
//!
//! Record framing:
//!
//! ```text
//! [0..4]   payload length (u32 LE)
//! [4..12]  FNV-1a 64 checksum of the payload (u64 LE)
//! [12..]   payload: start_row (u64 LE), n_rows (u32 LE), encoded rows
//! ```

use crate::page::{decode_row_onto, ColumnSet};
use pop_types::column::Column;
use pop_types::{fnv1a, PopError, PopResult};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const FRAME_HDR: usize = 12;

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> PopError {
    PopError::Execution(format!("wal io: {what} {}: {e}", path.display()))
}

/// One replayed WAL record.
#[derive(Debug)]
pub struct WalRecord {
    /// Table position of the first row in the record.
    pub start_row: u64,
    /// The rows, one column per stored column.
    pub cols: Vec<Column>,
    /// Rows in the record.
    pub rows: usize,
}

/// A per-table write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Open (or create) the WAL at `path`, positioned for appending.
    pub fn open(path: PathBuf) -> PopResult<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, "open", &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err(&path, "seek", &e))?;
        Ok(Wal { path, file })
    }

    /// File path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serialize one record frame.
    fn frame(start_row: u64, rows: usize, encoded: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(FRAME_HDR + 12 + encoded.len());
        frame.resize(FRAME_HDR, 0);
        frame.extend_from_slice(&start_row.to_le_bytes());
        frame.extend_from_slice(&(rows as u32).to_le_bytes());
        frame.extend_from_slice(encoded);
        let (len, crc) = (frame.len() - FRAME_HDR, fnv1a(&frame[FRAME_HDR..]));
        frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        frame[4..FRAME_HDR].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Append and flush one redo record: `rows` rows, `encoded` back to
    /// back in the page codec; returns the frame size in bytes.
    /// With `torn` set (fault injection) only half the frame reaches the
    /// file before an injected-crash error — exactly the on-disk state a
    /// real crash mid-`write` leaves behind.
    pub fn append(
        &mut self,
        start_row: u64,
        rows: usize,
        encoded: &[u8],
        torn: bool,
    ) -> PopResult<u64> {
        let frame = Self::frame(start_row, rows, encoded);
        if torn {
            let half = frame.len() / 2;
            self.file
                .write_all(&frame[..half])
                .map_err(|e| io_err(&self.path, "write", &e))?;
            let _ = self.file.flush();
            return Err(PopError::Execution(format!(
                "injected fault: torn write ({half} of {} bytes) in {}",
                frame.len(),
                self.path.display()
            )));
        }
        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, "write", &e))?;
        self.file
            .flush()
            .map_err(|e| io_err(&self.path, "flush", &e))?;
        Ok(frame.len() as u64)
    }

    /// Truncate the log (checkpoint: pages + meta are durable).
    pub fn truncate(&mut self) -> PopResult<()> {
        self.file
            .set_len(0)
            .map_err(|e| io_err(&self.path, "truncate", &e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, "seek", &e))?;
        Ok(())
    }

    /// Read every intact record from the WAL at `path` (missing file =
    /// no records). Stops silently at the first torn or corrupt frame —
    /// that is the crash point; everything before it is valid redo.
    pub fn replay(path: &Path) -> PopResult<Vec<WalRecord>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)
                    .map_err(|e| io_err(path, "read", &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(path, "open", &e)),
        }
        let mut records = Vec::new();
        let mut at = 0usize;
        while at + FRAME_HDR <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let crc = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
            let Some(payload) = bytes.get(at + FRAME_HDR..at + FRAME_HDR + len) else {
                break; // torn tail
            };
            if fnv1a(payload) != crc {
                break; // corrupt tail
            }
            let mut p = 0usize;
            let start_row = u64::from_le_bytes(payload[p..p + 8].try_into().unwrap());
            p += 8;
            let rows = u32::from_le_bytes(payload[p..p + 4].try_into().unwrap()) as usize;
            p += 4;
            // An encoded row takes at least its 2-byte header.
            let cap = rows.min(payload.len() / 2);
            let mut cols = Vec::new();
            let all = ColumnSet::all();
            let decoded = (0..rows).try_fold(p, |at, i| {
                decode_row_onto(payload, at, &all, &mut cols, i, cap)
            });
            if decoded.is_err() {
                break;
            }
            records.push(WalRecord {
                start_row,
                cols,
                rows,
            });
            at += FRAME_HDR + len;
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_types::{Row, Value};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pop-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Rows `lo..hi` of the `(i, "ri")` test table, encoded.
    fn batch(lo: i64, hi: i64) -> Vec<u8> {
        let cols = crate::columns_of(&rows(lo, hi));
        let (n, mut out) = ((hi - lo) as usize, Vec::new());
        let lens = crate::page::encoded_row_lens(&cols, n);
        crate::page::encode_rows(&cols, 0..n, &lens, &mut out);
        out
    }

    fn rows_of(rec: &WalRecord) -> Vec<Row> {
        (0..rec.rows)
            .map(|i| rec.cols.iter().map(|c| c.value(i)).collect())
            .collect()
    }

    fn rows(lo: i64, hi: i64) -> Vec<Row> {
        (lo..hi)
            .map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))])
            .collect()
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("rt.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(path.clone()).unwrap();
        wal.append(0, 5, &batch(0, 5), false).unwrap();
        wal.append(5, 3, &batch(5, 8), false).unwrap();
        wal.append(8, 4, &[0; 8], false).unwrap();
        drop(wal);
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!((recs[0].start_row, recs[0].rows), (0, 5));
        assert_eq!((recs[1].start_row, recs[1].rows), (5, 3));
        assert_eq!(rows_of(&recs[1]), rows(5, 8));
        // Rows without values replay as a row count.
        assert_eq!((recs[2].rows, recs[2].cols.len()), (4, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_stops_replay_at_crash_point() {
        let path = tmp("torn.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(path.clone()).unwrap();
        wal.append(0, 4, &batch(0, 4), false).unwrap();
        let err = wal.append(4, 4, &batch(4, 8), true).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        drop(wal);
        // The intact first record replays; the torn tail does not.
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(rows_of(&recs[0]), rows(0, 4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_empties_log_and_missing_file_is_empty() {
        let path = tmp("trunc.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(path.clone()).unwrap();
        wal.append(0, 3, &batch(0, 3), false).unwrap();
        wal.truncate().unwrap();
        wal.append(3, 1, &batch(3, 4), false).unwrap();
        drop(wal);
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].start_row, 3);
        std::fs::remove_file(&path).unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
    }
}
