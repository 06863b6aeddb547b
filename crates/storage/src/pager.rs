//! The pager: fixed-size page I/O over one file.

use pop_types::{PopError, PopResult};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> PopError {
    PopError::Execution(format!("storage io: {what} {}: {e}", path.display()))
}

/// A file of fixed-size pages. Page 0 is reserved for file metadata; data
/// and index pages start at 1. The pager performs raw I/O only — caching
/// lives in the [`BufferPool`](crate::BufferPool) above it.
#[derive(Debug)]
pub struct PageFile {
    path: PathBuf,
    file: File,
    page_size: usize,
    /// Number of pages currently in the file (including page 0).
    pages: u64,
}

impl PageFile {
    /// Open `path`, creating it if missing. A fresh file holds one
    /// (zeroed) metadata page.
    pub fn open(path: PathBuf, page_size: usize) -> PopResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, "open", &e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err(&path, "stat", &e))?
            .len();
        let mut pf = PageFile {
            path,
            file,
            page_size,
            pages: len / page_size as u64,
        };
        if pf.pages == 0 {
            pf.write_page(0, &vec![0u8; page_size])?;
        }
        Ok(pf)
    }

    /// File path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Pages in the file (metadata page included).
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Read page `pid` in full with one positional read (no seek, so
    /// readers need no exclusive access to the file). `truncate_to` (fault
    /// injection) cuts the read short to simulate a torn page, which
    /// surfaces as a typed error.
    pub fn read_page(&self, pid: u64, truncate_to: Option<usize>) -> PopResult<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_page_into(pid, truncate_to, &mut buf)?;
        Ok(buf)
    }

    /// [`PageFile::read_page`] into `buf`, which ends up one page long: a
    /// buffer that already is (a recycled pool frame) is overwritten
    /// without being zeroed first.
    pub fn read_page_into(
        &self,
        pid: u64,
        truncate_to: Option<usize>,
        buf: &mut Vec<u8>,
    ) -> PopResult<()> {
        if pid >= self.pages {
            return Err(PopError::Execution(format!(
                "storage io: page {pid} out of range ({} pages) in {}",
                self.pages,
                self.path.display()
            )));
        }
        let want = truncate_to.map_or(self.page_size, |t| t.min(self.page_size));
        buf.resize(self.page_size, 0);
        self.file
            .read_exact_at(&mut buf[..want], pid * self.page_size as u64)
            .map_err(|e| io_err(&self.path, "read", &e))?;
        if want < self.page_size {
            return Err(PopError::Execution(format!(
                "injected fault: short read of page {pid} ({want} of {} bytes) from {}",
                self.page_size,
                self.path.display()
            )));
        }
        Ok(())
    }

    /// Write page `pid` (extending the file when `pid` is the next page).
    pub fn write_page(&mut self, pid: u64, bytes: &[u8]) -> PopResult<()> {
        debug_assert_eq!(bytes.len(), self.page_size);
        if pid > self.pages {
            return Err(PopError::Execution(format!(
                "storage io: non-contiguous page write {pid} (have {})",
                self.pages
            )));
        }
        self.file
            .seek(SeekFrom::Start(pid * self.page_size as u64))
            .map_err(|e| io_err(&self.path, "seek", &e))?;
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, "write", &e))?;
        if pid == self.pages {
            self.pages += 1;
        }
        Ok(())
    }

    /// Flush file contents to the OS.
    pub fn sync(&mut self) -> PopResult<()> {
        self.file
            .flush()
            .map_err(|e| io_err(&self.path, "flush", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pop-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_read_round_trip() {
        let path = tmp("rt.dat");
        let _ = std::fs::remove_file(&path);
        let mut pf = PageFile::open(path.clone(), 256).unwrap();
        assert_eq!(pf.page_count(), 1);
        let page: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        pf.write_page(1, &page).unwrap();
        assert_eq!(pf.page_count(), 2);
        assert_eq!(pf.read_page(1, None).unwrap(), page);
        // Reopen sees the same contents.
        drop(pf);
        let pf = PageFile::open(path.clone(), 256).unwrap();
        assert_eq!(pf.page_count(), 2);
        assert_eq!(pf.read_page(1, None).unwrap(), page);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_and_short_read_error() {
        let path = tmp("oor.dat");
        let _ = std::fs::remove_file(&path);
        let mut pf = PageFile::open(path.clone(), 256).unwrap();
        assert!(pf.read_page(5, None).is_err());
        pf.write_page(1, &vec![7u8; 256]).unwrap();
        let err = pf.read_page(1, Some(10)).unwrap_err();
        assert!(err.to_string().contains("short read"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
