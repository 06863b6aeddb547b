//! A paged B+tree over `(Value key, position)` postings.
//!
//! This is the paged implementation of the primary (Sorted) index of a
//! paged table, with exactly the key semantics of the in-memory
//! [`Index`](crate::Index): NULL keys are skipped by the caller,
//! positions are ascending per key, and a range scan yields keys in
//! order with each key's positions ascending.
//!
//! Layout (`<table>.idx`, fixed-size pages):
//!
//! * page 0 — meta: root pid, first-leaf pid, entry/distinct counts;
//! * leaf pages (tag 2) — sorted `(key, postings-chunk)` entries plus a
//!   next-leaf pointer, so range scans walk the chain. A key whose
//!   posting list outgrows a page spills into *chunks*: consecutive
//!   entries (possibly across leaves) with the same key;
//! * internal pages (tag 3) — separator keys over child pids.
//!
//! Descent is *leftmost* (the child before the first separator greater
//! than the key), then forward along the leaf chain — so chunked keys
//! are always collected completely. Bulk build packs leaves tightly and
//! stacks internal levels bottom-up; appends insert into leaves (with
//! splits) and rebuild the internal levels from the leaf chain, which
//! stays cheap because internals are a tiny fraction of the tree.

use crate::backend::StorageEnv;
use crate::page::{decode_row_header, decode_value, encode_key};
use crate::pager::PageFile;
use parking_lot::Mutex;
use pop_types::{PopError, PopResult, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// B+tree meta-page tag.
const TAG_BMETA: u8 = 4;
/// Leaf-page tag.
const TAG_LEAF: u8 = 2;
/// Internal-page tag.
const TAG_INT: u8 = 3;
/// Bytes of fixed header on leaf and internal pages.
const NODE_HDR: usize = 11;

fn corrupt(what: &str) -> PopError {
    PopError::Execution(format!("btree: corrupt page ({what})"))
}

/// Decode a key at `*at`, advancing past it.
fn decode_key(buf: &[u8], at: &mut usize) -> PopResult<Value> {
    match decode_row_header(buf, at)? {
        1 => decode_value(buf, at),
        n => Err(corrupt(&format!("key of {n} values"))),
    }
}

/// One leaf entry: a key and one chunk of its posting list.
#[derive(Debug, Clone)]
struct LeafEntry {
    key: Value,
    keyb: Vec<u8>,
    pos: Vec<u64>,
}

impl LeafEntry {
    fn new(key: Value, pos: Vec<u64>) -> Self {
        let mut keyb = Vec::new();
        encode_key(&key, &mut keyb);
        LeafEntry { key, keyb, pos }
    }

    /// Serialized size (slot-directory bytes excluded).
    fn size(&self) -> usize {
        self.keyb.len() + 4 + 8 * self.pos.len()
    }
}

/// Greedy packer: entries (chunking long posting lists) into leaf pages.
struct LeafPacker {
    ps: usize,
    pages: Vec<Vec<LeafEntry>>,
    cur: Vec<LeafEntry>,
    cur_bytes: usize,
}

impl LeafPacker {
    fn new(ps: usize) -> Self {
        LeafPacker {
            ps,
            pages: Vec::new(),
            cur: Vec::new(),
            cur_bytes: 0,
        }
    }

    fn flush(&mut self) {
        if !self.cur.is_empty() {
            self.pages.push(std::mem::take(&mut self.cur));
            self.cur_bytes = 0;
        }
    }

    /// Positions of `entry` that fit the current page (given its key).
    fn capacity(&self, keyb_len: usize) -> usize {
        let used = NODE_HDR + self.cur_bytes + 2 * (self.cur.len() + 1);
        let avail = self.ps.saturating_sub(used + keyb_len + 4);
        avail / 8
    }

    fn push(&mut self, entry: LeafEntry) -> PopResult<()> {
        let LeafEntry { key, keyb, mut pos } = entry;
        while !pos.is_empty() {
            let take = self.capacity(keyb.len()).min(pos.len());
            if take == 0 {
                if self.cur.is_empty() {
                    return Err(PopError::Execution(format!(
                        "btree: key of {} encoded bytes exceeds the {}-byte page size",
                        keyb.len(),
                        self.ps
                    )));
                }
                self.flush();
                continue;
            }
            let rest = pos.split_off(take);
            let chunk = LeafEntry {
                key: key.clone(),
                keyb: keyb.clone(),
                pos,
            };
            self.cur_bytes += chunk.size();
            self.cur.push(chunk);
            pos = rest;
        }
        Ok(())
    }

    fn finish(mut self) -> Vec<Vec<LeafEntry>> {
        self.flush();
        self.pages
    }
}

/// Serialize one leaf page.
fn leaf_to_bytes(ps: usize, next: u64, entries: &[LeafEntry]) -> Vec<u8> {
    let mut buf = vec![0u8; ps];
    buf[0] = TAG_LEAF;
    buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    buf[3..11].copy_from_slice(&next.to_le_bytes());
    let mut at = NODE_HDR;
    for (i, e) in entries.iter().enumerate() {
        let slot = ps - 2 * (i + 1);
        buf[slot..slot + 2].copy_from_slice(&(at as u16).to_le_bytes());
        buf[at..at + e.keyb.len()].copy_from_slice(&e.keyb);
        at += e.keyb.len();
        buf[at..at + 4].copy_from_slice(&(e.pos.len() as u32).to_le_bytes());
        at += 4;
        for p in &e.pos {
            buf[at..at + 8].copy_from_slice(&p.to_le_bytes());
            at += 8;
        }
    }
    buf
}

/// Parse one leaf page: `(next, entries)`.
fn parse_leaf(bytes: &[u8]) -> PopResult<(u64, Vec<LeafEntry>)> {
    if bytes.len() < NODE_HDR || bytes[0] != TAG_LEAF {
        return Err(corrupt("not a leaf"));
    }
    let n = u16::from_le_bytes(bytes[1..3].try_into().unwrap()) as usize;
    let next = u64::from_le_bytes(bytes[3..11].try_into().unwrap());
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let slot = bytes.len() - 2 * (i + 1);
        let mut at = u16::from_le_bytes(bytes[slot..slot + 2].try_into().unwrap()) as usize;
        let key_at = at;
        let key = decode_key(bytes, &mut at)?;
        let keyb = bytes[key_at..at].to_vec();
        let np = u32::from_le_bytes(
            bytes
                .get(at..at + 4)
                .ok_or_else(|| corrupt("postings len"))?
                .try_into()
                .unwrap(),
        ) as usize;
        at += 4;
        let mut pos = Vec::with_capacity(np);
        for _ in 0..np {
            pos.push(u64::from_le_bytes(
                bytes
                    .get(at..at + 8)
                    .ok_or_else(|| corrupt("posting"))?
                    .try_into()
                    .unwrap(),
            ));
            at += 8;
        }
        entries.push(LeafEntry { key, keyb, pos });
    }
    Ok((next, entries))
}

/// Serialize one internal page.
fn internal_to_bytes(ps: usize, child0: u64, keys: &[(Vec<u8>, u64)]) -> Vec<u8> {
    let mut buf = vec![0u8; ps];
    buf[0] = TAG_INT;
    buf[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
    buf[3..11].copy_from_slice(&child0.to_le_bytes());
    let mut at = NODE_HDR;
    for (i, (keyb, child)) in keys.iter().enumerate() {
        let slot = ps - 2 * (i + 1);
        buf[slot..slot + 2].copy_from_slice(&(at as u16).to_le_bytes());
        buf[at..at + keyb.len()].copy_from_slice(keyb);
        at += keyb.len();
        buf[at..at + 8].copy_from_slice(&child.to_le_bytes());
        at += 8;
    }
    buf
}

/// Parse one internal page: `(child0, separator keys with children)`.
fn parse_internal(bytes: &[u8]) -> PopResult<(u64, Vec<(Value, u64)>)> {
    if bytes.len() < NODE_HDR || bytes[0] != TAG_INT {
        return Err(corrupt("not an internal node"));
    }
    let n = u16::from_le_bytes(bytes[1..3].try_into().unwrap()) as usize;
    let child0 = u64::from_le_bytes(bytes[3..11].try_into().unwrap());
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let slot = bytes.len() - 2 * (i + 1);
        let mut at = u16::from_le_bytes(bytes[slot..slot + 2].try_into().unwrap()) as usize;
        let key = decode_key(bytes, &mut at)?;
        let child = u64::from_le_bytes(
            bytes
                .get(at..at + 8)
                .ok_or_else(|| corrupt("child pid"))?
                .try_into()
                .unwrap(),
        );
        keys.push((key, child));
    }
    Ok((child0, keys))
}

#[derive(Debug)]
struct BTreeInner {
    file: PageFile,
    root: u64,
    first_leaf: u64,
    entries: u64,
    distinct: u64,
}

/// A paged B+tree primary index.
#[derive(Debug)]
pub struct BTree {
    env: Arc<StorageEnv>,
    file_id: u64,
    inner: Mutex<BTreeInner>,
}

impl BTree {
    /// Build a fresh tree at `path` from a complete key→positions map
    /// (NULLs already skipped, positions ascending). Truncates any
    /// existing file.
    pub fn create(
        env: Arc<StorageEnv>,
        path: PathBuf,
        map: &BTreeMap<Value, Vec<u64>>,
    ) -> PopResult<BTree> {
        let _ = std::fs::remove_file(&path);
        let ps = env.config().page_size;
        let file = PageFile::open(path, ps)?;
        let file_id = env.alloc_file_id();
        let tree = BTree {
            env,
            file_id,
            inner: Mutex::new(BTreeInner {
                file,
                root: 0,
                first_leaf: 0,
                entries: 0,
                distinct: 0,
            }),
        };
        {
            let mut inner = tree.inner.lock();
            let mut packer = LeafPacker::new(ps);
            for (key, pos) in map {
                inner.entries += pos.len() as u64;
                inner.distinct += 1;
                packer.push(LeafEntry::new(key.clone(), pos.clone()))?;
            }
            let leaves = packer.finish();
            let n_leaves = leaves.len() as u64;
            let mut children = Vec::with_capacity(leaves.len());
            for (i, entries) in leaves.iter().enumerate() {
                let pid = 1 + i as u64;
                let next = if pid < n_leaves { pid + 1 } else { 0 };
                tree.write_page(&mut inner, pid, &leaf_to_bytes(ps, next, entries))?;
                children.push((entries[0].keyb.clone(), pid));
            }
            inner.first_leaf = u64::from(n_leaves > 0);
            inner.root = tree.build_internals(&mut inner, children)?;
            tree.write_meta(&mut inner)?;
            inner.file.sync()?;
        }
        Ok(tree)
    }

    /// Total postings (equals the mem index's `entries()`).
    pub fn entry_count(&self) -> u64 {
        self.inner.lock().entries
    }

    /// Distinct keys (equals the mem index's `distinct_keys()`).
    pub fn distinct_keys(&self) -> u64 {
        self.inner.lock().distinct
    }

    /// Remove the backing file (temporary-table cleanup).
    pub fn unlink(&self) {
        let inner = self.inner.lock();
        self.env.pool().invalidate_file(self.file_id);
        let _ = std::fs::remove_file(inner.file.path());
    }

    /// All positions for `key`, ascending; empty when absent.
    pub fn probe(&self, key: &Value) -> PopResult<Vec<u64>> {
        let mut out = Vec::new();
        self.probe_into(key, &mut out)?;
        Ok(out)
    }

    /// [`BTree::probe`] appending to `out`.
    pub fn probe_into(&self, key: &Value, out: &mut Vec<u64>) -> PopResult<()> {
        let mut inner = self.inner.lock();
        let Some(mut pid) = self.descend(&mut inner, key)? else {
            return Ok(());
        };
        loop {
            let page = self.read_page(&mut inner, pid)?;
            let (next, entries) = parse_leaf(&page)?;
            for e in entries {
                match e.key.cmp(key) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => out.extend(e.pos),
                    std::cmp::Ordering::Greater => return Ok(()),
                }
            }
            if next == 0 {
                return Ok(());
            }
            pid = next;
        }
    }

    /// Positions with `lo <= key <= hi` (either bound optional), keys in
    /// order, positions ascending per key.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> PopResult<Vec<u64>> {
        let mut inner = self.inner.lock();
        let mut pid = match lo {
            Some(lo) => match self.descend(&mut inner, lo)? {
                Some(pid) => pid,
                None => return Ok(Vec::new()),
            },
            None => inner.first_leaf,
        };
        if pid == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        loop {
            let page = self.read_page(&mut inner, pid)?;
            let (next, entries) = parse_leaf(&page)?;
            for e in entries {
                if lo.is_some_and(|lo| e.key < *lo) {
                    continue;
                }
                if hi.is_some_and(|hi| e.key > *hi) {
                    return Ok(out);
                }
                out.extend(e.pos);
            }
            if next == 0 {
                return Ok(out);
            }
            pid = next;
        }
    }

    /// Append `additions` (new positions per key, all greater than any
    /// position already stored). Splits full leaves and rebuilds the
    /// internal levels when the leaf set changes.
    pub fn insert(&self, additions: &BTreeMap<Value, Vec<u64>>) -> PopResult<()> {
        if additions.is_empty() {
            return Ok(());
        }
        let ps = self.env.config().page_size;
        let mut inner = self.inner.lock();
        let mut split = false;
        for (key, new_pos) in additions {
            inner.entries += new_pos.len() as u64;
            if inner.root == 0 {
                // First key of an empty tree.
                let mut packer = LeafPacker::new(ps);
                packer.push(LeafEntry::new(key.clone(), new_pos.clone()))?;
                let pages = packer.finish();
                let first = self.append_chain(&mut inner, &pages, 0)?;
                inner.root = first;
                inner.first_leaf = first;
                inner.distinct += 1;
                split = true;
                continue;
            }
            // Find the leaf holding the last chunk of `key` (append
            // case), or the leaf where `key` sorts (fresh-key case).
            let mut pid = self
                .descend(&mut inner, key)?
                .ok_or_else(|| corrupt("no leaf"))?;
            let (mut target_pid, mut target_idx, mut fresh_at) = (None, 0usize, None);
            'walk: loop {
                let page = self.read_page(&mut inner, pid)?;
                let (next, entries) = parse_leaf(&page)?;
                for (i, e) in entries.iter().enumerate() {
                    match e.key.cmp(key) {
                        std::cmp::Ordering::Less => {}
                        std::cmp::Ordering::Equal => {
                            target_pid = Some(pid);
                            target_idx = i;
                        }
                        std::cmp::Ordering::Greater => {
                            if target_pid.is_none() && fresh_at.is_none() {
                                fresh_at = Some((pid, i));
                            }
                            break 'walk;
                        }
                    }
                }
                if next == 0 {
                    if target_pid.is_none() && fresh_at.is_none() {
                        fresh_at = Some((pid, entries.len()));
                    }
                    break;
                }
                pid = next;
            }
            let (edit_pid, edit) = if let Some(pid) = target_pid {
                (pid, None)
            } else {
                inner.distinct += 1;
                let (pid, idx) = fresh_at.ok_or_else(|| corrupt("no insert point"))?;
                (pid, Some(idx))
            };
            // Load, modify, repack the edited leaf.
            let page = self.read_page(&mut inner, edit_pid)?;
            let (old_next, mut entries) = parse_leaf(&page)?;
            match edit {
                None => entries[target_idx].pos.extend_from_slice(new_pos),
                Some(idx) => entries.insert(idx, LeafEntry::new(key.clone(), new_pos.clone())),
            }
            let mut packer = LeafPacker::new(ps);
            for e in entries {
                packer.push(e)?;
            }
            let pages = packer.finish();
            if pages.len() == 1 {
                self.write_page(
                    &mut inner,
                    edit_pid,
                    &leaf_to_bytes(ps, old_next, &pages[0]),
                )?;
            } else {
                // First repacked page keeps the pid; the rest are new
                // leaves chained in front of the old successor.
                let rest = self.append_chain(&mut inner, &pages[1..], old_next)?;
                self.write_page(&mut inner, edit_pid, &leaf_to_bytes(ps, rest, &pages[0]))?;
                split = true;
            }
        }
        if split {
            let children = self.leaf_children(&mut inner)?;
            inner.root = self.build_internals(&mut inner, children)?;
        }
        self.write_meta(&mut inner)?;
        inner.file.sync()
    }

    /// Structural self-check: leaf chain strictly ordered by (key, chunk
    /// order), counts consistent. Returns `(entries, distinct)`.
    pub fn verify(&self) -> PopResult<(u64, u64)> {
        let mut inner = self.inner.lock();
        let mut pid = inner.first_leaf;
        let (mut entries, mut distinct) = (0u64, 0u64);
        let mut last: Option<Value> = None;
        let mut last_pos: Option<u64> = None;
        while pid != 0 {
            let page = self.read_page(&mut inner, pid)?;
            let (next, es) = parse_leaf(&page)?;
            for e in es {
                match last.as_ref().map(|l| l.cmp(&e.key)) {
                    Some(std::cmp::Ordering::Greater) => return Err(corrupt("keys out of order")),
                    Some(std::cmp::Ordering::Equal) => {}
                    _ => {
                        distinct += 1;
                        last_pos = None;
                    }
                }
                for &p in &e.pos {
                    if last_pos.is_some_and(|lp| lp >= p) {
                        return Err(corrupt("positions out of order"));
                    }
                    last_pos = Some(p);
                }
                entries += e.pos.len() as u64;
                last = Some(e.key);
            }
            pid = next;
        }
        if entries != inner.entries || distinct != inner.distinct {
            return Err(corrupt("count mismatch"));
        }
        Ok((entries, distinct))
    }

    /// Leftmost descent: the leaf where `key`'s run could start. `None`
    /// for an empty tree.
    fn descend(&self, inner: &mut BTreeInner, key: &Value) -> PopResult<Option<u64>> {
        let mut pid = inner.root;
        if pid == 0 {
            return Ok(None);
        }
        loop {
            let page = self.read_page(inner, pid)?;
            match page[0] {
                TAG_LEAF => return Ok(Some(pid)),
                TAG_INT => {
                    let (child0, keys) = parse_internal(&page)?;
                    // Child before the first separator > key... precisely:
                    // the child after the last separator strictly < key.
                    let idx = keys.partition_point(|(k, _)| k < key);
                    pid = if idx == 0 { child0 } else { keys[idx - 1].1 };
                }
                _ => return Err(corrupt("unexpected tag")),
            }
        }
    }

    /// Read page `pid` through the buffer pool.
    fn read_page(&self, inner: &mut BTreeInner, pid: u64) -> PopResult<Arc<Vec<u8>>> {
        let env = &self.env;
        let file = &inner.file;
        env.pool().get((self.file_id, pid), |buf| {
            let trunc = env.fault_short_read();
            env.io().pages_read.fetch_add(1, Ordering::Relaxed);
            file.read_page_into(pid, trunc, buf)
        })
    }

    /// Write page `pid` and drop any stale pool frame.
    fn write_page(&self, inner: &mut BTreeInner, pid: u64, bytes: &[u8]) -> PopResult<()> {
        inner.file.write_page(pid, bytes)?;
        self.env.io().pages_written.fetch_add(1, Ordering::Relaxed);
        self.env.pool().invalidate((self.file_id, pid));
        Ok(())
    }

    /// Append `pages` as a chain of fresh leaves at the end of the file,
    /// terminating at `tail_next`; returns the first new pid (or
    /// `tail_next` when `pages` is empty).
    fn append_chain(
        &self,
        inner: &mut BTreeInner,
        pages: &[Vec<LeafEntry>],
        tail_next: u64,
    ) -> PopResult<u64> {
        if pages.is_empty() {
            return Ok(tail_next);
        }
        let ps = self.env.config().page_size;
        let base = inner.file.page_count();
        for (i, entries) in pages.iter().enumerate() {
            let pid = base + i as u64;
            let next = if i + 1 < pages.len() {
                pid + 1
            } else {
                tail_next
            };
            self.write_page(inner, pid, &leaf_to_bytes(ps, next, entries))?;
        }
        Ok(base)
    }

    /// Walk the leaf chain collecting `(first key, pid)` per leaf.
    fn leaf_children(&self, inner: &mut BTreeInner) -> PopResult<Vec<(Vec<u8>, u64)>> {
        let mut children = Vec::new();
        let mut pid = inner.first_leaf;
        while pid != 0 {
            let page = self.read_page(inner, pid)?;
            let (next, entries) = parse_leaf(&page)?;
            let first = entries.first().ok_or_else(|| corrupt("empty leaf"))?;
            children.push((first.keyb.clone(), pid));
            pid = next;
        }
        Ok(children)
    }

    /// Stack internal levels over `children` bottom-up; returns the root
    /// pid (0 for an empty tree). New nodes go at the end of the file;
    /// superseded internals become dead pages (reclaimed on rebuild).
    fn build_internals(
        &self,
        inner: &mut BTreeInner,
        children: Vec<(Vec<u8>, u64)>,
    ) -> PopResult<u64> {
        let ps = self.env.config().page_size;
        let mut level = children;
        if level.is_empty() {
            return Ok(0);
        }
        while level.len() > 1 {
            let mut next_level = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let node_first = level[i].0.clone();
                let child0 = level[i].1;
                i += 1;
                let mut keys: Vec<(Vec<u8>, u64)> = Vec::new();
                let mut bytes = 0usize;
                while i < level.len() {
                    let sz = level[i].0.len() + 8;
                    if NODE_HDR + bytes + sz + 2 * (keys.len() + 1) > ps {
                        break;
                    }
                    bytes += sz;
                    keys.push(level[i].clone());
                    i += 1;
                }
                let pid = inner.file.page_count();
                self.write_page(inner, pid, &internal_to_bytes(ps, child0, &keys))?;
                next_level.push((node_first, pid));
            }
            level = next_level;
        }
        Ok(level[0].1)
    }

    /// Persist the meta page.
    fn write_meta(&self, inner: &mut BTreeInner) -> PopResult<()> {
        let ps = self.env.config().page_size;
        let mut buf = vec![0u8; ps];
        buf[0] = TAG_BMETA;
        buf[1..9].copy_from_slice(&inner.root.to_le_bytes());
        buf[9..17].copy_from_slice(&inner.first_leaf.to_le_bytes());
        buf[17..25].copy_from_slice(&inner.entries.to_le_bytes());
        buf[25..33].copy_from_slice(&inner.distinct.to_le_bytes());
        inner.file.write_page(0, &buf)?;
        self.env.pool().invalidate((self.file_id, 0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{StorageConfig, StorageEnv};

    fn env(page_size: usize) -> Arc<StorageEnv> {
        Arc::new(StorageEnv::new(StorageConfig {
            page_size,
            ..StorageConfig::paged()
        }))
    }

    fn idx_path(env: &StorageEnv, name: &str) -> PathBuf {
        env.ensure_dir().unwrap().join(format!("{name}.idx"))
    }

    fn int_map(n: i64, dup: i64) -> BTreeMap<Value, Vec<u64>> {
        // Keys 0..n, each with `dup` ascending positions.
        let mut m = BTreeMap::new();
        for k in 0..n {
            let pos = (0..dup).map(|d| (k * dup + d) as u64).collect();
            m.insert(Value::Int(k), pos);
        }
        m
    }

    #[test]
    fn bulk_build_probe_and_range() {
        let env = env(512);
        let map = int_map(500, 2);
        let t = BTree::create(Arc::clone(&env), idx_path(&env, "bulk"), &map).unwrap();
        assert_eq!(t.entry_count(), 1000);
        assert_eq!(t.distinct_keys(), 500);
        t.verify().unwrap();
        assert_eq!(t.probe(&Value::Int(123)).unwrap(), vec![246, 247]);
        assert_eq!(t.probe(&Value::Int(0)).unwrap(), vec![0, 1]);
        assert_eq!(t.probe(&Value::Int(499)).unwrap(), vec![998, 999]);
        assert!(t.probe(&Value::Int(500)).unwrap().is_empty());
        let r = t
            .range(Some(&Value::Int(10)), Some(&Value::Int(12)))
            .unwrap();
        assert_eq!(r, vec![20, 21, 22, 23, 24, 25]);
        let all = t.range(None, None).unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(all, (0..1000u64).collect::<Vec<_>>());
        let head = t.range(None, Some(&Value::Int(1))).unwrap();
        assert_eq!(head, vec![0, 1, 2, 3]);
    }

    #[test]
    fn skewed_key_spills_chunks_across_leaves() {
        let env = env(512);
        // One key with far more postings than a 512-byte page holds.
        let mut map = BTreeMap::new();
        map.insert(Value::str("hot"), (0..500u64).collect::<Vec<_>>());
        map.insert(Value::str("rare"), vec![500]);
        let t = BTree::create(Arc::clone(&env), idx_path(&env, "skew"), &map).unwrap();
        t.verify().unwrap();
        assert_eq!(t.probe(&Value::str("hot")).unwrap().len(), 500);
        assert_eq!(t.probe(&Value::str("rare")).unwrap(), vec![500]);
        assert_eq!(t.range(None, None).unwrap().len(), 501);
    }

    #[test]
    fn inserts_append_split_and_stay_ordered() {
        let env = env(512);
        let t = BTree::create(Arc::clone(&env), idx_path(&env, "ins"), &int_map(50, 1)).unwrap();
        // Existing keys get new (larger) positions; new keys interleave.
        let mut add = BTreeMap::new();
        for k in 0..50 {
            add.insert(Value::Int(k), vec![100 + k as u64]);
        }
        for k in 200..400 {
            add.insert(Value::Int(k), vec![1000 + k as u64]);
        }
        t.insert(&add).unwrap();
        t.verify().unwrap();
        assert_eq!(t.entry_count(), 50 + 50 + 200);
        assert_eq!(t.distinct_keys(), 250);
        assert_eq!(t.probe(&Value::Int(7)).unwrap(), vec![7, 107]);
        assert_eq!(t.probe(&Value::Int(300)).unwrap(), vec![1300]);
        let r = t
            .range(Some(&Value::Int(49)), Some(&Value::Int(200)))
            .unwrap();
        assert_eq!(r, vec![49, 149, 1200]);
    }

    #[test]
    fn empty_tree_then_grow() {
        let env = env(512);
        let t = BTree::create(Arc::clone(&env), idx_path(&env, "empty"), &BTreeMap::new()).unwrap();
        assert!(t.probe(&Value::Int(1)).unwrap().is_empty());
        assert!(t.range(None, None).unwrap().is_empty());
        let mut add = BTreeMap::new();
        add.insert(Value::Int(5), vec![0, 3]);
        t.insert(&add).unwrap();
        t.verify().unwrap();
        assert_eq!(t.probe(&Value::Int(5)).unwrap(), vec![0, 3]);
        assert_eq!(t.entry_count(), 2);
    }

    #[test]
    fn short_read_fault_surfaces_typed_error() {
        use pop_guard::{FaultInjector, FaultPlan};
        let env = env(512);
        let t = BTree::create(Arc::clone(&env), idx_path(&env, "fault"), &int_map(200, 1)).unwrap();
        env.pool().clear();
        env.arm_faults(FaultInjector::new(
            FaultPlan::parse_spec("shortread@0").unwrap(),
        ));
        let err = t.probe(&Value::Int(100)).unwrap_err();
        assert!(err.to_string().contains("short read"), "{err}");
        env.disarm_faults();
        // Undamaged on disk: the next probe succeeds.
        assert_eq!(t.probe(&Value::Int(100)).unwrap(), vec![100]);
    }
}
