//! Column-major data pages and the row codec.
//!
//! Both backends speak the same page geometry: the [`PageLayout`] packing
//! function decides which rows share a page, and [`MemBackend`] keeps a
//! *virtual* page map computed with exactly this function while
//! [`PagedBackend`] materializes the bytes. Page counts — and therefore
//! the optimizer's page-aware cost estimates and the runtime's page-I/O
//! work charges — are a deterministic property of table contents alone,
//! which is what keeps plans and validity ranges identical
//! across backends.
//!
//! [`MemBackend`]: crate::MemBackend
//! [`PagedBackend`]: crate::PagedBackend
//!
//! A data page is column-major (PAX): the page's rows are the ones the
//! packing rule gave it, stored one block per column, so a read decodes
//! the columns of its [`ColumnSet`] — one contiguous run per column per
//! page — and never touches the others' bytes; a point fetch computes
//! where its cell sits. [`PageView::new`] parses and validates a page
//! once per visit; [`PageView::decode_onto`] writes typed [`Column`]s the
//! reader refills in place (cursors, fetchers, index builds, ANALYZE, the
//! re-opened tail page).
//!
//! Data page layout (fixed `page_size` bytes):
//!
//! ```text
//! [0]          tag (1 = data page)
//! [1..3]       n_rows (u16 LE)
//! [3..11]      first_row (u64 LE): table position of slot 0
//! [11..13]     width w (u16 LE)
//! [13..13+w]   one kind byte per column: the values' tag (0 = every cell
//!              NULL), | 0x40 when a NULL bitmap leads the block, | 0x80
//!              for a mixed column (then it is the first value's tag)
//! [13+w..]     one block per column, back to back, then the string heap;
//!              zero padding to the end
//!
//! block:       nulls   ceil(n_rows / 8) bytes, bit set = NULL — only when
//!                      some but not all cells are NULL
//!              values  the non-NULL payloads, packed densely:
//!                      Int / Float 8 B LE, Date 4 B LE, Bool 1 B; Str: one
//!                      more u16 LE heap offset than values, value k's
//!                      bytes at heap[off[k]..off[k + 1]]
//! mixed block: the first value's payload, then a tag and a payload per
//!              further value (a Str payload: u16 LE length + bytes)
//! heap:        the string columns' bytes, column after column
//! ```
//!
//! The kind bytes sit together at the front and string bytes sit apart,
//! so the blocks of a page without NULLs or mixed columns are located
//! from its kind bytes alone: a point fetch touches the first cache line
//! and the lines of the cells it reads.
//!
//! **Size bound.** The packing rule counts the row format's page: an
//! 11-byte header, each row's encoded length (a 2-byte header, then a tag
//! and a payload per value, a string's payload a 4-byte length and its
//! bytes) and a 2-byte slot per row. A column page of the same `n ≥ 1`
//! rows is never larger. Its header is 2 bytes longer, but it drops the 4
//! bytes of row header and slot of every row. Each typed block drops the
//! `n` tags its values had and spends one kind byte plus, only when
//! `0 < NULLs < n` (so `n ≥ 2`), `⌈n/8⌉` bitmap bytes: `1 + ⌈n/8⌉ ≤ n`.
//! A NULL has no payload. A string block of `m ≥ 1` values spends
//! `2(m + 1)` offset bytes where the rows spent `4m` length bytes, and
//! `3 + ⌈n/8⌉ ≤ n + 2m` holds with or without a bitmap (an offset fits
//! a u16: a page's bytes are at most 65,536). A mixed block keeps the
//! `n` tags (the kind byte is the first) and stores a string's length in
//! 2 bytes. So [`PageLayout::fits`], `encoded_row_lens` and every page
//! count are the row format's, and [`DataPage::to_bytes`] errors rather
//! than overflow should the argument ever fail.
//!
//! The row codec stays for one use only, WAL frames: `encode_rows` writes
//! them a column at a time and replay reads them with [`decode_row_onto`].

use pop_types::column::{Cell, Column, Data};
use pop_types::{PopError, PopResult};
use std::ops::Range;

/// Header bytes of the row format's page, as the packing rule counts it.
pub const PAGE_HDR: usize = 11;
/// Header bytes of a column page.
const DATA_HDR: usize = 13;
/// Data-page tag byte.
pub const TAG_DATA: u8 = 1;
/// Kind-byte bit: a NULL bitmap follows.
const K_NULLS: u8 = 0x40;
/// Kind-byte bit: a mixed block, one tag per value.
const K_MIXED: u8 = 0x80;
/// Smallest page size the configuration accepts.
pub const MIN_PAGE_SIZE: usize = 512;
/// Largest page size the configuration accepts (string heap offsets are
/// u16).
pub const MAX_PAGE_SIZE: usize = 1 << 16;
/// Default page size.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Value tags of the row codec.
const V_NULL: u8 = 0;
const V_INT: u8 = 1;
const V_FLOAT: u8 = 2;
const V_STR: u8 = 3;
const V_DATE: u8 = 4;
const V_BOOL: u8 = 5;

/// Encoded size of one value in bytes (tag byte included).
fn cell_len(c: Cell<'_>) -> usize {
    1 + match c {
        Cell::Null => 0,
        Cell::Int(_) | Cell::Float(_) => 8,
        Cell::Str(s) => 4 + s.len(),
        Cell::Date(_) => 4,
        Cell::Bool(_) => 1,
    }
}

/// Encoded size of each of the first `rows` rows of `cols` in bytes — one
/// pass per column, a fixed-width column without NULLs in one add per row,
/// a string column without NULLs from its offsets.
pub(crate) fn encoded_row_lens(cols: &[Column], rows: usize) -> Vec<usize> {
    let mut lens = vec![2; rows];
    for col in cols {
        let fixed = match col.data() {
            _ if col.has_null_bitmap() => None,
            Data::Int(_) | Data::Float(_) => Some(9),
            Data::Date(_) => Some(5),
            Data::Bool(_) => Some(2),
            Data::Null(_) => Some(1),
            Data::Str(v) => {
                // A tag, a u32 length and the bytes.
                for (l, o) in lens.iter_mut().zip(v.offsets().windows(2)) {
                    *l += 5 + (o[1] - o[0]) as usize;
                }
                continue;
            }
            Data::Mixed(_) => None,
        };
        for (i, l) in lens.iter_mut().enumerate() {
            *l += fixed.unwrap_or_else(|| cell_len(col.cell(i)));
        }
    }
    lens
}

/// Append the encodings of the rows `rows` of `cols` to `out`, back to
/// back, given their lengths `lens` ([`encoded_row_lens`]). Written a
/// column at a time, each row's next value at its own cursor, so a typed
/// column without NULLs is matched once rather than once a value.
pub(crate) fn encode_rows(cols: &[Column], rows: Range<usize>, lens: &[usize], out: &mut Vec<u8>) {
    let base = out.len();
    out.resize(base + lens.iter().sum::<usize>(), 0);
    let buf = &mut out[base..];
    let header = (cols.len() as u16).to_le_bytes();
    let mut at = Vec::with_capacity(lens.len());
    let mut row = 0;
    for len in lens {
        buf[row..row + 2].copy_from_slice(&header);
        at.push(row + 2);
        row += len;
    }
    let mut cell = Vec::new();
    for col in cols {
        let typed = !col.has_null_bitmap();
        match col.data() {
            Data::Int(v) if typed => put(
                buf,
                &mut at,
                V_INT,
                v[rows.clone()].iter().map(|x| x.to_le_bytes()),
            ),
            Data::Float(v) if typed => put(
                buf,
                &mut at,
                V_FLOAT,
                v[rows.clone()].iter().map(|x| x.to_bits().to_le_bytes()),
            ),
            Data::Date(v) if typed => put(
                buf,
                &mut at,
                V_DATE,
                v[rows.clone()].iter().map(|x| x.to_le_bytes()),
            ),
            Data::Str(v) if typed => {
                for (a, i) in at.iter_mut().zip(rows.clone()) {
                    let s = v.get(i).as_bytes();
                    buf[*a] = V_STR;
                    buf[*a + 1..*a + 5].copy_from_slice(&(s.len() as u32).to_le_bytes());
                    buf[*a + 5..*a + 5 + s.len()].copy_from_slice(s);
                    *a += 5 + s.len();
                }
            }
            _ => {
                for (a, i) in at.iter_mut().zip(rows.clone()) {
                    cell.clear();
                    encode_cell(col.cell(i), &mut cell);
                    buf[*a..*a + cell.len()].copy_from_slice(&cell);
                    *a += cell.len();
                }
            }
        }
    }
}

/// Write `tag` and then each fixed-width value at its row's cursor.
fn put<const N: usize>(
    buf: &mut [u8],
    at: &mut [usize],
    tag: u8,
    values: impl Iterator<Item = [u8; N]>,
) {
    for (a, bytes) in at.iter_mut().zip(values) {
        buf[*a] = tag;
        buf[*a + 1..*a + 1 + N].copy_from_slice(&bytes);
        *a += 1 + N;
    }
}

/// The column page of the rows `rows` of `cols`, slot 0 at table position
/// `first_row`, as exactly `page_size` bytes. The rows' column page is
/// never larger than their row-format bytes, which the packing rule held
/// to the page; the error is the guard on that argument.
pub(crate) fn page_bytes(
    first_row: u64,
    cols: &[Column],
    rows: Range<usize>,
    page_size: usize,
) -> PopResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(page_size);
    encode_page(first_row, cols, rows.clone(), &mut buf);
    if buf.len() > page_size {
        return Err(PopError::Execution(format!(
            "page codec: {} rows encode to {} bytes, over the {page_size}-byte page",
            rows.len(),
            buf.len()
        )));
    }
    buf.resize(page_size, 0);
    Ok(buf)
}

/// Append the column page of the rows `rows` of `cols`, without its
/// padding, to `out`: header, kind bytes, one block per column, the string
/// heap.
fn encode_page(first_row: u64, cols: &[Column], rows: Range<usize>, out: &mut Vec<u8>) {
    let base = out.len();
    out.push(TAG_DATA);
    out.extend_from_slice(&(rows.len() as u16).to_le_bytes());
    out.extend_from_slice(&first_row.to_le_bytes());
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    out.resize(base + DATA_HDR + cols.len(), 0);
    let mut heap = Vec::new();
    for (c, col) in cols.iter().enumerate() {
        out[base + DATA_HDR + c] = encode_block(col, rows.clone(), out, &mut heap);
    }
    out.extend_from_slice(&heap);
}

/// The tag of one value (the row codec's, and a column page's kinds).
fn tag_of(c: Cell<'_>) -> u8 {
    match c {
        Cell::Null => V_NULL,
        Cell::Int(_) => V_INT,
        Cell::Float(_) => V_FLOAT,
        Cell::Str(_) => V_STR,
        Cell::Date(_) => V_DATE,
        Cell::Bool(_) => V_BOOL,
    }
}

/// Append the payload of a value: its little-endian bytes, a string's
/// bytes (its length or heap offset is written apart), nothing for a NULL.
fn encode_payload(c: Cell<'_>, out: &mut Vec<u8>) {
    match c {
        Cell::Null => {}
        Cell::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
        Cell::Float(x) => out.extend_from_slice(&x.to_bits().to_le_bytes()),
        Cell::Str(s) => out.extend_from_slice(s.as_bytes()),
        Cell::Date(d) => out.extend_from_slice(&d.to_le_bytes()),
        Cell::Bool(b) => out.push(u8::from(b)),
    }
}

/// Append the encoding of one value to `out`: its tag, a string's u32
/// length, its payload.
fn encode_cell(c: Cell<'_>, out: &mut Vec<u8>) {
    out.push(tag_of(c));
    if let Cell::Str(s) = c {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    }
    encode_payload(c, out);
}

fn short(what: &str) -> PopError {
    PopError::Execution(format!("page codec: truncated {what}"))
}

fn take<'a>(buf: &'a [u8], at: &mut usize, n: usize, what: &str) -> PopResult<&'a [u8]> {
    let end = at.checked_add(n).ok_or_else(|| short(what))?;
    let s = buf.get(*at..end).ok_or_else(|| short(what))?;
    *at = end;
    Ok(s)
}

/// The first `N` bytes of `b`, which the caller has sized.
fn le<const N: usize>(b: &[u8]) -> [u8; N] {
    b[..N].try_into().expect("caller took at least N bytes")
}

/// The table columns a reader wants decoded.
///
/// The read-set contract of every read path: a reader sees table-width
/// columns, so predicates and projections stay bound against the table
/// schema, but only the columns in the set are filled — *columns outside
/// the projection are unspecified (empty on paged, the stored values on
/// mem) and must not be read*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSet {
    /// `None` = every column; otherwise `mask[c]` for columns below its
    /// length, nothing above it.
    mask: Option<Vec<bool>>,
}

impl ColumnSet {
    /// Every column.
    pub fn all() -> Self {
        ColumnSet { mask: None }
    }

    /// Exactly the columns `cols` (duplicates and order are irrelevant).
    pub fn of(cols: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = Vec::new();
        for c in cols {
            if c >= mask.len() {
                mask.resize(c + 1, false);
            }
            mask[c] = true;
        }
        ColumnSet { mask: Some(mask) }
    }

    /// Is column `col` in the set?
    pub fn contains(&self, col: usize) -> bool {
        match &self.mask {
            None => true,
            Some(m) => m.get(col).copied().unwrap_or(false),
        }
    }

    /// Start a refill of every column of `out` in the set (see
    /// [`Column::begin_refill`]): decoding into reused scratch.
    pub(crate) fn begin_refill_in(&self, out: &mut [Column]) {
        for (c, col) in out.iter_mut().enumerate() {
            if self.contains(c) {
                col.begin_refill();
            }
        }
    }

    /// End the refill of every column of `out` in the set at `rows` rows.
    pub(crate) fn end_refill_in(&self, out: &mut [Column], rows: usize) {
        for (c, col) in out.iter_mut().enumerate() {
            if self.contains(c) {
                col.truncate(rows);
            }
        }
    }
}

/// Decode the row encoded at `data[at..]` (a WAL frame's) into `out` as
/// row `row` of a refill (see [`Column::begin_refill`]; rows `0..row` are this refill's):
/// every column in `cols` gets the row's value written (NULL where the
/// stored row is narrower), every other column is stepped over by its
/// tag's length without being touched. `out` grows to the stored row's
/// width; a column it gains that is in `cols` first gets `row` NULLs.
/// `cap` sizes a vector a value creates. Returns the offset one past the
/// row.
pub fn decode_row_onto(
    data: &[u8],
    mut at: usize,
    cols: &ColumnSet,
    out: &mut Vec<Column>,
    row: usize,
    cap: usize,
) -> PopResult<usize> {
    let n = decode_row_header(data, &mut at)?;
    if out.len() < n {
        let from = out.len();
        out.resize_with(n, Column::default);
        for (c, col) in out.iter_mut().enumerate().skip(from) {
            if cols.contains(c) {
                (0..row).for_each(|i| col.put_null(i));
            }
        }
    }
    let (stored, past) = out.split_at_mut(n);
    for (c, col) in past.iter_mut().enumerate() {
        if cols.contains(n + c) {
            col.put_null(row);
        }
    }
    for (c, col) in stored.iter_mut().enumerate() {
        let want = cols.contains(c);
        match take(data, &mut at, 1, "value tag")?[0] {
            V_NULL => {
                if want {
                    col.put_null(row);
                }
            }
            V_INT => {
                let x = i64::from_le_bytes(le(take(data, &mut at, 8, "int/float")?));
                if want {
                    col.put_int(row, x, cap);
                }
            }
            V_FLOAT => {
                let b = u64::from_le_bytes(le(take(data, &mut at, 8, "int/float")?));
                if want {
                    col.put_float(row, f64::from_bits(b), cap);
                }
            }
            V_STR => {
                let len = u32::from_le_bytes(le(take(data, &mut at, 4, "str len")?));
                let bytes = take(data, &mut at, len as usize, "str bytes")?;
                if want {
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| PopError::Execution("page codec: invalid utf8".into()))?;
                    col.put_str(row, s, cap);
                }
            }
            V_DATE => {
                let x = i32::from_le_bytes(le(take(data, &mut at, 4, "date")?));
                if want {
                    col.put_date(row, x, cap);
                }
            }
            V_BOOL => {
                let b = take(data, &mut at, 1, "bool")?[0];
                if want {
                    col.put_bool(row, b != 0, cap);
                }
            }
            t => {
                return Err(PopError::Execution(format!(
                    "page codec: unknown value tag {t}"
                )))
            }
        }
    }
    Ok(at)
}

/// Read the value count of the row encoded at `data[*at..]`, advancing past
/// the header.
fn decode_row_header(data: &[u8], at: &mut usize) -> PopResult<usize> {
    Ok(usize::from(u16::from_le_bytes(le(take(
        data,
        at,
        2,
        "row header",
    )?))))
}

/// The deterministic greedy packing rule both backends share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    /// Page size in bytes.
    pub page_size: usize,
}

impl Default for PageLayout {
    fn default() -> Self {
        PageLayout {
            page_size: DEFAULT_PAGE_SIZE,
        }
    }
}

impl PageLayout {
    /// Layout for `page_size`-byte pages.
    pub fn new(page_size: usize) -> Self {
        PageLayout { page_size }
    }

    /// Can a page already holding `slots` rows and `data_bytes` of encoded
    /// rows accept another row of `row_len` encoded bytes? The rule counts
    /// the row format's page: its `PAGE_HDR`-byte header, the encoded rows and a 2-byte
    /// slot per row (a column page of the same rows is never larger; see
    /// the module docs). The first row of an empty page always "fits" —
    /// oversized rows are rejected at append time instead, so both
    /// backends agree on the page map.
    pub fn fits(&self, slots: usize, data_bytes: usize, row_len: usize) -> bool {
        if slots == 0 {
            return true;
        }
        PAGE_HDR + data_bytes + row_len + 2 * (slots + 1) <= self.page_size
    }

    /// Does a single row of `row_len` encoded bytes fit a page at all?
    /// The error says it does not.
    pub fn check_row(&self, row_len: usize) -> PopResult<()> {
        if PAGE_HDR + row_len + 2 <= self.page_size {
            return Ok(());
        }
        Err(PopError::Execution(format!(
            "row of {row_len} encoded bytes exceeds the {}-byte page size",
            self.page_size
        )))
    }
}

/// The page being packed under the shared rule: its rows and their
/// encoded bytes. The mem backend's virtual page map and the paged
/// backend's real pages both come from it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PageFill {
    rows: usize,
    bytes: usize,
}

impl PageFill {
    /// Pack the next row, of `len` encoded bytes; true when it starts a
    /// page (the first row does, and so does a row the page cannot take).
    pub(crate) fn push(&mut self, layout: PageLayout, len: usize) -> bool {
        let starts = self.rows == 0 || !layout.fits(self.rows, self.bytes, len);
        if starts {
            *self = PageFill::default();
        }
        self.rows += 1;
        self.bytes += len;
        starts
    }
}

/// The rows of one data page, as columns: the tail page being filled (or
/// re-opened), encoded into a column page each time it is written.
#[derive(Debug, Clone, Default)]
pub struct DataPage {
    first_row: u64,
    /// One column per table column, `rows` long.
    cols: Vec<Column>,
    rows: usize,
}

impl DataPage {
    /// An empty page whose slot 0 will hold table position `first_row`.
    pub fn new(first_row: u64) -> Self {
        DataPage {
            first_row,
            ..DataPage::default()
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append the rows `range` of the batch `cols` (one column per table
    /// column); the packing rule decided they share this page.
    pub fn extend(&mut self, cols: &[Column], range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        if self.cols.len() < cols.len() {
            self.cols.resize_with(cols.len(), Column::default);
        }
        for (page, batch) in self.cols.iter_mut().zip(cols) {
            page.extend_gather(batch, range.clone(), range.len());
        }
        self.rows += range.len();
    }

    /// The page fill the rows make under `layout` (a re-opened tail page
    /// resumes packing from it).
    pub(crate) fn fill(&self, layout: PageLayout) -> PageFill {
        let mut fill = PageFill::default();
        for len in encoded_row_lens(&self.cols, self.rows) {
            fill.push(layout, len);
        }
        fill
    }

    /// Serialize to exactly `page_size` bytes (see [`page_bytes`]).
    pub fn to_bytes(&self, page_size: usize) -> PopResult<Vec<u8>> {
        page_bytes(self.first_row, &self.cols, 0..self.rows, page_size)
    }

    /// Rebuild a page from the first `keep` rows of a serialized one
    /// (re-opening the tail page for further appends; `keep` below its row
    /// count drops rows past a mid-page checkpoint). Every kept cell is
    /// decoded, so a torn page is an error here rather than at the first
    /// read.
    pub fn from_page(page: &PageView<'_>, keep: usize) -> PopResult<Self> {
        let mut cols = Vec::new();
        page.decode_onto(0..keep, &ColumnSet::all(), &mut cols, 0, keep)?;
        Ok(DataPage {
            first_row: page.first_row(),
            cols,
            rows: keep,
        })
    }
}

/// Append the block of the rows `rows` of `col` to `out` and its strings
/// to `heap` (see the module docs); returns its kind byte.
fn encode_block(col: &Column, rows: Range<usize>, out: &mut Vec<u8>, heap: &mut Vec<u8>) -> u8 {
    let n = rows.len();
    let typed = match col.data() {
        _ if col.has_null_bitmap() => None,
        Data::Int(_) => Some(V_INT),
        Data::Float(_) => Some(V_FLOAT),
        Data::Date(_) => Some(V_DATE),
        Data::Bool(_) => Some(V_BOOL),
        Data::Str(_) => Some(V_STR),
        Data::Null(_) | Data::Mixed(_) => None,
    };
    let (mut tag, mut mixed, mut nulls) = (typed.unwrap_or(V_NULL), false, 0);
    if typed.is_none() {
        for i in rows.clone() {
            match tag_of(col.cell(i)) {
                V_NULL => nulls += 1,
                t if tag == V_NULL => tag = t,
                t => mixed |= t != tag,
            }
        }
    }
    if mixed {
        // One tag per value, the first one in the kind byte; a string is
        // its u16 length and its bytes.
        for i in rows.clone() {
            let c = col.cell(i);
            if i > rows.start {
                out.push(tag_of(c));
            }
            if let Cell::Str(s) = c {
                out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            }
            encode_payload(c, out);
        }
        return tag_of(col.cell(rows.start)) | K_MIXED;
    }
    let bitmap = nulls > 0 && nulls < n;
    if bitmap {
        let at = out.len();
        out.resize(at + n.div_ceil(8), 0);
        for (k, i) in rows.clone().enumerate() {
            if col.is_null(i) {
                out[at + k / 8] |= 1 << (k % 8);
            }
        }
    }
    match col.data() {
        Data::Int(v) if nulls == 0 => v[rows].iter().for_each(|x| out.extend(x.to_le_bytes())),
        Data::Float(v) if nulls == 0 => v[rows]
            .iter()
            .for_each(|x| out.extend(x.to_bits().to_le_bytes())),
        Data::Date(v) if nulls == 0 => v[rows].iter().for_each(|x| out.extend(x.to_le_bytes())),
        Data::Str(v) if nulls == 0 => {
            // The rows' bytes are one run of the vector: one copy, and
            // their offsets rebased onto the heap.
            let offsets = &v.offsets()[rows.start..=rows.end];
            let (from, to, base) = (offsets[0] as usize, offsets[n] as usize, heap.len());
            for o in offsets {
                out.extend_from_slice(&((base + *o as usize - from) as u16).to_le_bytes());
            }
            heap.extend_from_slice(&v.as_str().as_bytes()[from..to]);
        }
        _ if tag == V_STR => {
            out.extend_from_slice(&(heap.len() as u16).to_le_bytes());
            for i in rows {
                if let Cell::Str(s) = col.cell(i) {
                    heap.extend_from_slice(s.as_bytes());
                    out.extend_from_slice(&(heap.len() as u16).to_le_bytes());
                }
            }
        }
        _ => rows.for_each(|i| encode_payload(col.cell(i), out)),
    }
    if bitmap {
        tag | K_NULLS
    } else {
        tag
    }
}

/// Payload bytes of a value of `tag` in a block (none for a NULL; a
/// string's vary).
fn fixed_len(tag: u8) -> usize {
    match tag {
        V_INT | V_FLOAT => 8,
        V_DATE => 4,
        V_BOOL => 1,
        _ => 0,
    }
}

/// Set bits among the first `n` bits of the bitmap `bits`.
fn rank(bits: &[u8], n: usize) -> usize {
    let full: usize = bits[..n / 8].iter().map(|b| b.count_ones() as usize).sum();
    full + (bits[n / 8..]
        .first()
        .map_or(0, |b| (b & ((1 << (n % 8)) - 1)).count_ones()) as usize)
}

/// Is bit `i` of the bitmap `bits` set?
#[inline]
fn bit(bits: &[u8], i: usize) -> bool {
    (bits[i / 8] >> (i % 8)) & 1 == 1
}

/// One column block of a parsed page.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// The values' tag (`V_NULL`: every cell is NULL); a mixed block's
    /// first value's.
    tag: u8,
    /// One tag per value.
    mixed: bool,
    /// Offset of the NULL bitmap, when the block has one.
    nulls: Option<usize>,
    /// Offset of the values: the packed payloads, a string block's heap
    /// offsets, a mixed block's first payload.
    at: usize,
}

fn corrupt(what: impl std::fmt::Display) -> PopError {
    PopError::Execution(format!("page codec: {what}"))
}

/// Step over the payload of a value of tag `tag` at `data[*at..]`,
/// returning it (a string's bytes, after their u16 length).
fn mixed_payload<'a>(data: &'a [u8], at: &mut usize, tag: u8) -> PopResult<&'a [u8]> {
    let len = match tag {
        V_STR => usize::from(u16::from_le_bytes(le(take(data, at, 2, "str len")?))),
        t if t > V_BOOL => return Err(corrupt(format!("unknown value tag {t}"))),
        t => fixed_len(t),
    };
    take(data, at, len, "value")
}

/// Bytes of a typed block of `values` non-NULL values of `tag`, bitmap
/// aside (`None` for a kind that is not a value tag).
fn typed_size(tag: u8, values: usize) -> Option<usize> {
    match tag {
        V_STR => Some(2 * (values + 1)),
        t if t > V_BOOL => None,
        t => Some(fixed_len(t) * values),
    }
}

impl Block {
    /// Parse the block of kind `kind` at `data[*at..]` of a page of `n`
    /// rows, advancing past it: every offset a decode will use is checked
    /// here, but for a string's heap offsets, checked as they are read. A
    /// typed block without NULLs is sized from its kind alone.
    fn parse(data: &[u8], kind: u8, at: &mut usize, n: usize) -> PopResult<Block> {
        if kind & K_MIXED != 0 {
            let b = Block {
                tag: kind & !K_MIXED,
                mixed: true,
                nulls: None,
                at: *at,
            };
            *at = b.walk(data, n, |_, _, _| Ok(()))?;
            return Ok(b);
        }
        let tag = kind & !K_NULLS;
        let (mut values, mut nulls) = (if tag == V_NULL { 0 } else { n }, None);
        if kind & K_NULLS != 0 {
            if tag == V_NULL {
                return Err(corrupt("NULL bitmap on an all-NULL column"));
            }
            let bits = take(data, at, n.div_ceil(8), "null bitmap")?;
            values = n - rank(bits, n);
            nulls = Some(*at - bits.len());
        }
        let size =
            typed_size(tag, values).ok_or_else(|| corrupt(format!("unknown column kind {tag}")))?;
        let block = Block {
            tag,
            mixed: false,
            nulls,
            at: *at,
        };
        *at += size;
        if *at > data.len() {
            return Err(short("column values"));
        }
        Ok(block)
    }

    /// Walk the first `n` values of a mixed block, calling `f(slot, tag,
    /// payload)` for each; returns the offset past the last.
    fn walk(
        &self,
        data: &[u8],
        n: usize,
        mut f: impl FnMut(usize, u8, &[u8]) -> PopResult<()>,
    ) -> PopResult<usize> {
        let mut at = self.at;
        for s in 0..n {
            let tag = match s {
                0 => self.tag,
                _ => take(data, &mut at, 1, "value tag")?[0],
            };
            f(s, tag, mixed_payload(data, &mut at, tag)?)?;
        }
        Ok(at)
    }
}

/// A serialized data page, parsed once: [`PageView::new`] validates the
/// tag, the header and every column block, so the decode that follows
/// reads each projected column's values at offsets already checked (a
/// string's heap offsets are checked as they are read).
#[derive(Debug, Clone)]
pub struct PageView<'a> {
    bytes: &'a [u8],
    n_rows: usize,
    first_row: u64,
    blocks: Vec<Block>,
    /// Offset of the string heap.
    heap: usize,
}

impl<'a> PageView<'a> {
    /// Parse `bytes` as a data page. Errors (typed, never a panic) when the
    /// page is not a data page, or a column block is unknown or does not
    /// fit the page.
    pub fn new(bytes: &'a [u8]) -> PopResult<Self> {
        if bytes.len() < DATA_HDR || bytes[0] != TAG_DATA {
            return Err(PopError::Execution("not a data page".into()));
        }
        let n_rows = usize::from(u16::from_le_bytes(le(&bytes[1..])));
        let first_row = u64::from_le_bytes(le(&bytes[3..]));
        let width = usize::from(u16::from_le_bytes(le(&bytes[11..])));
        let kinds = bytes
            .get(DATA_HDR..DATA_HDR + width)
            .ok_or_else(|| short("column kinds"))?;
        let (mut at, mut blocks) = (DATA_HDR + width, Vec::with_capacity(width));
        for (c, &kind) in kinds.iter().enumerate() {
            match Block::parse(bytes, kind, &mut at, n_rows) {
                Ok(b) => blocks.push(b),
                Err(PopError::Execution(m)) => {
                    return Err(PopError::Execution(format!("{m} (column {c})")))
                }
                Err(e) => return Err(e),
            }
        }
        Ok(PageView {
            bytes,
            n_rows,
            first_row,
            blocks,
            heap: at,
        })
    }

    /// Rows on the page.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the page holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Table position of slot 0.
    pub fn first_row(&self) -> u64 {
        self.first_row
    }

    /// Columns on the page (the table's width).
    pub fn width(&self) -> usize {
        self.blocks.len()
    }

    /// Decode the columns `cols` of the rows in `slots` into `out` as rows
    /// `row..` of a refill (see [`Column::begin_refill`]; rows `0..row` are
    /// this refill's): each column in the set reads its own block only,
    /// and every other column is left as it was. `out` grows to the page's
    /// width, a column it gains that is in `cols` first getting `row`
    /// NULLs; a column of `out` past the width reads NULL. `cap` sizes a
    /// vector a value creates.
    pub fn decode_onto(
        &self,
        slots: Range<usize>,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
        row: usize,
        cap: usize,
    ) -> PopResult<()> {
        if slots.start > slots.end || slots.end > self.n_rows {
            return Err(PopError::Execution(format!(
                "slots {slots:?} out of range ({} rows)",
                self.n_rows
            )));
        }
        if out.len() < self.blocks.len() {
            let from = out.len();
            out.resize_with(self.blocks.len(), Column::default);
            for (c, col) in out.iter_mut().enumerate().skip(from) {
                if cols.contains(c) {
                    (0..row).for_each(|i| col.put_null(i));
                }
            }
        }
        for (c, col) in out.iter_mut().enumerate() {
            if !cols.contains(c) {
                continue;
            }
            match self.blocks.get(c) {
                Some(b) => self.decode_block(b, slots.clone(), col, row, cap)?,
                None => (row..row + slots.len()).for_each(|i| col.put_null(i)),
            }
        }
        Ok(())
    }

    /// Decode the rows `slots` of one block into `col` at rows `row..`.
    fn decode_block(
        &self,
        b: &Block,
        slots: Range<usize>,
        col: &mut Column,
        row: usize,
        cap: usize,
    ) -> PopResult<()> {
        let data = self.bytes;
        if b.mixed {
            b.walk(data, slots.end, |s, tag, v| {
                if s < slots.start {
                    return Ok(());
                }
                put_cell(col, row + s - slots.start, tag, v, cap)
            })?;
            return Ok(());
        }
        let rows = row..row + slots.len();
        match (b.tag, b.nulls) {
            (V_NULL, _) => rows.for_each(|i| col.put_null(i)),
            (V_INT, None) => {
                let run = fixed::<8>(data, b, slots).map(i64::from_le_bytes);
                col.put_ints(row, run, cap);
            }
            (V_FLOAT, None) => {
                let run = fixed::<8>(data, b, slots).map(|v| f64::from_bits(u64::from_le_bytes(v)));
                col.put_floats(row, run, cap);
            }
            (V_DATE, None) => {
                let run = fixed::<4>(data, b, slots).map(i32::from_le_bytes);
                col.put_dates(row, run, cap);
            }
            (V_BOOL, None) => {
                let run = fixed::<1>(data, b, slots).map(|v| v[0] != 0);
                col.put_bools(row, run, cap);
            }
            (V_STR, None) => {
                if !self.put_str_run(b, slots.clone(), col, row, cap) {
                    // A corrupt run: the value-at-a-time decode names the
                    // string at fault.
                    self.decode_values(b, slots, col, row, cap)?;
                }
            }
            _ => self.decode_values(b, slots, col, row, cap)?,
        }
        Ok(())
    }

    /// Write the strings of the slots `slots` of the string block `b`
    /// (no NULLs) as rows `row..`: one UTF-8 check and one copy of their
    /// heap run, each offset rebased onto the column's buffer. False, with
    /// the rows from `row` on stale, when the run does not lie in the page,
    /// is not UTF-8, or an offset falls before the one before it or inside
    /// a character.
    fn put_str_run(
        &self,
        b: &Block,
        slots: Range<usize>,
        col: &mut Column,
        row: usize,
        cap: usize,
    ) -> bool {
        let data = self.bytes;
        let off = |k: usize| usize::from(u16::from_le_bytes(le(&data[b.at + 2 * k..])));
        let (start, end) = (off(slots.start), off(slots.end));
        let Some(run) = data
            .get(self.heap + start..self.heap + end)
            .and_then(|run| std::str::from_utf8(run).ok())
        else {
            return false;
        };
        let ends = slots.map(|k| off(k + 1).wrapping_sub(start));
        col.put_str_run(row, run, ends, cap).is_ok()
    }

    /// Decode the rows `slots` of a block with NULLs (or a string block) a
    /// value at a time: value `k` is the slot's rank among the non-NULL
    /// cells.
    fn decode_values(
        &self,
        b: &Block,
        slots: Range<usize>,
        col: &mut Column,
        row: usize,
        cap: usize,
    ) -> PopResult<()> {
        let bits = b.nulls.map(|at| &self.bytes[at..]);
        let mut k = slots.start - bits.map_or(0, |bits| rank(bits, slots.start));
        for (i, s) in (row..).zip(slots) {
            if bits.is_some_and(|bits| bit(bits, s)) {
                col.put_null(i);
                continue;
            }
            self.put_value(b, k, col, i, cap)?;
            k += 1;
        }
        Ok(())
    }

    /// Write the non-NULL value `k` of the typed block `b` as row `i`.
    fn put_value(
        &self,
        b: &Block,
        k: usize,
        col: &mut Column,
        i: usize,
        cap: usize,
    ) -> PopResult<()> {
        let data = self.bytes;
        if b.tag != V_STR {
            let size = fixed_len(b.tag);
            return put_cell(col, i, b.tag, &data[b.at + size * k..][..size], cap);
        }
        let off = |k: usize| self.heap + usize::from(u16::from_le_bytes(le(&data[b.at + 2 * k..])));
        let (start, end) = (off(k), off(k + 1));
        let v = data.get(start..end).ok_or_else(|| {
            corrupt(format!(
                "string {k} at {start}..{end} does not lie in the page"
            ))
        })?;
        put_cell(col, i, V_STR, v, cap)
    }
}

/// The `N` value bytes of each slot of `slots` of a fixed-width block
/// without NULLs, read as one run.
#[inline]
fn fixed<'a, const N: usize>(
    data: &'a [u8],
    b: &Block,
    slots: Range<usize>,
) -> impl ExactSizeIterator<Item = [u8; N]> + 'a {
    data[b.at + N * slots.start..b.at + N * slots.end]
        .chunks_exact(N)
        .map(le)
}

/// Write the value of tag `tag` and payload `v` (a string's bytes) as row
/// `i` of a refill of `col`.
fn put_cell(col: &mut Column, i: usize, tag: u8, v: &[u8], cap: usize) -> PopResult<()> {
    match tag {
        V_NULL => col.put_null(i),
        V_INT => col.put_int(i, i64::from_le_bytes(le(v)), cap),
        V_FLOAT => col.put_float(i, f64::from_bits(u64::from_le_bytes(le(v))), cap),
        V_DATE => col.put_date(i, i32::from_le_bytes(le(v)), cap),
        V_BOOL => col.put_bool(i, v[0] != 0, cap),
        _ => {
            let s = std::str::from_utf8(v).map_err(|_| corrupt("invalid utf8"))?;
            col.put_str(i, s, cap);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use pop_types::{Row, Value};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn sample_row() -> Row {
        vec![
            Value::Int(42),
            Value::str("hello"),
            Value::Float(1.5),
            Value::Date(7300),
            Value::Bool(true),
            Value::Null,
        ]
    }

    /// The encoded length of `row`.
    fn len_of(row: &Row) -> usize {
        encoded_row_lens(&columns_of(std::slice::from_ref(row)), 1)[0]
    }

    /// The encoding of `row`.
    fn encoded(row: &Row) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_rows(
            &columns_of(std::slice::from_ref(row)),
            0..1,
            &[len_of(row)],
            &mut buf,
        );
        buf
    }

    fn decode_all(buf: &[u8]) -> PopResult<(Row, usize)> {
        let mut out = Vec::new();
        let end = decode_row_onto(buf, 0, &ColumnSet::all(), &mut out, 0, 1)?;
        Ok((out.iter().map(|c| c.value(0)).collect(), end))
    }

    #[test]
    fn row_round_trip() {
        let row = sample_row();
        let buf = encoded(&row);
        assert_eq!(buf.len(), len_of(&row));
        assert_eq!(decode_all(&buf).unwrap(), (row, buf.len()));
        // Column-wise lengths over NULL bitmaps, a mixed column and an
        // all-NULL one are each row's encoded length.
        let rows = [
            vec![Value::Int(1), Value::Int(2), Value::Null, Value::Null],
            vec![Value::Null, Value::Float(0.5), Value::str("a"), Value::Null],
            vec![Value::Int(3), Value::str("xyz"), Value::Null, Value::Null],
        ];
        let cols = columns_of(&rows);
        let lens: Vec<usize> = (0..3).map(|i| encoded(&rows[i]).len()).collect();
        assert_eq!(encoded_row_lens(&cols, 3), lens);
        // A row without values is its header.
        let empty = encoded(&Vec::new());
        assert_eq!(decode_all(&empty).unwrap(), (Vec::new(), 2));
    }

    #[test]
    fn truncated_row_errors() {
        let mut buf = encoded(&sample_row());
        buf.truncate(buf.len() - 1);
        assert!(decode_all(&buf).is_err());
    }

    #[test]
    fn projection_writes_only_the_wanted_slots() {
        let mut buf = encoded(&sample_row());
        // Scratch that is too narrow and holds stale values.
        let mut out = columns_of(&[vec![Value::str("stale"), Value::Int(-1)]]);
        let cols = ColumnSet::of([0, 3, 9]);
        cols.begin_refill_in(&mut out);
        let end = decode_row_onto(&buf, 0, &cols, &mut out, 0, 1).unwrap();
        cols.end_refill_in(&mut out, 1);
        assert_eq!(end, buf.len(), "skipped columns are still stepped over");
        assert_eq!(out.len(), 6, "the scratch grows to the stored width");
        assert_eq!(
            (out[0].value(0), out[3].value(0)),
            (Value::Int(42), Value::Date(7300))
        );
        assert_eq!(
            out[1].value(0),
            Value::Int(-1),
            "column 1 is outside the set: untouched"
        );
        assert!(
            out[2].is_empty(),
            "a new column outside the set stays empty"
        );
        // Invalid UTF-8 in a string nobody reads is not an error; in one
        // somebody reads, it is.
        let at = buf.windows(5).position(|w| w == b"hello").unwrap();
        buf[at] = 0xFF;
        assert!(decode_row_onto(&buf, 0, &ColumnSet::of([0]), &mut out, 0, 1).is_ok());
        assert!(decode_row_onto(&buf, 0, &ColumnSet::of([1]), &mut out, 0, 1).is_err());
    }

    /// The row `[n, "row-n"]`.
    fn numbered(n: usize) -> Row {
        vec![Value::Int(n as i64), Value::str(format!("row-{n}"))]
    }

    /// The page the packing rule fills with [`numbered`] rows from 0, and
    /// its row count.
    fn filled_page(layout: PageLayout, first_row: u64) -> (Vec<u8>, usize) {
        let mut fill = PageFill::default();
        fill.push(layout, len_of(&numbered(0)));
        let mut n = 1;
        while !fill.push(layout, len_of(&numbered(n))) {
            n += 1;
        }
        let rows: Vec<Row> = (0..n).map(numbered).collect();
        let mut page = DataPage::new(first_row);
        page.extend(&columns_of(&rows), 0..n);
        (page.to_bytes(layout.page_size).unwrap(), n)
    }

    #[test]
    fn page_round_trip_and_slots() {
        let layout = PageLayout::new(512);
        let (bytes, n) = filled_page(layout, 100);
        assert!(n > 2, "512-byte page should hold a few rows, held {n}");
        assert_eq!(bytes.len(), 512);
        let page = PageView::new(&bytes).unwrap();
        assert_eq!((page.len(), page.first_row(), page.width()), (n, 100, 2));
        // One slot at a time, one column.
        let mut out = Vec::new();
        for i in 0..n {
            page.decode_onto(i..i + 1, &ColumnSet::of([0]), &mut out, i, n)
                .unwrap();
        }
        assert_eq!(out[0].len(), n);
        assert!(out[1].is_empty(), "column 1 is outside the set");
        assert!((0..n).all(|i| out[0].value(i) == Value::Int(i as i64)));
        // A run of slots, every column.
        let mut all = Vec::new();
        page.decode_onto(1..n, &ColumnSet::all(), &mut all, 0, n)
            .unwrap();
        let rows: Vec<Row> = (0..n - 1)
            .map(|i| all.iter().map(|c| c.value(i)).collect())
            .collect();
        assert_eq!(rows, (1..n).map(numbered).collect::<Vec<_>>());
        #[allow(clippy::reversed_empty_ranges)]
        for bad in [n - 1..n + 1, 2..1] {
            assert!(page
                .decode_onto(bad, &ColumnSet::all(), &mut out, 0, 0)
                .is_err());
        }
        let reparsed = DataPage::from_page(&page, n).unwrap();
        assert_eq!(reparsed.to_bytes(512).unwrap(), bytes);
        // A mid-page checkpoint keeps the prefix only.
        let prefix = DataPage::from_page(&page, 2)
            .unwrap()
            .to_bytes(512)
            .unwrap();
        let prefix = PageView::new(&prefix).unwrap();
        assert_eq!((prefix.len(), prefix.first_row()), (2, 100));
        let mut out = Vec::new();
        prefix
            .decode_onto(1..2, &ColumnSet::all(), &mut out, 0, 1)
            .unwrap();
        assert_eq!(
            (out[0].value(0), out[1].value(0)),
            (Value::Int(1), Value::str("row-1"))
        );
    }

    #[test]
    fn corrupt_column_page_is_a_typed_error() {
        let (bytes, n) = filled_page(PageLayout::new(512), 0);
        let err = |bad: &[u8]| PageView::new(bad).unwrap_err().to_string();
        assert!(err(&bytes[..DATA_HDR - 1]).contains("not a data page"));
        // More rows than the page has values for.
        let mut bad = bytes.clone();
        bad[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(
            err(&bad).contains("truncated column values (column 0)"),
            "{}",
            err(&bad)
        );
        // More columns than blocks: the padding reads as all-NULL blocks
        // until the page ends.
        let mut bad = bytes.clone();
        bad[11..13].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(err(&bad).contains("truncated column kind"), "{}", err(&bad));
        // An unknown kind, and a NULL bitmap on an all-NULL column.
        let mut bad = bytes.clone();
        bad[DATA_HDR] = 9;
        assert!(err(&bad).contains("unknown column kind 9"), "{}", err(&bad));
        bad[DATA_HDR] = V_NULL | K_NULLS;
        assert!(err(&bad).contains("NULL bitmap"), "{}", err(&bad));
        // A string that ends before it starts: the page parses, column 0
        // reads, column 1 is a typed error.
        let mut bad = bytes;
        let offsets = DATA_HDR + 2 + 8 * n;
        let (first, second) = (offsets + 2..offsets + 4, offsets + 4..offsets + 6);
        let (a, b) = (bad[first.clone()].to_vec(), bad[second.clone()].to_vec());
        bad[first].copy_from_slice(&b);
        bad[second].copy_from_slice(&a);
        let page = PageView::new(&bad).unwrap();
        let mut out = Vec::new();
        page.decode_onto(0..n, &ColumnSet::of([0]), &mut out, 0, n)
            .unwrap();
        let e = page
            .decode_onto(0..n, &ColumnSet::of([1]), &mut out, 0, n)
            .unwrap_err();
        assert!(e.to_string().contains("string 1 at"), "{e}");
    }

    /// A page of `[i, s]` rows, `s` cycling through multi-byte and empty
    /// strings, and its row count.
    fn string_page() -> (Vec<u8>, usize, Vec<Row>) {
        let strs = ["é", "", "a€", "😀b", "xyz"];
        let rows: Vec<Row> = (0..12)
            .map(|i| vec![Value::Int(i as i64), Value::str(strs[i % strs.len()])])
            .collect();
        let mut page = DataPage::new(0);
        page.extend(&columns_of(&rows), 0..rows.len());
        (page.to_bytes(512).unwrap(), rows.len(), rows)
    }

    #[test]
    fn a_corrupt_string_offset_is_a_typed_error() {
        let (bytes, n, rows) = string_page();
        // The string block's offsets follow the Int block.
        let offsets = DATA_HDR + 2 + 8 * n;
        let set = |bad: &mut Vec<u8>, k: usize, to: u16| {
            bad[offsets + 2 * k..offsets + 2 * k + 2].copy_from_slice(&to.to_le_bytes());
        };
        let read = |bad: &[u8], slots: Range<usize>| {
            let mut out = Vec::new();
            PageView::new(bad)
                .unwrap()
                .decode_onto(slots, &ColumnSet::of([1]), &mut out, 0, 0)
                .map(|()| out)
        };
        // Intact.
        let out = read(&bytes, 0..n).unwrap();
        assert!((0..n).all(|i| out[1].value(i) == rows[i][1]));
        // String 0 is "é": an end after its first byte splits it.
        let mut bad = bytes.clone();
        set(&mut bad, 1, 1);
        for slots in [0..n, 0..1, 1..2] {
            let e = read(&bad, slots.clone()).unwrap_err().to_string();
            assert!(e.contains("invalid utf8"), "{slots:?}: {e}");
        }
        assert!(read(&bad, 2..n).is_ok(), "the run past the split is intact");
        // The last string's end past the page.
        let mut bad = bytes;
        set(&mut bad, n, u16::MAX);
        for slots in [0..n, n - 1..n] {
            let e = read(&bad, slots.clone()).unwrap_err().to_string();
            assert!(e.contains("does not lie in the page"), "{slots:?}: {e}");
        }
    }

    #[test]
    fn a_second_refill_of_a_page_reuses_the_byte_buffer() {
        let (bytes, n, rows) = string_page();
        let page = PageView::new(&bytes).unwrap();
        let mut out = Vec::new();
        let buffers = |out: &[Column]| match out[1].data() {
            Data::Str(v) => (v.capacity(), v.byte_capacity()),
            _ => unreachable!("a string column"),
        };
        let cols = ColumnSet::all();
        cols.begin_refill_in(&mut out);
        page.decode_onto(0..n, &cols, &mut out, 0, n).unwrap();
        cols.end_refill_in(&mut out, n);
        let first = buffers(&out);
        // The same rows again, as two runs.
        cols.begin_refill_in(&mut out);
        page.decode_onto(0..5, &cols, &mut out, 0, n).unwrap();
        page.decode_onto(5..n, &cols, &mut out, 5, n).unwrap();
        cols.end_refill_in(&mut out, n);
        assert_eq!(buffers(&out), first, "both buffers were reused");
        assert!((0..n).all(|i| out[1].value(i) == rows[i][1]));
    }

    #[test]
    fn oversized_row_rejected() {
        let layout = PageLayout::new(512);
        let err = layout.check_row(len_of(&vec![Value::str("x".repeat(1000))]));
        assert!(err.unwrap_err().to_string().contains("1007 encoded bytes"));
        assert!(layout.check_row(512 - PAGE_HDR - 2).is_ok());
    }

    #[test]
    fn packing_rule_matches_page_builder() {
        // The fill both backends pack with is the rule spelled out with
        // `fits`, and every page it packs encodes within the page.
        let layout = PageLayout::new(512);
        let rows: Vec<Row> = (0..200i64)
            .map(|i| vec![Value::Int(i), Value::str(format!("payload {i}"))])
            .collect();
        let cols = columns_of(&rows);
        let mut fill = PageFill::default();
        let (mut starts, mut slots, mut bytes) = (Vec::new(), 0, 0);
        for (i, len) in encoded_row_lens(&cols, rows.len()).into_iter().enumerate() {
            let new_page = slots == 0 || !layout.fits(slots, bytes, len);
            assert_eq!(fill.push(layout, len), new_page, "row {i}");
            if new_page {
                starts.push(i);
                (slots, bytes) = (0, 0);
            }
            slots += 1;
            bytes += len;
        }
        starts.push(rows.len());
        assert!(starts.len() > 4, "{starts:?}");
        for run in starts.windows(2) {
            let mut page = DataPage::new(run[0] as u64);
            page.extend(&cols, run[0]..run[1]);
            let bytes = page.to_bytes(512).unwrap();
            let mut out = Vec::new();
            let view = PageView::new(&bytes).unwrap();
            view.decode_onto(0..view.len(), &ColumnSet::all(), &mut out, 0, 0)
                .unwrap();
            for (k, row) in rows[run[0]..run[1]].iter().enumerate() {
                assert_eq!(&out.iter().map(|c| c.value(k)).collect::<Row>(), row);
            }
        }
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "\\PC{0,12}".prop_map(Value::str),
            any::<i32>().prop_map(Value::Date),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// Same variant and same value (floats by bit pattern).
    fn identical(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
            _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
        }
    }

    proptest! {
        /// Every row decodes to the values it was encoded from, variant
        /// for variant, the encoder's length is the decoder's, and no
        /// prefix of an encoded row decodes or panics, under any column
        /// set.
        #[test]
        fn projected_decode_matches_full_decode(
            rows in prop::collection::vec(prop::collection::vec(value(), 0..9), 1..6),
            wanted in prop::collection::btree_set(0usize..10, 0..10),
        ) {
            let cols = ColumnSet::of(wanted.iter().copied());
            for row in &rows {
                let buf = encoded(row);
                prop_assert_eq!(buf.len(), len_of(row));
                let (decoded, end) = decode_all(&buf).unwrap();
                prop_assert_eq!(end, buf.len());
                prop_assert_eq!(decoded.len(), row.len());
                for (d, stored) in decoded.iter().zip(row) {
                    prop_assert!(identical(d, stored), "{:?} != {:?}", d, stored);
                }
                for cut in 0..buf.len() {
                    let mut scratch = Vec::new();
                    prop_assert!(decode_row_onto(&buf[..cut], 0, &cols, &mut scratch, 0, 1).is_err());
                    prop_assert!(decode_all(&buf[..cut]).is_err());
                }
            }
        }

        /// A run of rows decoded into refilled columns, one row per row:
        /// each wanted column holds exactly the stored values, variant for
        /// variant (NULL where a row is narrower), whatever it held before,
        /// and every other column is left as it was.
        #[test]
        fn column_decode_matches_row_decode(
            rows in prop::collection::vec(prop::collection::vec(value(), 0..9), 1..6),
            wanted in prop::collection::btree_set(0usize..10, 0..10),
        ) {
            let cols = ColumnSet::of(wanted.iter().copied());
            // Refill scratch that holds stale rows of other types first.
            let mut out: Vec<Column> = (0..3).map(|c| {
                let mut col = Column::default();
                for k in 0..5 {
                    col.push_value([Value::str(format!("stale {k}")), Value::Int(k), Value::Null][c].clone(), 0);
                }
                col
            }).collect();
            cols.begin_refill_in(&mut out);
            for (i, row) in rows.iter().enumerate() {
                let buf = encoded(row);
                let end = decode_row_onto(&buf, 0, &cols, &mut out, i, 4).unwrap();
                prop_assert_eq!(end, buf.len());
            }
            cols.end_refill_in(&mut out, rows.len());
            let width = rows.iter().map(Vec::len).max().unwrap_or(0);
            prop_assert_eq!(out.len(), width.max(3));
            for (c, col) in out.iter().enumerate() {
                if !wanted.contains(&c) {
                    prop_assert_eq!(col.len(), if c < 3 { 5 } else { 0 }, "column {} touched", c);
                    continue;
                }
                prop_assert_eq!(col.len(), rows.len());
                for (i, row) in rows.iter().enumerate() {
                    let stored = row.get(c).unwrap_or(&Value::Null);
                    prop_assert!(identical(&col.value(i), stored), "row {} column {}", i, c);
                }
            }
        }
    }

    /// A well-mixed 64-bit hash of `s` and `c`.
    fn mix(s: u64, c: usize) -> u64 {
        let mut z = s ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The cell seed `s` gives a column of `kind` (0 Int, 1 Float, 2 Date,
    /// 3 Str — empty, or of one- to four-byte characters —, 4 Bool, 5
    /// mixed) with NULLs at the rate `nulls` (0 none, 1 one in eight, 2
    /// half, 3 all).
    fn cell_from(kind: u8, nulls: u8, s: u64) -> Value {
        let null = match nulls {
            0 => false,
            1 => s.is_multiple_of(8),
            2 => s.is_multiple_of(2),
            _ => true,
        };
        let x = s >> 3;
        match (null, if kind == 5 { (x % 5) as u8 } else { kind }) {
            (true, _) => Value::Null,
            (_, 0) => Value::Int(x.rotate_left(17) as i64),
            (_, 1) => Value::Float(f64::from_bits(x.rotate_left(29))),
            (_, 2) => Value::Date(x.rotate_left(7) as i32),
            (_, 3) => Value::str(
                (0..(x >> 3) % 23)
                    .map(|k| ['a', 'Z', 'é', '€', '😀'][(mix(x, k as usize) % 5) as usize])
                    .collect::<String>(),
            ),
            _ => Value::Bool(x & 16 != 0),
        }
    }

    /// The rows the seeds give columns of `kinds`, cut to those the
    /// packing rule puts on one page of `layout`, as columns.
    fn one_page_of(layout: PageLayout, kinds: &[(u8, u8)], seeds: &[u64]) -> (Vec<Column>, usize) {
        let rows: Vec<Row> = seeds
            .iter()
            .map(|&s| {
                kinds
                    .iter()
                    .enumerate()
                    .map(|(c, &(kind, nulls))| cell_from(kind, nulls, mix(s, c)))
                    .collect()
            })
            .collect();
        let mut fill = PageFill::default();
        let n = rows
            .iter()
            .enumerate()
            .take_while(|(i, row)| !fill.push(layout, len_of(row)) || *i == 0)
            .count();
        let mut cols = Vec::new();
        crate::table::rows_to_columns("t", kinds.len(), rows[..n].to_vec(), &mut cols, n).unwrap();
        (cols, n)
    }

    /// The rows `0..n` of `cols` through the row codec: encoded, then
    /// decoded onto columns.
    fn row_codec(cols: &[Column], n: usize) -> Vec<Column> {
        let lens = encoded_row_lens(cols, n);
        let mut buf = Vec::new();
        encode_rows(cols, 0..n, &lens, &mut buf);
        let (mut out, mut at) = (Vec::new(), 0);
        for i in 0..n {
            at = decode_row_onto(&buf, at, &ColumnSet::all(), &mut out, i, n).unwrap();
        }
        out
    }

    proptest! {
        /// A column page of any rows the packing rule puts on one page is
        /// no larger than the row bytes it counted; every projection
        /// decodes what the row codec decodes, a slot at a time, in one
        /// run and in two runs split at any slot; and a projected decode
        /// never reads the values of a column outside its set:
        /// overwritten, they change nothing.
        #[test]
        fn column_page_matches_the_row_codec(
            page_size in prop_oneof![512usize..1024, 1024usize..8192, 8192usize..=65536],
            kinds in prop::collection::vec((0u8..6, 0u8..4), 0..7),
            seeds in prop::collection::vec(any::<u64>(), 1..400),
            wanted in prop::collection::btree_set(0usize..7, 0..7),
            first_row in any::<u32>(),
        ) {
            let layout = PageLayout::new(page_size);
            let (cols, n) = one_page_of(layout, &kinds, &seeds);
            let width = kinds.len();
            let mut page = DataPage::new(u64::from(first_row));
            page.extend(&cols, 0..n);
            let counted = PAGE_HDR + encoded_row_lens(&cols, n).iter().sum::<usize>() + 2 * n;
            let mut encoded = Vec::new();
            encode_page(u64::from(first_row), &cols, 0..n, &mut encoded);
            prop_assert!(encoded.len() <= counted, "{} > {}", encoded.len(), counted);
            let bytes = page.to_bytes(page_size).unwrap();
            let view = PageView::new(&bytes).unwrap();
            prop_assert_eq!((view.len(), view.first_row(), view.width()), (n, u64::from(first_row), width));

            let reference = row_codec(&cols, n);
            let set = ColumnSet::of(wanted.iter().copied());
            let check = |out: &[Column]| -> Result<(), TestCaseError> {
                prop_assert_eq!(out.len(), width);
                for (c, col) in out.iter().enumerate() {
                    if !wanted.contains(&c) {
                        prop_assert!(col.is_empty(), "column {} outside the set was written", c);
                        continue;
                    }
                    prop_assert_eq!(col.len(), n);
                    for i in 0..n {
                        let (got, want) = (col.value(i), reference[c].value(i));
                        prop_assert!(identical(&got, &want), "row {} column {}: {:?} != {:?}", i, c, got, want);
                    }
                }
                Ok(())
            };
            let mut run = Vec::new();
            view.decode_onto(0..n, &set, &mut run, 0, n).unwrap();
            check(&run)?;
            let mut fetched = Vec::new();
            for slot in 0..n {
                view.decode_onto(slot..slot + 1, &set, &mut fetched, slot, 0).unwrap();
            }
            check(&fetched)?;
            let cut = (seeds[0] % (n as u64 + 1)) as usize;
            let mut halves = Vec::new();
            view.decode_onto(0..cut, &set, &mut halves, 0, n).unwrap();
            view.decode_onto(cut..n, &set, &mut halves, cut, n).unwrap();
            check(&halves)?;

            // Overwrite the values of every typed column outside the set.
            let mut bad = bytes.clone();
            for (c, b) in view.blocks.iter().enumerate() {
                if wanted.contains(&c) || b.mixed {
                    continue;
                }
                let m = b.nulls.map_or(n, |at| n - rank(&bytes[at..], n));
                let values = if b.tag == V_STR {
                    let off = |k: usize| view.heap + usize::from(u16::from_le_bytes(le(&bytes[b.at + 2 * k..])));
                    off(0)..off(m)
                } else {
                    b.at..b.at + fixed_len(b.tag) * m
                };
                bad[values].fill(0xFF);
            }
            let mut out = Vec::new();
            PageView::new(&bad).unwrap().decode_onto(0..n, &set, &mut out, 0, n).unwrap();
            check(&out)?;
        }

        /// Flipped bytes and truncated pages parse and decode to `Ok` or a
        /// typed error, never a panic.
        #[test]
        fn column_page_flips_and_truncation_are_typed(
            page_size in prop_oneof![512usize..1024, 1024usize..4096],
            kinds in prop::collection::vec((0u8..6, 0u8..4), 0..7),
            seeds in prop::collection::vec(any::<u64>(), 1..200),
            flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..6),
        ) {
            let layout = PageLayout::new(page_size);
            let (cols, n) = one_page_of(layout, &kinds, &seeds);
            let mut page = DataPage::new(7);
            page.extend(&cols, 0..n);
            let bytes = page.to_bytes(page_size).unwrap();
            let mut encoded = Vec::new();
            encode_page(7, &cols, 0..n, &mut encoded);
            let used = encoded.len();
            let visit = |bytes: &[u8]| {
                if let Ok(view) = PageView::new(bytes) {
                    let mut out = Vec::new();
                    let _ = view.decode_onto(0..view.len(), &ColumnSet::all(), &mut out, 0, 0);
                    for slot in (0..view.len()).step_by(7) {
                        let _ = view.decode_onto(slot..slot + 1, &ColumnSet::all(), &mut out, 0, 0);
                    }
                    let _ = DataPage::from_page(&view, view.len());
                }
            };
            let mut bad = bytes.clone();
            for (at, x) in &flips {
                bad[usize::from(*at) % used] ^= x | 1;
            }
            visit(&bad);
            for cut in (0..used).step_by(used / 16 + 1) {
                visit(&bytes[..cut]);
            }
        }
    }
}
