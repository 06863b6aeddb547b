//! Slotted pages and the row codec.
//!
//! Both backends speak the same page geometry: the [`PageLayout`] packing
//! function decides which rows share a page, and [`MemBackend`] keeps a
//! *virtual* page map computed with exactly this function while
//! [`PagedBackend`] materializes the bytes. Page counts — and therefore
//! the optimizer's page-aware cost estimates and the runtime's page-I/O
//! work charges — are a deterministic property of table contents alone,
//! which is what keeps plans, validity ranges and certificates identical
//! across backends.
//!
//! [`MemBackend`]: crate::MemBackend
//! [`PagedBackend`]: crate::PagedBackend
//!
//! Rows are encoded from columns (`encode_rows`, a column at a time) and
//! decoded onto columns: [`decode_row_onto`] writes the
//! columns of a [`ColumnSet`] into typed [`Column`]s the reader refills in
//! place (every table read: cursors, fetchers, index builds, ANALYZE; WAL
//! replay; the re-opened tail page) and steps over the rest. A B+tree key
//! is a one-value row in the same encoding.
//! A page is parsed — and its header and slot directory validated — once
//! per visit by [`PageView::new`].
//!
//! Data page layout (fixed `page_size` bytes):
//!
//! ```text
//! [0]        tag (1 = data page)
//! [1..3]     n_slots  (u16 LE)
//! [3..11]    first_row (u64 LE): table position of slot 0
//! [11..]     encoded rows, packed front to back
//! [.. end]   slot directory, packed back to front: slot i's row offset
//!            (u16 LE, relative to page start) lives at
//!            page_size - 2*(i+1)
//! ```

use pop_types::column::{Cell, Column, Data};
use pop_types::{PopError, PopResult, Value};
use std::ops::Range;
use std::sync::Arc;

/// Bytes of fixed page header before row data.
pub const PAGE_HDR: usize = 11;
/// Data-page tag byte.
pub const TAG_DATA: u8 = 1;
/// Smallest page size the configuration accepts.
pub const MIN_PAGE_SIZE: usize = 512;
/// Largest page size the configuration accepts (slot offsets are u16).
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
/// pass per column, a fixed-width column without NULLs in one add per row.
pub(crate) fn encoded_row_lens(cols: &[Column], rows: usize) -> Vec<usize> {
    let mut lens = vec![2; rows];
    for col in cols {
        let fixed = match col.data() {
            _ if col.has_null_bitmap() => None,
            Data::Int(_) | Data::Float(_) => Some(9),
            Data::Date(_) => Some(5),
            Data::Bool(_) => Some(2),
            Data::Null(_) => Some(1),
            Data::Str(_) | Data::Mixed(_) => None,
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

/// Append the encoding of `key` as a one-value row to `out` (B+tree keys;
/// decoded with [`decode_row_header`] and [`decode_value`]).
pub(crate) fn encode_key(key: &Value, out: &mut Vec<u8>) {
    out.extend_from_slice(&1u16.to_le_bytes());
    encode_cell(Cell::of(key), out);
}

/// Append the encoding of one value to `out`.
fn encode_cell(c: Cell<'_>, out: &mut Vec<u8>) {
    match c {
        Cell::Null => out.push(V_NULL),
        Cell::Int(i) => {
            out.push(V_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Cell::Float(x) => {
            out.push(V_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Cell::Str(s) => {
            out.push(V_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Cell::Date(d) => {
            out.push(V_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Cell::Bool(b) => {
            out.push(V_BOOL);
            out.push(u8::from(b));
        }
    }
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

/// Decode the row encoded at `data[at..]` into `out` as row `row` of a
/// refill (see [`Column::begin_refill`]; rows `0..row` are this refill's):
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
                    col.put_str(row, Arc::from(s), cap);
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

/// Decode one value at `data[*at..]`, advancing past it (B+tree keys; table
/// rows decode onto columns with [`decode_row_onto`]).
pub(crate) fn decode_value(data: &[u8], at: &mut usize) -> PopResult<Value> {
    Ok(match take(data, at, 1, "value tag")?[0] {
        V_NULL => Value::Null,
        V_INT => Value::Int(i64::from_le_bytes(le(take(data, at, 8, "int/float")?))),
        V_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(le(take(
            data,
            at,
            8,
            "int/float",
        )?)))),
        V_STR => {
            let len = u32::from_le_bytes(le(take(data, at, 4, "str len")?));
            let bytes = take(data, at, len as usize, "str bytes")?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| PopError::Execution("page codec: invalid utf8".into()))?;
            Value::Str(Arc::from(s))
        }
        V_DATE => Value::Date(i32::from_le_bytes(le(take(data, at, 4, "date")?))),
        V_BOOL => Value::Bool(take(data, at, 1, "bool")?[0] != 0),
        t => {
            return Err(PopError::Execution(format!(
                "page codec: unknown value tag {t}"
            )))
        }
    })
}

/// Read the value count of the row encoded at `data[*at..]`, advancing past
/// the header.
pub(crate) fn decode_row_header(data: &[u8], at: &mut usize) -> PopResult<usize> {
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

    /// Can a page already holding `slots` rows and `data_bytes` of row data
    /// accept another row of `row_len` encoded bytes? The first row of an
    /// empty page always "fits" — oversized rows are rejected at append
    /// time instead, so both backends agree on the page map.
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

/// An in-memory data page being filled (or decoded).
#[derive(Debug, Clone)]
pub struct DataPage {
    layout: PageLayout,
    first_row: u64,
    /// Encoded rows, front-packed (no header).
    data: Vec<u8>,
    /// Row offsets relative to the start of `data`.
    slots: Vec<u16>,
}

impl DataPage {
    /// An empty page whose slot 0 will hold table position `first_row`.
    pub fn new(layout: PageLayout, first_row: u64) -> Self {
        DataPage {
            layout,
            first_row,
            data: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Try to append an encoded row (one [`PageLayout::check_row`]
    /// accepted); false when the page is full (per the shared packing
    /// rule). An empty page takes any such row.
    pub fn push(&mut self, row: &[u8]) -> bool {
        if !self
            .layout
            .fits(self.slots.len(), self.data.len(), row.len())
        {
            return false;
        }
        self.slots.push(self.data.len() as u16);
        self.data.extend_from_slice(row);
        true
    }

    /// Serialize to exactly `page_size` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ps = self.layout.page_size;
        let mut buf = vec![0u8; ps];
        buf[0] = TAG_DATA;
        buf[1..3].copy_from_slice(&(self.slots.len() as u16).to_le_bytes());
        buf[3..11].copy_from_slice(&self.first_row.to_le_bytes());
        buf[PAGE_HDR..PAGE_HDR + self.data.len()].copy_from_slice(&self.data);
        for (i, off) in self.slots.iter().enumerate() {
            let at = ps - 2 * (i + 1);
            buf[at..at + 2].copy_from_slice(&(off + PAGE_HDR as u16).to_le_bytes());
        }
        buf
    }

    /// Rebuild a builder from the first `keep` rows of a serialized page
    /// (re-opening the tail page for further appends; `keep` below the
    /// slot count drops rows past a mid-page checkpoint). Every kept row is
    /// decoded in full, so a torn page is an error here rather than at the
    /// first read.
    pub fn from_page(layout: PageLayout, page: &PageView<'_>, keep: usize) -> PopResult<Self> {
        let mut out = DataPage::new(layout, page.first_row());
        let (mut scratch, mut end) = (Vec::new(), PAGE_HDR);
        for slot in 0..keep {
            // Rows are packed front to back with no gaps.
            if page.slot_offset(slot)? != end {
                return Err(PopError::Execution(format!(
                    "page codec: slot {slot} does not follow the row before it"
                )));
            }
            out.slots.push((end - PAGE_HDR) as u16);
            end = decode_row_onto(
                &page.bytes[..page.dir_start],
                end,
                &ColumnSet::all(),
                &mut scratch,
                0,
                1,
            )?;
        }
        out.data.extend_from_slice(&page.bytes[PAGE_HDR..end]);
        Ok(out)
    }
}

/// A serialized data page, parsed once: [`PageView::new`] validates the
/// tag, the header and every entry of the slot directory, so the per-row
/// decode that follows does no bounds arithmetic of its own beyond the row
/// bytes it walks.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    bytes: &'a [u8],
    n_slots: usize,
    first_row: u64,
    /// Offset where the slot directory starts; row bytes end before it.
    dir_start: usize,
}

impl<'a> PageView<'a> {
    /// Parse `bytes` as a data page. Errors (typed, never a panic) when the
    /// page is not a data page, the slot directory does not fit the page,
    /// or a slot points outside the row area.
    pub fn new(bytes: &'a [u8]) -> PopResult<Self> {
        if bytes.len() < PAGE_HDR || bytes[0] != TAG_DATA {
            return Err(PopError::Execution("not a data page".into()));
        }
        let n_slots = usize::from(u16::from_le_bytes(le(&bytes[1..])));
        let first_row = u64::from_le_bytes(le(&bytes[3..]));
        let dir_start = bytes
            .len()
            .checked_sub(2 * n_slots)
            .filter(|&d| d >= PAGE_HDR)
            .ok_or_else(|| {
                PopError::Execution(format!(
                    "page codec: {n_slots} slots do not fit a {}-byte page",
                    bytes.len()
                ))
            })?;
        let in_row_area = |entry: &[u8]| {
            (PAGE_HDR..dir_start).contains(&usize::from(u16::from_le_bytes(le(entry))))
        };
        // The directory is packed back to front: slot 0 is the last entry.
        if let Some(slot) = bytes[dir_start..]
            .rchunks_exact(2)
            .position(|e| !in_row_area(e))
        {
            return Err(PopError::Execution(format!(
                "page codec: slot {slot} points outside the row area"
            )));
        }
        Ok(PageView {
            bytes,
            n_slots,
            first_row,
            dir_start,
        })
    }

    /// Rows on the page.
    pub fn len(&self) -> usize {
        self.n_slots
    }

    /// True when the page holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_slots == 0
    }

    /// Table position of slot 0.
    pub fn first_row(&self) -> u64 {
        self.first_row
    }

    /// Offset of slot `slot`'s row (validated by [`PageView::new`]).
    fn slot_offset(&self, slot: usize) -> PopResult<usize> {
        if slot >= self.n_slots {
            return Err(PopError::Execution(format!(
                "slot {slot} out of range ({} slots)",
                self.n_slots
            )));
        }
        let at = self.bytes.len() - 2 * (slot + 1);
        Ok(usize::from(u16::from_le_bytes(le(&self.bytes[at..]))))
    }

    /// Decode the columns `cols` of the row in `slot` into `out` as row
    /// `row` of a refill (see [`decode_row_onto`]).
    pub fn decode_slot_onto(
        &self,
        slot: usize,
        cols: &ColumnSet,
        out: &mut Vec<Column>,
        row: usize,
        cap: usize,
    ) -> PopResult<()> {
        let at = self.slot_offset(slot)?;
        decode_row_onto(&self.bytes[..self.dir_start], at, cols, out, row, cap).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns_of;
    use pop_types::Row;
    use proptest::prelude::*;

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

    fn filled_page(layout: PageLayout, first_row: u64) -> (Vec<u8>, usize) {
        let mut page = DataPage::new(layout, first_row);
        let mut n = 0;
        while page.push(&encoded(&numbered(n))) {
            n += 1;
        }
        (page.to_bytes(), n)
    }

    #[test]
    fn page_round_trip_and_slots() {
        let layout = PageLayout::new(512);
        let (bytes, n) = filled_page(layout, 100);
        assert!(n > 2, "512-byte page should hold a few rows, held {n}");
        assert_eq!(bytes.len(), 512);
        let page = PageView::new(&bytes).unwrap();
        assert_eq!((page.len(), page.first_row()), (n, 100));
        let mut out = Vec::new();
        for i in 0..n {
            page.decode_slot_onto(i, &ColumnSet::of([0]), &mut out, i, n)
                .unwrap();
        }
        assert_eq!(out[0].len(), n);
        assert!(out[1].is_empty(), "column 1 is outside the set");
        assert!((0..n).all(|i| out[0].value(i) == Value::Int(i as i64)));
        assert!(page
            .decode_slot_onto(n, &ColumnSet::all(), &mut out, 0, 0)
            .is_err());
        let reparsed = DataPage::from_page(layout, &page, n).unwrap();
        assert_eq!(reparsed.to_bytes(), bytes);
        // A mid-page checkpoint keeps the prefix only.
        let prefix = DataPage::from_page(layout, &page, 2).unwrap().to_bytes();
        let prefix = PageView::new(&prefix).unwrap();
        assert_eq!((prefix.len(), prefix.first_row()), (2, 100));
        let mut out = Vec::new();
        prefix
            .decode_slot_onto(1, &ColumnSet::all(), &mut out, 0, 1)
            .unwrap();
        assert_eq!(
            (out[0].value(0), out[1].value(0)),
            (Value::Int(1), Value::str("row-1"))
        );
    }

    #[test]
    fn corrupt_slot_directory_is_a_typed_error() {
        let (bytes, n) = filled_page(PageLayout::new(512), 0);
        assert!(PageView::new(&bytes[..PAGE_HDR - 1]).is_err());
        // More slots than the page has room for: the old row lookup
        // computed `len - 2*(i+1)` and overflowed.
        let mut bad = bytes.clone();
        bad[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = PageView::new(&bad).unwrap_err();
        assert!(err.to_string().contains("do not fit"), "{err}");
        // A slot pointing into the slot directory.
        let mut bad = bytes.clone();
        let dir_start = bytes.len() - 2 * n;
        bad[510..512].copy_from_slice(&(dir_start as u16).to_le_bytes());
        let err = PageView::new(&bad).unwrap_err();
        assert!(err.to_string().contains("slot 0 points outside"), "{err}");
        // ... and one pointing into the header.
        let mut bad = bytes.clone();
        bad[508..510].copy_from_slice(&3u16.to_le_bytes());
        let err = PageView::new(&bad).unwrap_err();
        assert!(err.to_string().contains("slot 1 points outside"), "{err}");
        // A row that would run into the directory stops at it.
        let mut bad = bytes;
        bad[510..512].copy_from_slice(&(dir_start as u16 - 3).to_le_bytes());
        bad[dir_start - 3..dir_start].copy_from_slice(&[1, 0, V_INT]);
        let page = PageView::new(&bad).unwrap();
        assert!(page
            .decode_slot_onto(0, &ColumnSet::all(), &mut Vec::new(), 0, 0)
            .is_err());
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
        // The virtual map (fits) and the real page (push) must agree.
        let layout = PageLayout::new(512);
        let rows: Vec<Row> = (0..200i64)
            .map(|i| vec![Value::Int(i), Value::str(format!("payload {i}"))])
            .collect();
        let mut page = DataPage::new(layout, 0);
        let (mut slots, mut bytes) = (0usize, 0usize);
        for (i, row) in rows.iter().enumerate() {
            let (row, len) = (encoded(row), len_of(row));
            let virt_fits = layout.fits(slots, bytes, len);
            let real_fits = page.push(&row);
            assert_eq!(virt_fits, real_fits, "row {i}");
            if real_fits {
                slots += 1;
                bytes += len;
            } else {
                page = DataPage::new(layout, i as u64);
                assert!(page.push(&row));
                slots = 1;
                bytes = len;
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
}
