//! One column of values: a vector typed by the values it holds, plus a
//! NULL bitmap allocated on the first NULL. The same type holds a stored
//! table's columns (the mem backend), the decode scratch of a paged read
//! and the columns of every batch the executor moves, so values go from
//! storage to an operator's output by one typed gather
//! ([`Column::extend_gather`]).
//!
//! A column starts untyped — every row so far NULL, nothing stored — and
//! takes the type of its first non-NULL value: `Int` → `i64`, `Float` →
//! `f64`, `Date` → `i32`, `Bool` → `bool`, `Str` → one [`StrVec`] (every
//! string's bytes in one buffer, Arrow's layout). A push of
//! another type turns it into a `Value` vector for good (a SUM column can
//! hold `Int` and `Float` groups), so any sequence of values round-trips,
//! variant included. A column that is empty again (`clear`, `truncate(0)`)
//! takes the type of whatever arrives next, keeping its allocation when
//! that is the type it had.
//!
//! [`Cell`] is the borrowed view comparisons and hashes read through; it
//! orders, compares and hashes exactly like `Value`, so typed and mixed
//! columns meet under `Value`'s semantics: `Int(3)`, `Float(3.0)` and
//! `Date(3)` are equal, floats compare by `total_cmp`, NULL is equal to
//! NULL and sorts first.

use crate::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// The values of one column.
#[derive(Debug, Clone)]
pub enum Data {
    /// No non-NULL value yet: this many NULL rows, nothing stored.
    Null(usize),
    /// `Value::Int`s.
    Int(Vec<i64>),
    /// `Value::Float`s.
    Float(Vec<f64>),
    /// `Value::Date`s.
    Date(Vec<i32>),
    /// `Value::Bool`s.
    Bool(Vec<bool>),
    /// `Value::Str`s.
    Str(StrVec),
    /// Values of more than one type; NULLs are `Value::Null`.
    Mixed(Vec<Value>),
}

/// The element type of a typed vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
    Date,
    Bool,
    Str,
}

/// Apply `$body` to the vector of any variant, `$null` to the count of
/// `Data::Null`.
macro_rules! each_vec {
    ($data:expr, |$v:ident| $body:expr, |$n:ident| $null:expr) => {
        match $data {
            Data::Null($n) => $null,
            Data::Int($v) => $body,
            Data::Float($v) => $body,
            Data::Date($v) => $body,
            Data::Bool($v) => $body,
            Data::Str($v) => $body,
            Data::Mixed($v) => $body,
        }
    };
}

/// Typed writes of a refill: `$name(i, x)` overwrites row `i` of a vector
/// of `$variant`s or appends there, and takes [`Column::put_slow`] on any
/// other column.
macro_rules! typed_put {
    ($($(#[$doc:meta])* $name:ident($t:ty) => $variant:ident;)*) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, i: usize, x: $t, cap: usize) {
            match &mut self.data {
                Data::$variant(d) if i < d.len() => d[i] = x,
                Data::$variant(d) if i == d.len() => d.push(x),
                _ => self.put_slow(i, Value::$variant(x), cap),
            }
        }
    )*};
}

/// Typed run writes of a refill: `$name(i, values)` writes the values as
/// rows `i..` of a vector of `$variant`s in one extend (the rows from `i`
/// on are stale), and is `$put` per value on any other column.
macro_rules! typed_put_run {
    ($($(#[$doc:meta])* $name:ident($t:ty) => $variant:ident, $put:ident;)*) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, i: usize, values: impl ExactSizeIterator<Item = $t>, cap: usize) {
            match &mut self.data {
                Data::$variant(d) if i <= d.len() => {
                    d.truncate(i);
                    d.extend(values);
                }
                _ => {
                    for (k, x) in values.enumerate() {
                        self.$put(i + k, x, cap);
                    }
                }
            }
        }
    )*};
}

/// Apply `$body` to two typed vectors of the same element type, or
/// evaluate `$other`.
macro_rules! same_typed {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $body:expr, $other:expr) => {
        match ($a, $b) {
            (Data::Int($x), Data::Int($y)) => $body,
            (Data::Float($x), Data::Float($y)) => $body,
            (Data::Date($x), Data::Date($y)) => $body,
            (Data::Bool($x), Data::Bool($y)) => $body,
            (Data::Str($x), Data::Str($y)) => $body,
            _ => $other,
        }
    };
}

impl Data {
    fn kind(&self) -> Option<Kind> {
        match self {
            Data::Int(_) => Some(Kind::Int),
            Data::Float(_) => Some(Kind::Float),
            Data::Date(_) => Some(Kind::Date),
            Data::Bool(_) => Some(Kind::Bool),
            Data::Str(_) => Some(Kind::Str),
            Data::Null(_) | Data::Mixed(_) => None,
        }
    }

    /// An empty vector of `kind` with room for `cap` values.
    fn empty(kind: Kind, cap: usize) -> Data {
        match kind {
            Kind::Int => Data::Int(Vec::with_capacity(cap)),
            Kind::Float => Data::Float(Vec::with_capacity(cap)),
            Kind::Date => Data::Date(Vec::with_capacity(cap)),
            Kind::Bool => Data::Bool(Vec::with_capacity(cap)),
            Kind::Str => Data::Str(StrVec::with_capacity(cap)),
        }
    }

    /// Overwrite row `i` of a typed vector with the slot a NULL occupies
    /// (a refill's write: a string vector cuts its rows from `i` on,
    /// stale, and pushes an empty string).
    fn set_placeholder(&mut self, i: usize) {
        match self {
            Data::Int(v) => v[i] = 0,
            Data::Float(v) => v[i] = 0.0,
            Data::Date(v) => v[i] = 0,
            Data::Bool(v) => v[i] = false,
            Data::Str(v) => {
                v.truncate(i);
                v.push("");
            }
            Data::Null(_) => {}
            Data::Mixed(v) => v[i] = Value::Null,
        }
    }

    /// Push the slot a NULL occupies in a typed vector.
    fn push_placeholder(&mut self) {
        match self {
            Data::Int(v) => v.push(0),
            Data::Float(v) => v.push(0.0),
            Data::Date(v) => v.push(0),
            Data::Bool(v) => v.push(false),
            Data::Str(v) => v.push(""),
            Data::Null(n) => *n += 1,
            Data::Mixed(v) => v.push(Value::Null),
        }
    }
}

fn kind_of(v: &Value) -> Option<Kind> {
    match v {
        Value::Int(_) => Some(Kind::Int),
        Value::Float(_) => Some(Kind::Float),
        Value::Date(_) => Some(Kind::Date),
        Value::Bool(_) => Some(Kind::Bool),
        Value::Str(_) => Some(Kind::Str),
        Value::Null => None,
    }
}

#[inline]
fn bit(bits: Option<&Vec<u64>>, i: usize) -> bool {
    bits.is_some_and(|b| b.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1))
}

#[inline]
fn set_bit(bits: &mut Option<Vec<u64>>, i: usize) {
    let words = bits.get_or_insert_with(Vec::new);
    if words.len() <= i / 64 {
        words.resize(i / 64 + 1, 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

/// Strings in Arrow's layout: value `i` is `bytes[offsets[i]..offsets[i +
/// 1]]`. A push copies the string's bytes onto the end of one buffer, so a
/// column of strings is two allocations however many rows it holds, and a
/// refill that writes as many bytes as the last one allocates nothing.
///
/// Offsets are `u32`: one vector holds at most 4 GiB of string bytes.
#[derive(Debug, Clone)]
pub struct StrVec {
    /// One more than the values, from 0, never decreasing, each on a char
    /// boundary of `bytes`.
    offsets: Vec<u32>,
    /// Every value's UTF-8, back to back.
    bytes: String,
}

impl Default for StrVec {
    fn default() -> Self {
        StrVec::with_capacity(0)
    }
}

/// A byte offset as a `u32` offset.
#[inline]
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a string vector holds at most 4 GiB of bytes")
}

impl StrVec {
    /// An empty vector with room for `values` offsets.
    pub fn with_capacity(values: usize) -> Self {
        let mut offsets = Vec::with_capacity(values + 1);
        offsets.push(0);
        StrVec {
            offsets,
            bytes: String::new(),
        }
    }

    /// Values held.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no value is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i`, borrowed.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Value `i`'s bytes: what equality, hashing and the order (UTF-8
    /// orders as its bytes do) read, without the char-boundary checks of
    /// [`StrVec::get`].
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        &self.bytes.as_bytes()[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The offsets: one more than the values, from 0.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every value's bytes, back to back.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.bytes
    }

    /// Append a copy of `s`.
    #[inline]
    pub fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.offsets.push(offset(self.bytes.len()));
    }

    /// Append one value written by `write` onto the end of the buffer (a
    /// formatted string goes straight in, with no string of its own).
    #[inline]
    fn push_with(&mut self, write: impl FnOnce(&mut String)) {
        write(&mut self.bytes);
        self.offsets.push(offset(self.bytes.len()));
    }

    /// Append the values `run` holds, value `k` ending at byte `ends[k]`
    /// of it and starting where value `k - 1` ends (value 0 at 0): one
    /// copy of the run and one offset per value. Each end must be on a
    /// char boundary of `run`, at or past the one before and at most its
    /// length; on the first that is not, nothing is appended and its
    /// index is the error.
    pub fn extend_run(
        &mut self,
        run: &str,
        ends: impl ExactSizeIterator<Item = usize>,
    ) -> Result<(), usize> {
        let (values, base) = (self.offsets.len(), self.bytes.len());
        self.offsets.reserve(ends.len());
        let mut last = 0;
        for (k, end) in ends.enumerate() {
            if end < last || !run.is_char_boundary(end) {
                self.offsets.truncate(values);
                return Err(k);
            }
            self.offsets.push(offset(base + end));
            last = end;
        }
        self.bytes.push_str(&run[..last]);
        Ok(())
    }

    /// Keep the first `n` values.
    #[inline]
    pub fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.offsets.truncate(n + 1);
            self.bytes.truncate(self.offsets[n] as usize);
        }
    }

    /// Drop every value, keeping both buffers.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Split off the values `at..` into a vector of their own.
    pub fn split_off(&mut self, at: usize) -> StrVec {
        let from = self.offsets[at];
        let tail = StrVec {
            offsets: self.offsets[at..].iter().map(|o| o - from).collect(),
            bytes: self.bytes[from as usize..].to_string(),
        };
        self.truncate(at);
        tail
    }

    /// Offsets held room for, less the leading 0.
    pub fn capacity(&self) -> usize {
        self.offsets.capacity() - 1
    }

    /// Bytes the buffer has room for.
    pub fn byte_capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Release both buffers' spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.bytes.shrink_to_fit();
    }
}

/// What [`Column`] does alike to the vector of any variant.
trait Vector {
    /// Bytes held (lengths, not capacities).
    fn held_bytes(&self) -> usize;
    /// Append `src`'s values at `idx`, in that order.
    fn gather_from(&mut self, src: &Self, idx: impl Iterator<Item = usize> + Clone);
    /// Move every value of `other` onto the end.
    fn append_from(&mut self, other: &mut Self);
}

impl<T: Clone> Vector for Vec<T> {
    fn held_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
    }

    #[inline]
    fn gather_from(&mut self, src: &Self, idx: impl Iterator<Item = usize> + Clone) {
        self.extend(idx.map(|i| src[i].clone()));
    }

    fn append_from(&mut self, other: &mut Self) {
        self.append(other);
    }
}

impl Vector for StrVec {
    /// Four bytes per offset plus the string bytes.
    fn held_bytes(&self) -> usize {
        4 * self.offsets.len() + self.bytes.len()
    }

    /// One pass sizes the buffer for the gathered bytes, so a gather into
    /// a new batch column allocates its buffer once.
    #[inline]
    fn gather_from(&mut self, src: &Self, idx: impl Iterator<Item = usize> + Clone) {
        let o = &src.offsets;
        let bytes = idx.clone().map(|i| (o[i + 1] - o[i]) as usize).sum();
        self.bytes.reserve(bytes);
        for i in idx {
            self.push(src.get(i));
        }
    }

    fn append_from(&mut self, other: &mut Self) {
        let base = offset(self.bytes.len());
        self.bytes.push_str(&other.bytes);
        self.offsets
            .extend(other.offsets[1..].iter().map(|o| base + o));
        other.clear();
    }
}

/// One column (see the module docs).
#[derive(Debug, Clone)]
pub struct Column {
    data: Data,
    /// NULL bitmap of a typed vector (bit set = NULL), allocated on the
    /// first NULL; rows past its end are not NULL. `Data::Null` and
    /// `Data::Mixed` hold their NULLs themselves.
    nulls: Option<Vec<u64>>,
}

impl Default for Column {
    fn default() -> Self {
        Column {
            data: Data::Null(0),
            nulls: None,
        }
    }
}

impl Column {
    /// The values (a typed vector's NULL slots hold placeholders; see
    /// [`Column::is_null`]).
    #[inline]
    pub fn data(&self) -> &Data {
        &self.data
    }

    /// Rows held.
    #[inline]
    pub fn len(&self) -> usize {
        each_vec!(&self.data, |v| v.len(), |n| *n)
    }

    /// True when the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does the NULL bitmap exist (some row of a typed vector is NULL)?
    #[inline]
    pub fn has_null_bitmap(&self) -> bool {
        self.nulls.is_some()
    }

    /// Bytes the column's vectors hold (lengths, not capacities): a string
    /// vector's offsets and string bytes.
    pub fn bytes(&self) -> usize {
        each_vec!(&self.data, |v| v.held_bytes(), |_n| 0)
            + self.nulls.as_ref().map_or(0, |b| b.len() * 8)
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            Data::Null(_) => true,
            Data::Mixed(v) => v[i].is_null(),
            _ => bit(self.nulls.as_ref(), i),
        }
    }

    /// Row `i`, borrowed.
    #[inline]
    pub fn cell(&self, i: usize) -> Cell<'_> {
        if bit(self.nulls.as_ref(), i) {
            return Cell::Null;
        }
        match &self.data {
            Data::Null(_) => Cell::Null,
            Data::Int(v) => Cell::Int(v[i]),
            Data::Float(v) => Cell::Float(v[i]),
            Data::Date(v) => Cell::Date(v[i]),
            Data::Bool(v) => Cell::Bool(v[i]),
            Data::Str(v) => Cell::Str(v.get(i)),
            Data::Mixed(v) => Cell::of(&v[i]),
        }
    }

    /// Row `i` as an owned value: a string is copied into a new `Arc<str>`,
    /// so a loop over rows reads [`Column::cell`] and builds a value only
    /// where it keeps one.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if bit(self.nulls.as_ref(), i) {
            return Value::Null;
        }
        match &self.data {
            Data::Null(_) => Value::Null,
            Data::Int(v) => Value::Int(v[i]),
            Data::Float(v) => Value::Float(v[i]),
            Data::Date(v) => Value::Date(v[i]),
            Data::Bool(v) => Value::Bool(v[i]),
            Data::Str(v) => Value::str(v.get(i)),
            Data::Mixed(v) => v[i].clone(),
        }
    }

    /// Make the column able to take values of `kind` (`None`: values of
    /// any type). An empty column becomes a vector of that type (room for
    /// `cap`), keeping its own if it is one; an all-NULL column becomes
    /// one too, its NULLs as placeholders; anything else a `Value` vector.
    fn retype(&mut self, kind: Option<Kind>, cap: usize) {
        if self.is_empty() {
            let same = match kind {
                Some(k) => self.data.kind() == Some(k),
                None => matches!(self.data, Data::Mixed(_)),
            };
            if !same {
                self.data = kind.map_or_else(
                    || Data::Mixed(Vec::with_capacity(cap)),
                    |k| Data::empty(k, cap),
                );
            }
            self.nulls = None;
            return;
        }
        match (kind, &self.data) {
            (Some(k), Data::Null(n)) => {
                let n = *n;
                self.data = Data::empty(k, cap.max(n + 1));
                for i in 0..n {
                    self.data.push_placeholder();
                    set_bit(&mut self.nulls, i);
                }
            }
            (_, Data::Mixed(_)) => {}
            _ => {
                let values = (0..self.len()).map(|i| self.value(i)).collect();
                self.data = Data::Mixed(values);
                self.nulls = None;
            }
        }
    }

    #[inline]
    fn push_null(&mut self) {
        if matches!(&self.data, Data::Mixed(d) if d.is_empty()) {
            self.data = Data::Null(0);
        }
        let i = self.len();
        self.data.push_placeholder();
        if self.data.kind().is_some() {
            set_bit(&mut self.nulls, i);
        }
    }

    /// Append one owned value; `cap` sizes a vector created by this push.
    #[inline]
    pub fn push_value(&mut self, v: Value, cap: usize) {
        match (&mut self.data, v) {
            (Data::Int(d), Value::Int(x)) => d.push(x),
            (Data::Float(d), Value::Float(x)) => d.push(x),
            (Data::Date(d), Value::Date(x)) => d.push(x),
            (Data::Bool(d), Value::Bool(x)) => d.push(x),
            (Data::Str(d), Value::Str(x)) => d.push(&x),
            (Data::Mixed(d), v) if !d.is_empty() => d.push(v),
            (_, v) => self.push_value_slow(v, cap),
        }
    }

    /// [`Column::push_value`] of a NULL, or of a value the vector does not
    /// hold: out of line, so the typed pushes inline into a decode or
    /// gather loop.
    #[cold]
    #[inline(never)]
    fn push_value_slow(&mut self, v: Value, cap: usize) {
        if v.is_null() {
            return self.push_null();
        }
        match &mut self.data {
            Data::Mixed(d) if !d.is_empty() => d.push(v),
            _ => {
                self.retype(kind_of(&v), cap);
                self.push_value(v, cap);
            }
        }
    }

    /// Start writing the column over from row 0 with the `put_*` calls,
    /// one row at a time and in order: the rows stay, to be overwritten in
    /// place, and the NULL bitmap goes. A [`Column::truncate`] to the rows
    /// written ends the refill (until then the rows past the last one
    /// written are stale). A write at row `i` of a string vector cuts the
    /// stale rows from `i` on first, then appends, so the vector's buffers
    /// are reused.
    #[inline]
    pub fn begin_refill(&mut self) {
        self.nulls = None;
    }

    typed_put! {
        /// Write an `Int` as row `i` of a refill (see
        /// [`Column::begin_refill`]).
        put_int(i64) => Int;
        /// Write a `Float` as row `i` of a refill.
        put_float(f64) => Float;
        /// Write a `Date` as row `i` of a refill.
        put_date(i32) => Date;
        /// Write a `Bool` as row `i` of a refill.
        put_bool(bool) => Bool;
    }

    /// Write a copy of `s` as row `i` of a refill.
    #[inline]
    pub fn put_str(&mut self, i: usize, s: &str, cap: usize) {
        match &mut self.data {
            Data::Str(d) if i <= d.len() => {
                d.truncate(i);
                d.push(s);
            }
            _ => self.put_slow(i, Value::str(s), cap),
        }
    }

    /// Write the string `args` formats as row `i` of a refill: straight
    /// into a string vector's buffer.
    pub fn put_fmt(&mut self, i: usize, args: std::fmt::Arguments<'_>, cap: usize) {
        use std::fmt::Write;
        match &mut self.data {
            Data::Str(d) if i <= d.len() => {
                d.truncate(i);
                d.push_with(|buf| {
                    buf.write_fmt(args)
                        .expect("formatting into a String does not fail");
                });
            }
            _ => self.put_slow(i, Value::str(args.to_string()), cap),
        }
    }

    /// Write the strings of `run` as rows `i..` of a refill, value `k`
    /// ending at byte `ends[k]` of it (see [`StrVec::extend_run`]): one
    /// copy of the run into a string vector, a value at a time into any
    /// other column. An end off a char boundary, before the one before it
    /// or past the run is the error (its index); the rows from `i` on are
    /// then stale.
    pub fn put_str_run(
        &mut self,
        i: usize,
        run: &str,
        ends: impl ExactSizeIterator<Item = usize>,
        cap: usize,
    ) -> Result<(), usize> {
        if let Data::Str(d) = &mut self.data {
            if i <= d.len() {
                d.truncate(i);
                return d.extend_run(run, ends);
            }
        }
        let mut start = 0;
        for (k, end) in ends.enumerate() {
            let s = run.get(start..end).ok_or(k)?;
            self.put_str(i + k, s, cap);
            start = end;
        }
        Ok(())
    }

    typed_put_run! {
        /// Write `Int`s as rows `i..` of a refill — a page's run of a
        /// column without NULLs.
        put_ints(i64) => Int, put_int;
        /// Write `Float`s as rows `i..` of a refill.
        put_floats(f64) => Float, put_float;
        /// Write `Date`s as rows `i..` of a refill.
        put_dates(i32) => Date, put_date;
        /// Write `Bool`s as rows `i..` of a refill.
        put_bools(bool) => Bool, put_bool;
    }

    /// Write a NULL as row `i` of a refill.
    #[inline]
    pub fn put_null(&mut self, i: usize) {
        if i >= self.len() {
            return self.push_null();
        }
        self.data.set_placeholder(i);
        if self.data.kind().is_some() {
            set_bit(&mut self.nulls, i);
        }
    }

    /// A `put_*` of a value the vector does not hold: the rows from `i` on
    /// are stale, so they go, and the value is appended.
    #[cold]
    #[inline(never)]
    fn put_slow(&mut self, i: usize, v: Value, cap: usize) {
        if let Data::Mixed(d) = &mut self.data {
            if i < d.len() {
                d[i] = v;
                return;
            }
        }
        self.truncate(i);
        self.push_value_slow(v, cap);
    }

    /// Append one value; `cap` sizes a vector created by this push.
    #[inline]
    pub fn push(&mut self, v: &Value, cap: usize) {
        match (&mut self.data, v) {
            (Data::Int(d), Value::Int(x)) => d.push(*x),
            (Data::Float(d), Value::Float(x)) => d.push(*x),
            (Data::Date(d), Value::Date(x)) => d.push(*x),
            (Data::Bool(d), Value::Bool(x)) => d.push(*x),
            (Data::Str(d), Value::Str(x)) => d.push(x),
            (Data::Mixed(d), v) if !d.is_empty() => d.push(v.clone()),
            (_, v) => self.push_slow(v, cap),
        }
    }

    /// [`Column::push`]'s slow path (see [`Column::push_value_slow`]).
    #[cold]
    #[inline(never)]
    fn push_slow(&mut self, v: &Value, cap: usize) {
        if v.is_null() {
            return self.push_null();
        }
        self.retype(kind_of(v), cap);
        self.push(v, cap);
    }

    /// Append row `i` of `src`.
    #[inline]
    pub fn push_from(&mut self, src: &Column, i: usize, cap: usize) {
        if src.is_null(i) {
            return self.push_null();
        }
        same_typed!(
            &mut self.data,
            &src.data,
            |d, s| d.gather_from(s, std::iter::once(i)),
            self.push(&src.value(i), cap)
        );
    }

    /// Append the rows `idx` of `src`, in that order: one typed copy per
    /// column when the types agree.
    pub fn extend_gather(
        &mut self,
        src: &Column,
        idx: impl Iterator<Item = usize> + Clone,
        cap: usize,
    ) {
        if let Data::Null(_) = src.data {
            return idx.for_each(|_| self.push_null());
        }
        let fits = (matches!(self.data, Data::Mixed(_)) && !self.is_empty())
            || (self.data.kind().is_some() && self.data.kind() == src.data.kind());
        if !fits {
            self.retype(src.data.kind(), cap);
        }
        let base = self.len();
        let typed = same_typed!(
            &mut self.data,
            &src.data,
            |d, s| {
                d.gather_from(s, idx.clone());
                true
            },
            false
        );
        if !typed {
            match &mut self.data {
                Data::Mixed(d) => d.extend(idx.map(|i| src.value(i))),
                _ => unreachable!("retyped for the source"),
            }
            return;
        }
        if src.nulls.is_some() {
            for (k, i) in idx.enumerate() {
                if bit(src.nulls.as_ref(), i) {
                    set_bit(&mut self.nulls, base + k);
                }
            }
        }
    }

    /// Move every row of `other` onto the end.
    pub fn append(&mut self, mut other: Column, cap: usize) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let (base, n) = (self.len(), other.len());
        let moved = same_typed!(
            &mut self.data,
            &mut other.data,
            |d, s| {
                d.append_from(s);
                true
            },
            false
        );
        if !moved {
            return self.extend_gather(&other, 0..n, cap);
        }
        if other.nulls.is_some() {
            for i in 0..n {
                if bit(other.nulls.as_ref(), i) {
                    set_bit(&mut self.nulls, base + i);
                }
            }
        }
    }

    /// Keep the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        each_vec!(&mut self.data, |v| v.truncate(n), |k| *k = (*k).min(n));
        if let Some(words) = &mut self.nulls {
            // Clear the dropped rows' bits: later pushes assume unset. A
            // bitmap that ends before row `n`'s word has no such bits.
            words.truncate(n.div_ceil(64));
            if let (Some(w), 1..) = (words.get_mut(n / 64), n % 64) {
                *w &= (1 << (n % 64)) - 1;
            }
        }
    }

    /// Split off rows `at..` into a column of their own.
    pub fn split_off(&mut self, at: usize) -> Column {
        let data = match &mut self.data {
            Data::Null(n) => {
                let tail = *n - at;
                *n = at;
                Data::Null(tail)
            }
            Data::Int(v) => Data::Int(v.split_off(at)),
            Data::Float(v) => Data::Float(v.split_off(at)),
            Data::Date(v) => Data::Date(v.split_off(at)),
            Data::Bool(v) => Data::Bool(v.split_off(at)),
            Data::Str(v) => Data::Str(v.split_off(at)),
            Data::Mixed(v) => Data::Mixed(v.split_off(at)),
        };
        let mut nulls = None;
        if self.nulls.is_some() {
            for i in at..at + each_vec!(&data, |v| v.len(), |n| *n) {
                if bit(self.nulls.as_ref(), i) {
                    set_bit(&mut nulls, i - at);
                }
            }
            self.truncate(at);
        }
        Column { data, nulls }
    }

    /// Drop every row, keeping the vector for values of the same type.
    pub fn clear(&mut self) {
        each_vec!(&mut self.data, |v| v.clear(), |n| *n = 0);
        self.nulls = None;
    }

    /// `Value` equality of row `i` and row `j` of `other` (NULL equals
    /// NULL): typed compares when both are same-typed vectors without
    /// NULLs, the [`Cell`] order otherwise.
    #[inline]
    pub fn key_eq(&self, i: usize, other: &Column, j: usize) -> bool {
        if self.nulls.is_none() && other.nulls.is_none() {
            match (&self.data, &other.data) {
                (Data::Int(x), Data::Int(y)) => return x[i] == y[j],
                (Data::Date(x), Data::Date(y)) => return x[i] == y[j],
                (Data::Float(x), Data::Float(y)) => return x[i].to_bits() == y[j].to_bits(),
                (Data::Str(x), Data::Str(y)) => return x.bytes_at(i) == y.bytes_at(j),
                _ => {}
            }
        }
        self.cell(i).cmp_total(other.cell(j)) == Ordering::Equal
    }

    /// `Value`'s total order of rows `i` and `j`: typed compares where
    /// there are no NULLs, the [`Cell`] order otherwise.
    #[inline]
    pub fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        if self.nulls.is_none() {
            match &self.data {
                Data::Int(v) => return v[i].cmp(&v[j]),
                Data::Date(v) => return v[i].cmp(&v[j]),
                Data::Float(v) => return v[i].total_cmp(&v[j]),
                Data::Str(v) => return v.bytes_at(i).cmp(v.bytes_at(j)),
                _ => {}
            }
        }
        self.cell(i).cmp_total(self.cell(j))
    }

    /// Vector capacity in values (0 while the column is untyped).
    pub fn capacity(&self) -> usize {
        each_vec!(&self.data, |v| v.capacity(), |_n| 0)
    }

    /// Release the vector's spare capacity (a stored column once its table
    /// is loaded).
    pub fn shrink_to_fit(&mut self) {
        each_vec!(&mut self.data, |v| v.shrink_to_fit(), |_n| ());
        if let Some(words) = &mut self.nulls {
            words.shrink_to_fit();
        }
    }
}

/// A borrowed value: one row of a [`Column`], or a `Value`.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Date(i32),
    Str(&'a str),
}

impl<'a> Cell<'a> {
    #[inline]
    pub fn of(v: &'a Value) -> Self {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Date(d) => Cell::Date(*d),
            Value::Str(s) => Cell::Str(s),
        }
    }

    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Cell::Null)
    }

    /// The owned value (a string is copied into a new `Arc<str>`).
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Date(d) => Value::Date(d),
            Cell::Str(s) => Value::str(s),
        }
    }

    /// `Value::as_f64`.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(i as f64),
            Cell::Float(f) => Some(f),
            Cell::Date(d) => Some(f64::from(d)),
            _ => None,
        }
    }

    /// `Value::type_rank`.
    #[inline]
    fn type_rank(self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Bool(_) => 1,
            Cell::Int(_) => 2,
            Cell::Float(_) => 3,
            Cell::Date(_) => 4,
            Cell::Str(_) => 5,
        }
    }

    /// `Value::cmp_total`, case for case.
    #[inline]
    pub fn cmp_total(self, other: Cell<'_>) -> Ordering {
        use Cell::{Bool, Date, Float, Int, Null, Str};
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(&b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Float(b)) => (a as f64).total_cmp(&b),
            (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Int(a), Date(b)) => a.cmp(&i64::from(b)),
            (Date(a), Int(b)) => i64::from(a).cmp(&b),
            (Float(a), Date(b)) => a.total_cmp(&f64::from(b)),
            (Date(a), Float(b)) => f64::from(a).total_cmp(&b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// `Value::sql_cmp`: `None` when either side is NULL.
    #[inline]
    pub fn sql_cmp(self, other: Cell<'_>) -> Option<Ordering> {
        (!self.is_null() && !other.is_null()).then(|| self.cmp_total(other))
    }
}

/// `Value`'s `Hash`, byte for byte: a cell and the value it views feed a
/// hasher identically.
impl Hash for Cell<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Cell::Null => 0u8.hash(state),
            Cell::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Cell::Int(i) => {
                2u8.hash(state);
                (i as f64).to_bits().hash(state);
            }
            Cell::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Cell::Date(d) => {
                2u8.hash(state);
                f64::from(d).to_bits().hash(state);
            }
            Cell::Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn column(values: &[Value]) -> Column {
        let mut c = Column::default();
        for v in values {
            c.push(v, 0);
        }
        c
    }

    fn values(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    /// Same variant and same value (floats by bit pattern).
    fn identical(a: &[Value], b: &[Value]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                _ => std::mem::discriminant(x) == std::mem::discriminant(y) && x == y,
            })
    }

    fn samples() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(3),
            Value::Int(-7),
            Value::Float(3.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Date(3),
            Value::str("abc"),
            Value::str("abd"),
            Value::str(""),
        ]
    }

    #[test]
    fn a_column_takes_its_first_type_and_mixes_on_a_mismatch() {
        let ints = [Value::Null, Value::Int(1), Value::Null, Value::Int(2)];
        let c = column(&ints);
        assert!(matches!(c.data(), Data::Int(_)));
        assert!(c.has_null_bitmap());
        assert!(identical(&values(&c), &ints));
        // 2 × 8 B of values + one bitmap word.
        assert_eq!(c.bytes(), 4 * 8 + 8);

        let no_nulls = column(&[Value::Float(1.5), Value::Float(2.0)]);
        assert!(
            !no_nulls.has_null_bitmap(),
            "bitmap allocated on the first NULL only"
        );
        assert_eq!(no_nulls.bytes(), 16);

        let mixed = [
            Value::Int(1),
            Value::Null,
            Value::Float(2.5),
            Value::str("x"),
        ];
        let c = column(&mixed);
        assert!(matches!(c.data(), Data::Mixed(_)));
        assert!(identical(&values(&c), &mixed));
        assert!(matches!(
            column(&vec![Value::Null; 3]).data(),
            Data::Null(3)
        ));
    }

    /// A mixed column that is empty again takes the type of whatever
    /// arrives next, through `push` and `push_value` alike; a NULL first
    /// leaves it untyped, and the value after it types it with the NULL's
    /// bit set.
    #[test]
    fn an_emptied_mixed_column_takes_the_next_type() {
        let mixed = || column(&[Value::Int(1), Value::str("x")]);
        for by_value in [false, true] {
            let push = |c: &mut Column, v: Value| {
                if by_value {
                    c.push_value(v, 0);
                } else {
                    c.push(&v, 0);
                }
            };
            let mut c = mixed();
            c.clear();
            push(&mut c, Value::Int(7));
            assert!(matches!(c.data(), Data::Int(_)), "{:?}", c.data());
            assert!(identical(&values(&c), &[Value::Int(7)]));

            let mut c = mixed();
            c.truncate(0);
            push(&mut c, Value::Null);
            assert!(matches!(c.data(), Data::Null(1)), "{:?}", c.data());
            push(&mut c, Value::Int(7));
            assert!(matches!(c.data(), Data::Int(_)), "{:?}", c.data());
            assert!(c.is_null(0) && c.has_null_bitmap());
            assert!(identical(&values(&c), &[Value::Null, Value::Int(7)]));
        }
    }

    #[test]
    fn a_string_column_counts_its_offsets_and_bytes() {
        // n strings of b bytes in all: 4 (n + 1) offset bytes plus b.
        let strs = ["", "a", "héllo", "€€", ""];
        let c = column(&strs.map(Value::str));
        let b: usize = strs.iter().map(|s| s.len()).sum();
        assert!(!c.has_null_bitmap());
        assert_eq!(c.bytes(), 4 * (strs.len() + 1) + b);
        // A NULL adds an empty string's offset and the bitmap's word.
        let c = column(&[Value::str("abc"), Value::Null, Value::str("de")]);
        assert_eq!(c.bytes(), 4 * 4 + 5 + 8);
        // A gather, an append and a split copy the bytes they move.
        let mut g = Column::default();
        g.extend_gather(&c, [2, 0, 2].into_iter(), 0);
        assert_eq!(g.bytes(), 4 * 4 + 7);
        let mut a = column(&[Value::str("xy")]);
        a.append(g, 0);
        assert_eq!(a.bytes(), 4 * 5 + 9);
        let tail = a.split_off(2);
        assert_eq!((a.bytes(), tail.bytes()), (4 * 3 + 4, 4 * 3 + 5));
        assert!(identical(
            &values(&tail),
            &[Value::str("abc"), Value::str("de")]
        ));
    }

    #[test]
    fn gather_append_split_and_truncate_keep_values_and_nulls() {
        let src = column(&samples());
        let idx = [9usize, 0, 2, 0, 11];
        for start in [
            vec![],
            vec![Value::Null],
            vec![Value::Int(5)],
            vec![Value::str("s")],
        ] {
            let mut c = column(&start);
            c.extend_gather(&src, idx.iter().copied(), 0);
            let want: Vec<Value> = start
                .iter()
                .cloned()
                .chain(idx.iter().map(|i| samples()[*i].clone()))
                .collect();
            assert!(identical(&values(&c), &want), "{start:?}");

            let mut a = column(&start);
            a.append(column(&samples()), 0);
            let want: Vec<Value> = start.iter().cloned().chain(samples()).collect();
            assert!(identical(&values(&a), &want), "{start:?}");
            let tail = a.split_off(start.len() + 4);
            assert!(identical(&values(&tail), &samples()[4..]));
            a.truncate(start.len() + 1);
            assert!(identical(&values(&a), &want[..=start.len()]));
        }
        // A NULL bitmap cut mid-word forgets the dropped rows' bits.
        let mut c = column(&[Value::Int(1), Value::Null, Value::Null]);
        c.truncate(1);
        c.push(&Value::Int(2), 0);
        c.push(&Value::Int(3), 0);
        assert!(identical(
            &values(&c),
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        ));
        // A cut past the bitmap's last word keeps every bit in it (a paged
        // refill of 65 rows whose NULLs all sit in the first 64).
        let mut c = column(&[Value::Int(1), Value::Null]);
        (2..70).for_each(|i| c.push(&Value::Int(i), 0));
        c.truncate(65);
        assert!(c.is_null(1) && !c.is_null(0) && !c.is_null(64));
    }

    #[test]
    fn a_refill_overwrites_in_place_and_ends_at_its_rows() {
        let s = |x: &str| Value::str(x);
        // Stale rows of the refill's own type: written over, NULL bits
        // from this refill only, the stale tail cut.
        let mut c = column(&[s("a"), Value::Null, s("c"), s("d"), s("e")]);
        let cap = c.capacity();
        let bytes = |c: &Column| match c.data() {
            Data::Str(v) => v.byte_capacity(),
            _ => unreachable!("a string column"),
        };
        let heap = bytes(&c);
        c.begin_refill();
        c.put_str(0, "x", 0);
        c.put_null(1);
        c.put_str(2, "y", 0);
        c.truncate(3);
        assert!(identical(&values(&c), &[s("x"), Value::Null, s("y")]));
        assert_eq!(c.capacity(), cap, "the vector was reused");
        c.begin_refill();
        c.put_str(0, "z", 0);
        c.put_fmt(1, format_args!("w{}", 1), 0);
        c.truncate(2);
        assert!(identical(&values(&c), &[s("z"), s("w1")]));
        assert!(!c.has_null_bitmap(), "no NULL in this refill");
        assert_eq!(
            (c.capacity(), bytes(&c)),
            (cap, heap),
            "both buffers were reused"
        );
        // A run of strings: one copy onto the rows written so far, each end
        // checked; a bad end is its index.
        c.begin_refill();
        c.put_str(0, "é", 0);
        assert_eq!(c.put_str_run(1, "ab€", [1, 1, 5].into_iter(), 0), Ok(()));
        c.truncate(4);
        assert!(identical(&values(&c), &[s("é"), s("a"), s(""), s("b€")]));
        c.begin_refill();
        assert_eq!(
            c.put_str_run(0, "ab€", [1, 3].into_iter(), 0),
            Err(1),
            "inside the €"
        );
        assert_eq!(
            c.put_str_run(0, "ab€", [2, 1].into_iter(), 0),
            Err(1),
            "backwards"
        );
        assert_eq!(
            c.put_str_run(0, "ab", [3].into_iter(), 0),
            Err(0),
            "past the run"
        );
        let mut ints = column(&[Value::Int(1)]);
        ints.begin_refill();
        assert_eq!(ints.put_str_run(0, "ab", [1, 2].into_iter(), 0), Ok(()));
        assert!(identical(&values(&ints), &[s("a"), s("b")]));
        // A value of another type mid-refill, and rows past the stale ones.
        let mut c = column(&[Value::Int(7), Value::Int(8)]);
        c.begin_refill();
        c.put_int(0, 1, 0);
        c.put_float(1, 2.5, 0);
        c.put_int(2, 3, 0);
        c.put_null(3);
        c.truncate(4);
        let want = [Value::Int(1), Value::Float(2.5), Value::Int(3), Value::Null];
        assert!(identical(&values(&c), &want));
        // An all-NULL column takes the type of its first value again.
        let mut c = column(&[Value::Null, Value::Null]);
        c.begin_refill();
        c.put_null(0);
        c.put_date(1, 4, 0);
        c.put_bool(2, true, 0);
        c.truncate(3);
        assert!(identical(
            &values(&c),
            &[Value::Null, Value::Date(4), Value::Bool(true)]
        ));
        // Runs: over stale rows of their type after a NULL, and over a
        // column of another type (a value at a time, the stale rows cut).
        let mut c = column(&[Value::Int(9), Value::Int(9), Value::Int(9), Value::Int(9)]);
        c.begin_refill();
        c.put_null(0);
        c.put_ints(1, [1, 2].into_iter(), 0);
        c.truncate(3);
        assert!(identical(
            &values(&c),
            &[Value::Null, Value::Int(1), Value::Int(2)]
        ));
        let mut c = column(&[Value::Int(9), Value::Int(9)]);
        c.begin_refill();
        c.put_floats(0, [0.5].into_iter(), 0);
        c.put_dates(1, [3, 4].into_iter(), 0);
        c.put_bools(3, [true].into_iter(), 0);
        c.truncate(4);
        let want = [
            Value::Float(0.5),
            Value::Date(3),
            Value::Date(4),
            Value::Bool(true),
        ];
        assert!(identical(&values(&c), &want));
    }

    #[test]
    fn cells_order_compare_and_hash_like_values() {
        let all = samples();
        let c = column(&all);
        for (i, a) in all.iter().enumerate() {
            let hash = |h: &dyn Fn(&mut DefaultHasher)| {
                let mut s = DefaultHasher::new();
                h(&mut s);
                s.finish()
            };
            assert_eq!(hash(&|s| a.hash(s)), hash(&|s| c.cell(i).hash(s)), "{a:?}");
            for (j, b) in all.iter().enumerate() {
                assert_eq!(
                    c.cell(i).cmp_total(c.cell(j)),
                    a.cmp_total(b),
                    "{a:?} {b:?}"
                );
                assert_eq!(c.cell(i).sql_cmp(Cell::of(b)), a.sql_cmp(b));
                assert_eq!(c.key_eq(i, &c, j), a == b, "{a:?} {b:?}");
            }
        }
        // Typed fast paths agree with the cell order.
        let ints = column(&[Value::Int(2), Value::Int(1), Value::Int(2)]);
        let floats = column(&[
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
        ]);
        assert!(ints.key_eq(0, &ints, 2) && !ints.key_eq(0, &ints, 1));
        assert!(
            !floats.key_eq(0, &floats, 1),
            "-0.0 and 0.0 differ under total_cmp"
        );
        assert!(floats.key_eq(2, &floats, 2), "NaN equals itself");
        assert_eq!(floats.cmp_rows(0, 1), Ordering::Less);
        assert_eq!(floats.cmp_rows(2, 1), Ordering::Greater, "NaN sorts last");
        assert_eq!(ints.cmp_rows(1, 0), Ordering::Less);
    }
}
