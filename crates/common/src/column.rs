//! Columnar storage: typed column vectors with null bitmaps and
//! dictionary-encoded strings.
//!
//! A [`ColumnVec`] is the physical layout behind [`TupleBatch`] and
//! [`Relation`]: one contiguous vector per column instead of one `Vec`
//! per row. Numeric and boolean columns store their values unboxed with
//! a separate [`NullBitmap`]; string columns are dictionary-encoded
//! (`u32` codes into a shared, reference-counted dictionary) because the
//! TPC-H string columns the paper publishes are highly repetitive.
//! Columns whose values mix classes — including `Int` next to `Float`,
//! which render differently and therefore must never be coerced — fall
//! back to the [`ColumnVec::Mixed`] row-value layout, so the columnar
//! representation is always lossless with respect to [`Value`]s.
//!
//! [`TupleBatch`]: crate::TupleBatch
//! [`Relation`]: crate::Relation

use crate::value::Value;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// A validity bitmap: bit *set* means the slot is NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        NullBitmap::default()
    }

    /// A bitmap of `len` valid (non-null) slots.
    pub fn all_valid(len: usize) -> Self {
        NullBitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// A bitmap of `len` null slots.
    pub fn all_null(len: usize) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        // Keep the unused tail bits zero so `PartialEq` stays structural.
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= !0u64 >> (64 - len % 64);
            }
        }
        NullBitmap { words, len }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one slot.
    pub fn push(&mut self, null: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if null {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    /// Is slot `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Does any slot hold NULL? One word-compare per 64 slots.
    pub fn any_null(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// Keep only the slots whose mask entry is true.
    pub fn retain(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len);
        let mut out = NullBitmap::new();
        for (i, keep) in mask.iter().enumerate() {
            if *keep {
                out.push(self.is_null(i));
            }
        }
        *self = out;
    }

    /// The sub-bitmap over `range`.
    pub fn slice(&self, range: Range<usize>) -> NullBitmap {
        debug_assert!(range.end <= self.len);
        let mut out = NullBitmap::new();
        for i in range {
            out.push(self.is_null(i));
        }
        out
    }

    /// The slots at `indices`, gathered in order.
    pub fn gather(&self, indices: &[usize]) -> NullBitmap {
        let mut out = NullBitmap::new();
        for &i in indices {
            out.push(self.is_null(i));
        }
        out
    }
}

/// A string dictionary: distinct values plus a reverse lookup. Shared
/// (`Arc`) between a column and its slices, so slicing a dictionary
/// column copies only the codes.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    values: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl StrDict {
    /// The code for `s`, interning it on first sight.
    fn intern(&mut self, s: Arc<str>) -> u32 {
        if let Some(&code) = self.lookup.get(&s) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(s.clone());
        self.lookup.insert(s, code);
        code
    }

    /// The string behind `code`.
    pub fn value(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Value class a typed column can specialise on. `Int` and `Float` are
/// deliberately distinct: `Value::render` distinguishes them (`2` vs
/// `2.0`), so coercing one into the other would change published XML.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Bool,
    Int,
    Float,
    Str,
}

fn class_of(v: &Value) -> Option<Class> {
    match v {
        Value::Null => None,
        Value::Bool(_) => Some(Class::Bool),
        Value::Int(_) => Some(Class::Int),
        Value::Float(_) => Some(Class::Float),
        Value::Str(_) => Some(Class::Str),
    }
}

/// One typed column of values.
///
/// Equality is *logical* (same length, same [`Value`] at every slot), so
/// a `Mixed` column equals the typed column holding the same values.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// 64-bit integers with a null bitmap.
    Int { data: Vec<i64>, nulls: NullBitmap },
    /// 64-bit floats with a null bitmap. Bit patterns are preserved
    /// exactly (no normalisation), so round-tripping is loss-free.
    Float { data: Vec<f64>, nulls: NullBitmap },
    /// Booleans with a null bitmap.
    Bool { data: Vec<bool>, nulls: NullBitmap },
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict` (the
    /// code under a set null bit is meaningless and never read).
    Str { dict: Arc<StrDict>, codes: Vec<u32>, nulls: NullBitmap },
    /// A column that is entirely NULL.
    Null { len: usize },
    /// Fallback for columns mixing value classes: plain row values.
    Mixed(Vec<Value>),
}

impl ColumnVec {
    /// Build the best-fitting representation for `values`: a typed
    /// vector when every non-null value shares one class, `Null` when
    /// all values are NULL, `Mixed` otherwise.
    pub fn from_values(values: Vec<Value>) -> ColumnVec {
        let mut class = None;
        for v in &values {
            match (class, class_of(v)) {
                (_, None) => {}
                (None, c) => class = c,
                (Some(a), Some(b)) if a == b => {}
                _ => return ColumnVec::Mixed(values),
            }
        }
        match class {
            None => ColumnVec::Null { len: values.len() },
            Some(Class::Int) => {
                let mut data = Vec::with_capacity(values.len());
                let mut nulls = NullBitmap::new();
                for v in values {
                    match v {
                        Value::Int(i) => {
                            data.push(i);
                            nulls.push(false);
                        }
                        _ => {
                            data.push(0);
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Int { data, nulls }
            }
            Some(Class::Float) => {
                let mut data = Vec::with_capacity(values.len());
                let mut nulls = NullBitmap::new();
                for v in values {
                    match v {
                        Value::Float(f) => {
                            data.push(f);
                            nulls.push(false);
                        }
                        _ => {
                            data.push(0.0);
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Float { data, nulls }
            }
            Some(Class::Bool) => {
                let mut data = Vec::with_capacity(values.len());
                let mut nulls = NullBitmap::new();
                for v in values {
                    match v {
                        Value::Bool(b) => {
                            data.push(b);
                            nulls.push(false);
                        }
                        _ => {
                            data.push(false);
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Bool { data, nulls }
            }
            Some(Class::Str) => {
                let mut dict = StrDict::default();
                let mut codes = Vec::with_capacity(values.len());
                let mut nulls = NullBitmap::new();
                for v in values {
                    match v {
                        Value::Str(s) => {
                            codes.push(dict.intern(s));
                            nulls.push(false);
                        }
                        _ => {
                            codes.push(0);
                            nulls.push(true);
                        }
                    }
                }
                ColumnVec::Str { dict: Arc::new(dict), codes, nulls }
            }
        }
    }

    /// A column of `len` copies of `v`.
    pub fn broadcast(v: Value, len: usize) -> ColumnVec {
        match v {
            Value::Null => ColumnVec::Null { len },
            Value::Int(i) => {
                ColumnVec::Int { data: vec![i; len], nulls: NullBitmap::all_valid(len) }
            }
            Value::Float(f) => {
                ColumnVec::Float { data: vec![f; len], nulls: NullBitmap::all_valid(len) }
            }
            Value::Bool(b) => {
                ColumnVec::Bool { data: vec![b; len], nulls: NullBitmap::all_valid(len) }
            }
            Value::Str(s) => {
                let mut dict = StrDict::default();
                let code = dict.intern(s);
                ColumnVec::Str {
                    dict: Arc::new(dict),
                    codes: vec![code; len],
                    nulls: NullBitmap::all_valid(len),
                }
            }
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Str { codes, .. } => codes.len(),
            ColumnVec::Null { len } => *len,
            ColumnVec::Mixed(v) => v.len(),
        }
    }

    /// Whether the column covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at slot `i` (cloned; string payloads are `Arc` bumps).
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            ColumnVec::Float { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            ColumnVec::Bool { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            ColumnVec::Str { dict, codes, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(dict.value(codes[i]).clone())
                }
            }
            ColumnVec::Null { len } => {
                debug_assert!(i < *len);
                Value::Null
            }
            ColumnVec::Mixed(v) => v[i].clone(),
        }
    }

    /// Is the value at slot `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Bool { nulls, .. }
            | ColumnVec::Str { nulls, .. } => nulls.is_null(i),
            ColumnVec::Null { .. } => true,
            ColumnVec::Mixed(v) => matches!(v[i], Value::Null),
        }
    }

    /// Does the column hold any NULL? Cheap for typed columns (bitmap
    /// word scan).
    pub fn any_null(&self) -> bool {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Bool { nulls, .. }
            | ColumnVec::Str { nulls, .. } => nulls.any_null(),
            ColumnVec::Null { len } => *len > 0,
            ColumnVec::Mixed(v) => v.iter().any(|x| matches!(x, Value::Null)),
        }
    }

    /// Append one value, degrading to `Mixed` on a class mismatch.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColumnVec::Int { data, nulls }, Value::Int(i)) => {
                data.push(i);
                nulls.push(false);
            }
            (ColumnVec::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (ColumnVec::Float { data, nulls }, Value::Float(f)) => {
                data.push(f);
                nulls.push(false);
            }
            (ColumnVec::Float { data, nulls }, Value::Null) => {
                data.push(0.0);
                nulls.push(true);
            }
            (ColumnVec::Bool { data, nulls }, Value::Bool(b)) => {
                data.push(b);
                nulls.push(false);
            }
            (ColumnVec::Bool { data, nulls }, Value::Null) => {
                data.push(false);
                nulls.push(true);
            }
            (ColumnVec::Str { dict, codes, nulls }, Value::Str(s)) => {
                codes.push(Arc::make_mut(dict).intern(s));
                nulls.push(false);
            }
            (ColumnVec::Str { codes, nulls, .. }, Value::Null) => {
                codes.push(0);
                nulls.push(true);
            }
            (ColumnVec::Null { len }, Value::Null) => *len += 1,
            (ColumnVec::Null { len }, other) => {
                // First non-null value after a run of NULLs: rebuild as
                // a typed column carrying the leading nulls.
                let mut values = vec![Value::Null; *len];
                values.push(other);
                *self = ColumnVec::from_values(values);
            }
            (ColumnVec::Mixed(vals), other) => vals.push(other),
            (this, other) => {
                // Class mismatch: degrade to the row-value layout.
                let mut vals = this.take_values();
                vals.push(other);
                *this = ColumnVec::Mixed(vals);
            }
        }
    }

    /// Consume into plain values.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            ColumnVec::Mixed(v) => v,
            other => (0..other.len()).map(|i| other.get(i)).collect(),
        }
    }

    /// Drain into plain values, leaving an empty column behind.
    fn take_values(&mut self) -> Vec<Value> {
        std::mem::replace(self, ColumnVec::Null { len: 0 }).into_values()
    }

    /// Keep only the slots whose mask entry is true.
    pub fn retain(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len(), "selection mask length mismatch");
        match self {
            ColumnVec::Int { data, nulls } => {
                compact(data, mask);
                nulls.retain(mask);
            }
            ColumnVec::Float { data, nulls } => {
                compact(data, mask);
                nulls.retain(mask);
            }
            ColumnVec::Bool { data, nulls } => {
                compact(data, mask);
                nulls.retain(mask);
            }
            ColumnVec::Str { codes, nulls, .. } => {
                compact(codes, mask);
                nulls.retain(mask);
            }
            ColumnVec::Null { len } => *len = mask.iter().filter(|k| **k).count(),
            ColumnVec::Mixed(vals) => {
                let mut i = 0;
                vals.retain(|_| {
                    let keep = mask[i];
                    i += 1;
                    keep
                });
            }
        }
    }

    /// The sub-column over `range`. String slices share the dictionary.
    pub fn slice(&self, range: Range<usize>) -> ColumnVec {
        match self {
            ColumnVec::Int { data, nulls } => {
                ColumnVec::Int { data: data[range.clone()].to_vec(), nulls: nulls.slice(range) }
            }
            ColumnVec::Float { data, nulls } => {
                ColumnVec::Float { data: data[range.clone()].to_vec(), nulls: nulls.slice(range) }
            }
            ColumnVec::Bool { data, nulls } => {
                ColumnVec::Bool { data: data[range.clone()].to_vec(), nulls: nulls.slice(range) }
            }
            ColumnVec::Str { dict, codes, nulls } => ColumnVec::Str {
                dict: dict.clone(),
                codes: codes[range.clone()].to_vec(),
                nulls: nulls.slice(range),
            },
            ColumnVec::Null { .. } => ColumnVec::Null { len: range.len() },
            ColumnVec::Mixed(vals) => ColumnVec::Mixed(vals[range].to_vec()),
        }
    }

    /// The slots at `indices`, gathered in order (the sort/permutation
    /// primitive). String gathers share the dictionary.
    pub fn gather(&self, indices: &[usize]) -> ColumnVec {
        match self {
            ColumnVec::Int { data, nulls } => ColumnVec::Int {
                data: indices.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(indices),
            },
            ColumnVec::Float { data, nulls } => ColumnVec::Float {
                data: indices.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(indices),
            },
            ColumnVec::Bool { data, nulls } => ColumnVec::Bool {
                data: indices.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(indices),
            },
            ColumnVec::Str { dict, codes, nulls } => ColumnVec::Str {
                dict: dict.clone(),
                codes: indices.iter().map(|&i| codes[i]).collect(),
                nulls: nulls.gather(indices),
            },
            ColumnVec::Null { .. } => ColumnVec::Null { len: indices.len() },
            ColumnVec::Mixed(vals) => {
                ColumnVec::Mixed(indices.iter().map(|&i| vals[i].clone()).collect())
            }
        }
    }

    /// The dictionary behind a `Str` column, `None` for every other
    /// representation. Exposed so callers (and the append-path perf
    /// tests) can check dictionary *identity*: appends must extend the
    /// existing `Arc<StrDict>` in place — copy-on-write only when a
    /// scan slice still shares it — never rebuild it per batch.
    pub fn str_dict(&self) -> Option<&Arc<StrDict>> {
        match self {
            ColumnVec::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }
}

/// Keep `data[i]` exactly when `mask[i]`, in place.
fn compact<T: Copy>(data: &mut Vec<T>, mask: &[bool]) {
    let mut w = 0;
    for (i, keep) in mask.iter().enumerate() {
        if *keep {
            data[w] = data[i];
            w += 1;
        }
    }
    data.truncate(w);
}

impl PartialEq for ColumnVec {
    /// Logical equality: same length and same value at every slot,
    /// regardless of physical representation.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(col: &ColumnVec) -> Vec<Value> {
        (0..col.len()).map(|i| col.get(i)).collect()
    }

    #[test]
    fn typed_round_trip_preserves_values() {
        let cases = vec![
            vec![Value::Int(1), Value::Null, Value::Int(-3)],
            vec![Value::Float(1.5), Value::Float(-0.0), Value::Null],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::str("a"), Value::str("b"), Value::str("a"), Value::Null],
            vec![Value::Null, Value::Null],
            vec![],
        ];
        for case in cases {
            let col = ColumnVec::from_values(case.clone());
            assert_eq!(vals(&col), case);
            assert_eq!(col.clone().into_values(), case);
        }
    }

    #[test]
    fn int_next_to_float_stays_mixed_not_promoted() {
        let case = vec![Value::Int(2), Value::Float(2.0)];
        let col = ColumnVec::from_values(case.clone());
        assert!(matches!(col, ColumnVec::Mixed(_)), "{col:?}");
        // Rendering must survive: 2 vs 2.0 are distinct documents.
        assert_eq!(col.get(0).render(), "2");
        assert_eq!(col.get(1).render(), "2.0");
    }

    #[test]
    fn strings_are_dictionary_encoded() {
        let col = ColumnVec::from_values(vec![
            Value::str("x"),
            Value::str("y"),
            Value::str("x"),
            Value::str("x"),
        ]);
        match &col {
            ColumnVec::Str { dict, codes, .. } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes, &vec![0, 1, 0, 0]);
            }
            other => panic!("expected dictionary column, got {other:?}"),
        }
    }

    #[test]
    fn push_degrades_on_class_mismatch() {
        let mut col = ColumnVec::from_values(vec![Value::Int(1)]);
        col.push(Value::str("oops"));
        assert_eq!(vals(&col), vec![Value::Int(1), Value::str("oops")]);
        let mut nulls = ColumnVec::from_values(vec![Value::Null, Value::Null]);
        nulls.push(Value::Int(7));
        assert_eq!(vals(&nulls), vec![Value::Null, Value::Null, Value::Int(7)]);
    }

    #[test]
    fn retain_slice_gather_agree_with_row_semantics() {
        let case = vec![Value::str("a"), Value::Null, Value::str("c"), Value::str("a")];
        let mut col = ColumnVec::from_values(case.clone());
        assert_eq!(vals(&col.slice(1..3)), vec![Value::Null, Value::str("c")]);
        assert_eq!(
            vals(&col.gather(&[3, 0, 3])),
            vec![Value::str("a"), Value::str("a"), Value::str("a")]
        );
        col.retain(&[true, false, true, false]);
        assert_eq!(vals(&col), vec![Value::str("a"), Value::str("c")]);
    }

    #[test]
    fn logical_equality_ignores_representation() {
        let typed = ColumnVec::from_values(vec![Value::Int(1), Value::Null]);
        let mixed = ColumnVec::Mixed(vec![Value::Int(1), Value::Null]);
        assert_eq!(typed, mixed);
    }

    #[test]
    fn str_append_path_extends_dict_in_place() {
        // The update workload's append path: pushing rows into a string
        // column must extend the existing dictionary, not rebuild it.
        // With sole ownership the Arc is mutated in place — identity
        // (pointer) is preserved across appends, known and novel alike.
        let mut col = ColumnVec::from_values(vec![Value::str("a"), Value::str("b")]);
        let before = Arc::as_ptr(col.str_dict().expect("string column"));
        for v in ["a", "c", "d", "a", "e"] {
            col.push(Value::str(v));
        }
        let dict = col.str_dict().expect("still a string column");
        assert_eq!(Arc::as_ptr(dict), before, "append must not rebuild the dictionary");
        assert_eq!(dict.len(), 5, "distinct strings interned incrementally");
        assert_eq!(col.get(6), Value::str("e"));

        // Copy-on-write kicks in exactly when a scan slice shares the
        // dictionary: the next push clones once, after which the column
        // owns its dict uniquely again and identity is stable anew.
        let slice = col.slice(0..3);
        assert!(Arc::ptr_eq(col.str_dict().unwrap(), slice.str_dict().unwrap()));
        col.push(Value::str("f"));
        let forked = Arc::as_ptr(col.str_dict().unwrap());
        assert_ne!(forked, Arc::as_ptr(slice.str_dict().unwrap()), "COW forked the shared dict");
        col.push(Value::str("g"));
        assert_eq!(Arc::as_ptr(col.str_dict().unwrap()), forked, "unique again: no more clones");
        // Deletes compact codes but never touch the dictionary.
        let keep: Vec<bool> = (0..col.len()).map(|i| i % 2 == 0).collect();
        col.retain(&keep);
        assert_eq!(Arc::as_ptr(col.str_dict().unwrap()), forked);
    }

    #[test]
    fn null_bitmap_word_boundaries() {
        let mut bm = NullBitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        for i in 0..130 {
            assert_eq!(bm.is_null(i), i % 3 == 0, "slot {i}");
        }
        assert!(bm.any_null());
        assert!(!NullBitmap::all_valid(200).any_null());
        let an = NullBitmap::all_null(70);
        assert!((0..70).all(|i| an.is_null(i)));
        assert_eq!(an, {
            let mut b = NullBitmap::new();
            for _ in 0..70 {
                b.push(true);
            }
            b
        });
    }
}
