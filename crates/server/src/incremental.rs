//! Incremental publishing: delta-maintained published documents.
//!
//! A full publish runs the whole sorted-outer-union and tags every row
//! — O(data) no matter how little changed. This module makes republish
//! cost proportional to the *change* instead. The key structural fact
//! is the sort order the SOU guarantees: the stream is clustered by the
//! root element's key, so every root group's subtree is one contiguous
//! byte range of the document. That makes the root group the natural
//! splice unit:
//!
//! 1. the first publish runs the full SOU but records, per root key,
//!    the byte range its subtree occupies ([`segment_rows`]);
//! 2. a republish asks the catalog for the [`DeltaBatch`](xmlpub_common::DeltaBatch)es applied
//!    since the cached document was built, pushes them through the plan
//!    ([`xmlpub_engine::dirty_keys`]) to find which root groups they can
//!    possibly have touched;
//! 3. a *restricted* SOU — the same plan with each branch's root scan
//!    filtered to the dirty keys
//!    ([`xmlpub_xml::sorted_outer_union_for_keys`]) — re-tags only the
//!    dirty groups;
//! 4. [`splice`] merges the fresh segments with the clean groups'
//!    cached bytes, copied verbatim, into a new document.
//!
//! Correctness bar: the spliced document is byte-identical to a
//! from-scratch publish, always. That holds because (a) the restricted
//! plan produces exactly the full plan's rows for those keys, in the
//! same order (primary-key discipline means no sort-prefix ties, so
//! per-group row order is fully determined by the sort keys); (b) the
//! tagger is deterministic per group given its rows; and (c) groups the
//! deltas could not have touched — `dirty_keys` is a *superset* of the
//! truly changed keys — have unchanged rows and therefore unchanged
//! bytes. Whenever any link in that chain is unavailable (plan shape
//! the propagator doesn't handle, delta log trimmed, too large a dirty
//! fraction to be worth it), the caller falls back to a full segmented
//! recompute — slower, never wrong.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use xmlpub::Sink;
use xmlpub_algebra::LogicalPlan;
use xmlpub_common::{Error, Result, Schema, Tuple, TupleBatch};
use xmlpub_xml::souq::TagPlan;
use xmlpub_xml::StreamingTagger;

/// One root group's slice of the published document.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The root element's key values (in `root.key_columns` order).
    pub key: Tuple,
    /// Byte range of the group's subtree within [`SegmentedDoc::bytes`].
    pub range: Range<usize>,
    /// SOU rows tagged into this segment.
    pub rows: u64,
}

/// A published document with per-root-group byte ranges: the skeleton
/// an incremental republish splices into.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedDoc {
    /// The complete document text (UTF-8).
    pub bytes: Vec<u8>,
    /// `bytes[..header_len]` is everything before the first root group
    /// (the XML declaration and the open document element).
    pub header_len: usize,
    /// `bytes[footer_start..]` is everything after the last root group
    /// (the document element's close tag).
    pub footer_start: usize,
    /// Root groups in stream order — which is root-key order, because
    /// the SOU sorts by the root key first.
    pub segments: Vec<Segment>,
    /// Whether the document was tagged with pretty-printing.
    pub pretty: bool,
}

impl SegmentedDoc {
    /// Total SOU rows across all segments.
    pub fn rows(&self) -> u64 {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// The bytes of one segment.
    pub fn segment_bytes(&self, seg: &Segment) -> &[u8] {
        &self.bytes[seg.range.clone()]
    }
}

/// Drives the key-clustered SOU stream through the tagger while
/// recording, per root group, the byte range its subtree occupies — the
/// segmented-XML [`Sink`] of the request path.
///
/// The boundary protocol piggybacks on the tagger's own state machine:
/// before tagging a root row we force-close every open element (the
/// tagger would do exactly that anyway for a depth-0 row, so the bytes
/// are unchanged) and read the sink position — that position is both
/// the end of the previous group and the start of the next.
pub struct Segmenter<'p> {
    tagger: StreamingTagger<'p, Vec<u8>>,
    tag_plan: &'p TagPlan,
    pretty: bool,
    header_len: usize,
    segments: Vec<Segment>,
    /// (key, start offset, rows so far) of the group being tagged.
    current: Option<(Tuple, usize, u64)>,
}

impl<'p> Segmenter<'p> {
    /// Open the document; nothing is segmented until the first row.
    pub fn new(tag_plan: &'p TagPlan, pretty: bool) -> Result<Self> {
        let mut tagger = StreamingTagger::new(Vec::new(), tag_plan, pretty);
        tagger.open_document()?;
        let header_len = tagger.sink().len();
        Ok(Segmenter { tagger, tag_plan, pretty, header_len, segments: Vec::new(), current: None })
    }

    /// Tag one row, closing the previous segment at a root row.
    pub fn write_row(&mut self, row: &Tuple) -> Result<()> {
        if self.tag_plan.is_root_row(row)? {
            self.tagger.close_open_elements()?;
            let pos = self.tagger.sink().len();
            if let Some((key, start, rows)) = self.current.take() {
                self.segments.push(Segment { key, range: start..pos, rows });
            }
            self.current = Some((self.tag_plan.root_key_of(row), pos, 0));
        } else if self.current.is_none() {
            return Err(Error::exec(
                "sorted-outer-union stream starts with a non-root row; cannot segment",
            ));
        }
        self.tagger.write_row(row)?;
        if let Some(c) = self.current.as_mut() {
            c.2 += 1;
        }
        Ok(())
    }

    /// Close the last segment and the document.
    pub fn finish(mut self) -> Result<SegmentedDoc> {
        self.tagger.close_open_elements()?;
        let footer_start = self.tagger.sink().len();
        if let Some((key, start, rows)) = self.current.take() {
            self.segments.push(Segment { key, range: start..footer_start, rows });
        }
        Ok(SegmentedDoc {
            bytes: self.tagger.finish()?,
            header_len: self.header_len,
            footer_start,
            segments: self.segments,
            pretty: self.pretty,
        })
    }
}

impl Sink for Segmenter<'_> {
    type Output = SegmentedDoc;

    fn write_batch(&mut self, batch: TupleBatch) -> Result<()> {
        batch.rows().iter().try_for_each(|row| self.write_row(row))
    }

    fn finish(self, _schema: &Schema) -> Result<SegmentedDoc> {
        Segmenter::finish(self)
    }

    fn tags_pretty(&self) -> Option<bool> {
        Some(self.pretty)
    }
}

/// Segment an already materialised SOU result (see [`Segmenter`]).
pub fn segment_rows<'a, I>(rows: I, tag_plan: &TagPlan, pretty: bool) -> Result<SegmentedDoc>
where
    I: IntoIterator<Item = &'a Tuple>,
{
    let mut segmenter = Segmenter::new(tag_plan, pretty)?;
    rows.into_iter().try_for_each(|row| segmenter.write_row(row))?;
    segmenter.finish()
}

/// Splice `fresh` (the re-tagged dirty groups) into `cached`:
///
/// * a cached group whose key is *not* dirty is copied verbatim;
/// * a dirty key present in `fresh` takes its fresh bytes (covers both
///   modified and newly inserted groups);
/// * a dirty key absent from `fresh` is dropped (the group was deleted).
///
/// Both segment lists are sorted by `Tuple`'s `Ord` (lexicographic
/// `Value::total_cmp`: the SOU's own sort order, and `dirty_keys`'s) and
/// their surviving keys are disjoint — clean keys come only from
/// `cached`, dirty keys only from `fresh` — so this is a plain two-way
/// merge. `dirty` must be sorted the same way.
pub fn splice(cached: &SegmentedDoc, dirty: &[Tuple], fresh: &SegmentedDoc) -> SegmentedDoc {
    debug_assert_eq!(cached.pretty, fresh.pretty);
    let is_dirty = |key: &Tuple| dirty.binary_search(key).is_ok();
    let clean: Vec<&Segment> = cached.segments.iter().filter(|s| !is_dirty(&s.key)).collect();

    let header = &cached.bytes[..cached.header_len];
    let footer = &cached.bytes[cached.footer_start..];
    let body_estimate: usize = clean.iter().map(|s| s.range.len()).sum::<usize>()
        + (fresh.footer_start - fresh.header_len);
    let mut bytes = Vec::with_capacity(header.len() + body_estimate + footer.len());
    bytes.extend_from_slice(header);

    let mut segments = Vec::with_capacity(clean.len() + fresh.segments.len());
    let mut push = |src: &SegmentedDoc, seg: &Segment, out: &mut Vec<u8>| {
        let start = out.len();
        out.extend_from_slice(src.segment_bytes(seg));
        segments.push(Segment { key: seg.key.clone(), range: start..out.len(), rows: seg.rows });
    };
    let (mut i, mut j) = (0, 0);
    while i < clean.len() || j < fresh.segments.len() {
        let take_clean = match (clean.get(i), fresh.segments.get(j)) {
            (Some(c), Some(f)) => c.key < f.key,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_clean {
            push(cached, clean[i], &mut bytes);
            i += 1;
        } else {
            push(fresh, &fresh.segments[j], &mut bytes);
            j += 1;
        }
    }
    let footer_start = bytes.len();
    bytes.extend_from_slice(footer);
    SegmentedDoc { bytes, header_len: header.len(), footer_start, segments, pretty: cached.pretty }
}

/// Every base table a plan scans (lowercased, deduplicated) — the
/// tables whose catalog versions a cached document must remember.
pub fn scan_tables(plan: &LogicalPlan) -> BTreeSet<String> {
    fn walk(plan: &LogicalPlan, out: &mut BTreeSet<String>) {
        if let LogicalPlan::Scan { table, .. } = plan {
            out.insert(table.to_ascii_lowercase());
        }
        for child in plan.children() {
            walk(child, out);
        }
    }
    let mut out = BTreeSet::new();
    walk(plan, &mut out);
    out
}

/// How a republish was served; [`crate::Session::republish`] returns
/// this next to the document so callers (CLI, bench, load harness) can
/// report and assert on the path taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepublishOutcome {
    /// Full segmented recompute; `reason` says why incremental was not
    /// possible or not worthwhile.
    Full {
        /// `first-publish`, `delta-log-trimmed`, `unsupported-plan` or
        /// `dirty-fraction`.
        reason: &'static str,
    },
    /// Nothing changed since the cached document was built; the cached
    /// bytes are returned as-is.
    Clean,
    /// Dirty groups re-tagged through the restricted plan, clean groups
    /// spliced verbatim from the cache.
    Incremental {
        /// Root groups the deltas may have touched (re-tagged).
        dirty_groups: usize,
        /// Cached root groups copied without re-tagging.
        spliced_groups: usize,
    },
}

impl RepublishOutcome {
    /// True when the cached document was reused (not a full recompute).
    pub fn is_incremental(&self) -> bool {
        matches!(self, RepublishOutcome::Clean | RepublishOutcome::Incremental { .. })
    }
}

impl fmt::Display for RepublishOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepublishOutcome::Full { reason } => write!(f, "full recompute ({reason})"),
            RepublishOutcome::Clean => write!(f, "clean (no changes since last publish)"),
            RepublishOutcome::Incremental { dirty_groups, spliced_groups } => write!(
                f,
                "incremental ({dirty_groups} dirty group(s) re-tagged, {spliced_groups} spliced)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub::Database;
    use xmlpub_common::Value;
    use xmlpub_xml::{sorted_outer_union, sorted_outer_union_for_keys, supplier_parts_view};

    fn key(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    /// The segmented full publish must be byte-identical to the plain
    /// streaming publish, and its segments must tile the body exactly.
    #[test]
    fn segmented_publish_matches_streaming_publish() {
        let db = Database::tpch(0.001).unwrap();
        let view = supplier_parts_view(db.catalog()).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let (rel, _) = db.execute_plan(&sou.plan).unwrap();
        for pretty in [false, true] {
            let doc = segment_rows(rel.rows(), &sou.tag_plan, pretty).unwrap();
            let direct = db.publish(&view, pretty).unwrap();
            assert_eq!(String::from_utf8(doc.bytes.clone()).unwrap(), direct);
            // Segments tile [header_len, footer_start) without gaps.
            let mut pos = doc.header_len;
            for seg in &doc.segments {
                assert_eq!(seg.range.start, pos, "gap before {:?}", seg.key);
                pos = seg.range.end;
            }
            assert_eq!(pos, doc.footer_start);
            assert!(!doc.segments.is_empty());
            // Stream order is key order.
            for pair in doc.segments.windows(2) {
                assert!(pair[0].key < pair[1].key);
            }
        }
    }

    /// Splicing freshly re-tagged groups over themselves is an identity:
    /// the spliced document equals the full recompute byte for byte.
    #[test]
    fn splice_of_restricted_retag_is_byte_identical() {
        let db = Database::tpch(0.001).unwrap();
        let view = supplier_parts_view(db.catalog()).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let (rel, _) = db.execute_plan(&sou.plan).unwrap();
        let cached = segment_rows(rel.rows(), &sou.tag_plan, false).unwrap();

        // Pick a few existing root keys plus one that doesn't exist.
        let mut dirty: Vec<Tuple> =
            cached.segments.iter().step_by(3).map(|s| s.key.clone()).collect();
        dirty.push(key(999_999));
        dirty.sort();

        let restricted = sorted_outer_union_for_keys(&view, &dirty).unwrap();
        let (sub, _) = db.execute_plan(&restricted.plan).unwrap();
        let fresh = segment_rows(sub.rows(), &restricted.tag_plan, false).unwrap();
        // The phantom key produced no segment.
        assert_eq!(fresh.segments.len(), dirty.len() - 1);

        let spliced = splice(&cached, &dirty, &fresh);
        assert_eq!(spliced.bytes, cached.bytes, "identity splice must not change the document");
        assert_eq!(spliced.segments.len(), cached.segments.len());
        assert_eq!(spliced.rows(), cached.rows());
    }

    /// Deleting a dirty group (absent from the fresh doc) drops its
    /// bytes; a fresh-only key is inserted in key order.
    #[test]
    fn splice_handles_group_delete_and_insert() {
        let db = Database::tpch(0.001).unwrap();
        let view = supplier_parts_view(db.catalog()).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let (rel, _) = db.execute_plan(&sou.plan).unwrap();
        let cached = segment_rows(rel.rows(), &sou.tag_plan, false).unwrap();
        assert!(cached.segments.len() >= 3);

        // "Delete" the second group: mark it dirty, hand splice a fresh
        // doc not containing it.
        let victim = cached.segments[1].key.clone();
        let dirty = vec![victim.clone()];
        let empty = sorted_outer_union_for_keys(&view, &[]).unwrap();
        let (none, _) = db.execute_plan(&empty.plan).unwrap();
        let fresh = segment_rows(none.rows(), &empty.tag_plan, false).unwrap();
        assert!(fresh.segments.is_empty());
        let spliced = splice(&cached, &dirty, &fresh);
        assert_eq!(spliced.segments.len(), cached.segments.len() - 1);
        assert!(spliced.segments.iter().all(|s| s.key != victim));
        let expected_len = cached.bytes.len() - cached.segments[1].range.len();
        assert_eq!(spliced.bytes.len(), expected_len);

        // "Insert" it back: splice the dropped group into the shrunken
        // doc and recover the original document exactly.
        let one = sorted_outer_union_for_keys(&view, &dirty).unwrap();
        let (rows, _) = db.execute_plan(&one.plan).unwrap();
        let fresh = segment_rows(rows.rows(), &one.tag_plan, false).unwrap();
        assert_eq!(fresh.segments.len(), 1);
        let restored = splice(&spliced, &dirty, &fresh);
        assert_eq!(restored.bytes, cached.bytes);
    }

    #[test]
    fn scan_tables_walks_the_whole_plan() {
        let db = Database::tpch(0.001).unwrap();
        let view = supplier_parts_view(db.catalog()).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let tables = scan_tables(&sou.plan);
        assert!(tables.contains("supplier"), "{tables:?}");
        assert!(tables.contains("partsupp"), "{tables:?}");
        assert!(tables.contains("part"), "{tables:?}");
    }

    #[test]
    fn outcome_display_names_every_path() {
        assert!(RepublishOutcome::Full { reason: "first-publish" }
            .to_string()
            .contains("first-publish"));
        assert!(RepublishOutcome::Clean.is_incremental());
        let inc = RepublishOutcome::Incremental { dirty_groups: 2, spliced_groups: 7 };
        assert!(inc.is_incremental());
        assert!(inc.to_string().contains("2 dirty"));
        assert!(!RepublishOutcome::Full { reason: "dirty-fraction" }.is_incremental());
    }
}
