//! Catalog statistics for cost-based planning.
//!
//! The optimizer's cardinality model (see `exrquy-opt`) needs cheap,
//! deterministic answers to "how big is this document", "how many `<item>`
//! elements exist", and "what values does `@id` take". Those answers live
//! here, collected per fragment and aggregated per catalog:
//!
//! * **materialized fragments** are walked exactly — node counts, element
//!   and attribute name histograms, child fanout, and min/max sketches for
//!   integer-valued attributes and element text;
//! * **lazy fragments** (raw XML, not yet parsed) are *estimated* by a
//!   single linear scan over the bytes — the same flavor of scan
//!   `scan_names` already performs at load time, so estimation never
//!   parses a tree the query might not touch.
//!
//! Statistics are frozen per catalog snapshot: [`crate::Catalog::stats`]
//! computes them once behind a `OnceLock` and every later call returns the
//! same `Arc`. Because a document load or re-sharding builds a *new*
//! catalog (and swaps the executor, invalidating the plan cache), stats
//! invalidation rides the exact same lifecycle as cached plans — there is
//! no separate invalidation protocol to get wrong. Estimates for lazy
//! fragments may differ from the exact numbers a later snapshot computes
//! after materialization; that can change which plan the cost model
//! prefers, never what any plan returns.

use crate::fnv::FnvMap;
use crate::name::{NameId, NamePool};
use crate::tree::{Document, NodeKind};

/// Node-count and value statistics for one fragment.
#[derive(Debug, Clone, Default)]
pub struct FragStats {
    /// Total encoded nodes (estimated for unmaterialized fragments).
    pub nodes: u64,
    /// Element count per element name.
    pub elem_counts: FnvMap<NameId, u64>,
    /// Attribute count per attribute name.
    pub attr_counts: FnvMap<NameId, u64>,
    /// Min/max sketch of integer-parsing values, keyed by the attribute
    /// name (for attribute values) or the enclosing element name (for
    /// element text).
    pub int_ranges: FnvMap<NameId, (i64, i64)>,
    /// Total elements (denominator of the fanout average).
    pub elements: u64,
    /// Total element-children-of-elements (numerator of the fanout
    /// average).
    pub element_children: u64,
    /// Whether these numbers came from a byte-scan estimate rather than a
    /// walk of the parsed tree.
    pub estimated: bool,
}

impl FragStats {
    fn touch_range(&mut self, name: NameId, v: i64) {
        self.int_ranges
            .entry(name)
            .and_modify(|(lo, hi)| {
                *lo = (*lo).min(v);
                *hi = (*hi).max(v);
            })
            .or_insert((v, v));
    }
}

/// Aggregated, frozen statistics for one catalog snapshot.
#[derive(Debug, Clone, Default)]
pub struct CatalogStats {
    /// Per-fragment node weights (exact or estimated), index = fragment.
    pub per_frag_nodes: Vec<u64>,
    /// Per-shard node weights under the snapshot's shard layout.
    pub per_shard_nodes: Vec<u64>,
    /// Sum of `per_frag_nodes`.
    pub total_nodes: u64,
    /// Fragment (≈ document root) count.
    pub frags: u64,
    /// Catalog-wide element count per element name.
    pub elem_counts: FnvMap<NameId, u64>,
    /// Catalog-wide attribute count per attribute name.
    pub attr_counts: FnvMap<NameId, u64>,
    /// Catalog-wide min/max integer-value sketches (see [`FragStats`]).
    pub int_ranges: FnvMap<NameId, (i64, i64)>,
    /// Catalog-wide element count.
    pub elements: u64,
    /// Average element children per element (child-step fanout).
    pub avg_fanout: f64,
    /// How many fragments contributed estimates instead of exact walks.
    pub estimated_frags: u64,
}

impl CatalogStats {
    /// Elements named `name` across the catalog.
    pub fn elem_count(&self, name: NameId) -> u64 {
        self.elem_counts.get(&name).copied().unwrap_or(0)
    }

    /// Attributes named `name` across the catalog.
    pub fn attr_count(&self, name: NameId) -> u64 {
        self.attr_counts.get(&name).copied().unwrap_or(0)
    }

    /// Width of the integer value range recorded under `name` (a crude
    /// distinct-value proxy for equi-join selectivity), if any values
    /// parsed as integers.
    pub fn int_range_width(&self, name: NameId) -> Option<u64> {
        self.int_ranges
            .get(&name)
            .map(|&(lo, hi)| hi.abs_diff(lo).saturating_add(1))
    }
}

/// Exact statistics from a parsed fragment.
pub fn stats_of_document(doc: &Document) -> FragStats {
    let mut s = FragStats {
        nodes: doc.len() as u64,
        ..FragStats::default()
    };
    for pre in 0..doc.len() as u32 {
        match doc.kind(pre) {
            NodeKind::Element => {
                s.elements += 1;
                *s.elem_counts.entry(doc.name(pre)).or_default() += 1;
                if let Some(p) = doc.parent(pre) {
                    if doc.kind(p) == NodeKind::Element {
                        s.element_children += 1;
                    }
                }
            }
            NodeKind::Attribute => {
                let name = doc.name(pre);
                *s.attr_counts.entry(name).or_default() += 1;
                if let Some(v) = doc.text(pre).and_then(|t| t.trim().parse::<i64>().ok()) {
                    s.touch_range(name, v);
                }
            }
            NodeKind::Text => {
                // Key element text under the enclosing element's name.
                if let Some(p) = doc.parent(pre) {
                    if doc.kind(p) == NodeKind::Element {
                        if let Some(v) = doc.text(pre).and_then(|t| t.trim().parse::<i64>().ok()) {
                            s.touch_range(doc.name(p), v);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    s
}

/// Estimated statistics from raw (unparsed) XML: one linear byte scan, no
/// tree construction, no allocation proportional to document size. Names
/// resolve against the frozen `pool` (the load-time name scan interned
/// them); unknown names are skipped rather than interned.
pub fn estimate_from_xml(xml: &str, pool: &NamePool) -> FragStats {
    let mut s = FragStats {
        nodes: 1, // the virtual document root
        estimated: true,
        ..FragStats::default()
    };
    let b = xml.as_bytes();
    let mut i = 0;
    let mut last_elem: Option<NameId> = None;
    let mut depth: u64 = 0;
    while i < b.len() {
        if b[i] != b'<' {
            // Text run until the next tag; count it as one text node if it
            // holds any non-whitespace, and sketch integer content.
            let start = i;
            while i < b.len() && b[i] != b'<' {
                i += 1;
            }
            let text = xml[start..i].trim();
            if !text.is_empty() {
                s.nodes += 1;
                if let (Some(name), Ok(v)) = (last_elem, text.parse::<i64>()) {
                    s.touch_range(name, v);
                }
            }
            continue;
        }
        i += 1;
        match b.get(i) {
            Some(b'/') => {
                // Closing tag.
                while i < b.len() && b[i] != b'>' {
                    i += 1;
                }
                depth = depth.saturating_sub(1);
                last_elem = None;
            }
            Some(b'!') | Some(b'?') => {
                while i < b.len() && b[i] != b'>' {
                    i += 1;
                }
            }
            Some(c) if c.is_ascii_alphabetic() || *c == b'_' => {
                let start = i;
                while i < b.len() && !b" \t\r\n/>".contains(&b[i]) {
                    i += 1;
                }
                let name = pool.lookup(&xml[start..i]);
                s.nodes += 1;
                s.elements += 1;
                if depth > 0 {
                    s.element_children += 1;
                }
                if let Some(id) = name {
                    *s.elem_counts.entry(id).or_default() += 1;
                }
                last_elem = name;
                // Attributes until the tag closes.
                let mut self_closing = false;
                while i < b.len() && b[i] != b'>' {
                    if b[i] == b'/' {
                        self_closing = true;
                        i += 1;
                    } else if b[i].is_ascii_alphabetic() || b[i] == b'_' {
                        let astart = i;
                        while i < b.len() && !b"= \t\r\n/>".contains(&b[i]) {
                            i += 1;
                        }
                        let aname = pool.lookup(&xml[astart..i]);
                        while i < b.len() && (b[i] == b' ' || b[i] == b'=') {
                            i += 1;
                        }
                        if i < b.len() && (b[i] == b'"' || b[i] == b'\'') {
                            let quote = b[i];
                            i += 1;
                            let vstart = i;
                            while i < b.len() && b[i] != quote {
                                i += 1;
                            }
                            s.nodes += 1;
                            if let Some(id) = aname {
                                *s.attr_counts.entry(id).or_default() += 1;
                                if let Ok(v) = xml[vstart..i].trim().parse::<i64>() {
                                    s.touch_range(id, v);
                                }
                            }
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
                if !self_closing {
                    depth += 1;
                } else {
                    last_elem = None;
                }
            }
            _ => {}
        }
        while i < b.len() && b[i] != b'>' {
            i += 1;
        }
        i += 1;
    }
    s
}

/// Cheap node-weight estimate for shard balancing of an unparsed
/// fragment: every `<` opens *something* (element, closing tag, comment),
/// so half the `<` count plus attribute openers approximates encoded
/// nodes well enough to balance shards. Always ≥ 1 (the document root).
pub fn estimate_node_weight(xml: &str) -> u64 {
    let opens = xml.bytes().filter(|&b| b == b'<').count() as u64;
    let attrs = xml.bytes().filter(|&b| b == b'=').count() as u64;
    // An element contributes an opening and (usually) a closing tag.
    (opens / 2 + attrs + 1).max(1)
}

/// Fold per-fragment statistics into catalog-wide aggregates.
pub fn aggregate(per_frag: Vec<FragStats>, shard_bounds: &[u32]) -> CatalogStats {
    let mut out = CatalogStats {
        frags: per_frag.len() as u64,
        ..CatalogStats::default()
    };
    for f in &per_frag {
        out.total_nodes += f.nodes;
        out.per_frag_nodes.push(f.nodes);
        out.elements += f.elements;
        out.estimated_frags += f.estimated as u64;
        for (&n, &c) in &f.elem_counts {
            *out.elem_counts.entry(n).or_default() += c;
        }
        for (&n, &c) in &f.attr_counts {
            *out.attr_counts.entry(n).or_default() += c;
        }
        for (&n, &(lo, hi)) in &f.int_ranges {
            out.int_ranges
                .entry(n)
                .and_modify(|(l, h)| {
                    *l = (*l).min(lo);
                    *h = (*h).max(hi);
                })
                .or_insert((lo, hi));
        }
    }
    let children: u64 = per_frag.iter().map(|f| f.element_children).sum();
    out.avg_fanout = if out.elements > 0 {
        children as f64 / out.elements as f64
    } else {
        0.0
    };
    for w in shard_bounds.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        out.per_shard_nodes
            .push(out.per_frag_nodes[lo..hi].iter().sum());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    #[test]
    fn exact_walk_counts_elements_attributes_and_ranges() {
        let mut pool = NamePool::new();
        let doc =
            parse_document(r#"<r><a id="3">7</a><a id="9"/><b>x</b></r>"#, &mut pool).unwrap();
        let s = stats_of_document(&doc);
        assert_eq!(s.nodes, doc.len() as u64);
        assert!(!s.estimated);
        let a = pool.lookup("a").unwrap();
        let id = pool.lookup("id").unwrap();
        assert_eq!(s.elem_counts[&a], 2);
        assert_eq!(s.attr_counts[&id], 2);
        assert_eq!(s.int_ranges[&id], (3, 9));
        assert_eq!(s.int_ranges[&a], (7, 7)); // element text sketch
        assert_eq!(s.elements, 4);
    }

    #[test]
    fn estimate_tracks_the_exact_walk_closely() {
        let xml = r#"<r><a id="3">7</a><a id="9"/><b>x</b></r>"#;
        let mut pool = NamePool::new();
        let doc = parse_document(xml, &mut pool).unwrap();
        let exact = stats_of_document(&doc);
        let est = estimate_from_xml(xml, &pool);
        assert!(est.estimated);
        assert_eq!(est.nodes, exact.nodes, "node estimate exact on clean XML");
        let a = pool.lookup("a").unwrap();
        let id = pool.lookup("id").unwrap();
        assert_eq!(est.elem_counts[&a], exact.elem_counts[&a]);
        assert_eq!(est.attr_counts[&id], exact.attr_counts[&id]);
        assert_eq!(est.int_ranges[&id], (3, 9));
    }

    #[test]
    fn node_weight_estimate_is_positive_and_monotonic() {
        assert!(estimate_node_weight("") >= 1);
        let small = estimate_node_weight("<a/>");
        let big = estimate_node_weight(&"<a><b/><c/></a>".repeat(50));
        assert!(big > small);
    }

    #[test]
    fn aggregate_sums_shards() {
        let mut pool = NamePool::new();
        let d1 = parse_document("<r><x/></r>", &mut pool).unwrap();
        let d2 = parse_document("<r><x/><x/></r>", &mut pool).unwrap();
        let frags = vec![stats_of_document(&d1), stats_of_document(&d2)];
        let (n1, n2) = (frags[0].nodes, frags[1].nodes);
        let agg = aggregate(frags, &[0, 1, 2]);
        assert_eq!(agg.per_shard_nodes, vec![n1, n2]);
        assert_eq!(agg.total_nodes, n1 + n2);
        let x = pool.lookup("x").unwrap();
        assert_eq!(agg.elem_count(x), 3);
        assert_eq!(agg.attr_count(x), 0);
        assert!(agg.avg_fanout > 0.0);
    }
}
