//! XPath axis evaluation over the pre/size/level encoding.
//!
//! This module implements the step algorithm plugged into the paper's step
//! operator `⬡ax::nt` (§3): given a duplicate-free, document-ordered set of
//! context nodes, produce the duplicate-free, document-ordered set of result
//! nodes for an axis/node-test pair.
//!
//! The production implementation is *staircase join* \[Grust, van Keulen,
//! Teubner, VLDB 2003\]: it exploits that the pre/size windows of a sorted
//! context form a "staircase", so overlapping regions are pruned and each
//! document region is scanned at most once. [`naive`] is an obviously
//! correct quadratic reference used for differential (and property) testing.
//!
//! Both implementations work on a single [`Document`]; the engine layer
//! partitions multi-fragment contexts by fragment.

use crate::name::NameId;
use crate::tree::{Document, NodeKind};

/// XPath axes supported by the step operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    SelfAxis,
    Attribute,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
}

impl Axis {
    /// Whether the principal node kind of this axis is `attribute`.
    pub fn principal_is_attribute(self) -> bool {
        matches!(self, Axis::Attribute)
    }

    /// Whether this axis yields nodes in reverse document order in XPath
    /// semantics. (Irrelevant for the result *set*, which we always return
    /// in document order — XQuery path results are in document order.)
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::PrecedingSibling
                | Axis::Preceding
        )
    }

    /// XPath surface syntax of the axis.
    pub fn as_str(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Node tests supported by the step operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `node()` — any node of the axis.
    AnyKind,
    /// `*` — any node of the axis' principal kind.
    Wildcard,
    /// `name` — named node of the axis' principal kind.
    Name(NameId),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` / `processing-instruction(target)`
    Pi(Option<NameId>),
    /// `document-node()`
    DocumentNode,
    /// `element()` — any element, regardless of the axis' principal kind.
    Element,
}

impl NodeTest {
    /// Does node `pre` of `doc` satisfy this test on an axis whose
    /// principal node kind is attribute (`principal_attr`) or element?
    pub fn matches(self, doc: &Document, pre: u32, principal_attr: bool) -> bool {
        let kind = doc.kind(pre);
        match self {
            NodeTest::AnyKind => true,
            NodeTest::Wildcard => {
                if principal_attr {
                    kind == NodeKind::Attribute
                } else {
                    kind == NodeKind::Element
                }
            }
            NodeTest::Name(n) => {
                let want = if principal_attr {
                    NodeKind::Attribute
                } else {
                    NodeKind::Element
                };
                kind == want && doc.name(pre) == n
            }
            NodeTest::Text => kind == NodeKind::Text,
            NodeTest::Comment => kind == NodeKind::Comment,
            NodeTest::Pi(target) => {
                kind == NodeKind::ProcessingInstruction && target.is_none_or(|t| doc.name(pre) == t)
            }
            NodeTest::DocumentNode => kind == NodeKind::Document,
            NodeTest::Element => kind == NodeKind::Element,
        }
    }
}

/// Evaluate one location step with staircase-join-style pruning.
///
/// `ctx` must be sorted ascending and duplicate-free; the result is sorted
/// ascending and duplicate-free.
pub fn step(doc: &Document, ctx: &[u32], axis: Axis, test: NodeTest) -> Vec<u32> {
    debug_assert!(
        ctx.windows(2).all(|w| w[0] < w[1]),
        "context must be sorted, dup-free"
    );
    let attr = axis.principal_is_attribute();
    let out = match axis {
        Axis::Descendant => staircase_descendant(doc, ctx, false, test),
        Axis::DescendantOrSelf => staircase_descendant(doc, ctx, true, test),
        Axis::Child => {
            let mut v = Vec::new();
            for &c in ctx {
                if doc.kind(c).can_have_children() {
                    v.extend(doc.children(c).filter(|&p| test.matches(doc, p, attr)));
                }
            }
            v.sort_unstable();
            v
        }
        Axis::Attribute => {
            let mut v = Vec::new();
            for &c in ctx {
                if doc.kind(c) == NodeKind::Element {
                    v.extend(doc.attributes(c).filter(|&p| test.matches(doc, p, attr)));
                }
            }
            v.sort_unstable();
            v
        }
        Axis::SelfAxis => ctx
            .iter()
            .copied()
            .filter(|&p| test.matches(doc, p, attr))
            .collect(),
        Axis::Parent => {
            let mut v: Vec<u32> = ctx
                .iter()
                .filter_map(|&c| doc.parent(c))
                .filter(|&p| test.matches(doc, p, attr))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let mut v = Vec::new();
            for &c in ctx {
                if axis == Axis::AncestorOrSelf && test.matches(doc, c, attr) {
                    v.push(c);
                }
                let mut cur = c;
                while let Some(p) = doc.parent(cur) {
                    if test.matches(doc, p, attr) {
                        v.push(p);
                    }
                    cur = p;
                }
            }
            v.sort_unstable();
            v.dedup();
            v
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            let mut v = Vec::new();
            for &c in ctx {
                if doc.kind(c) == NodeKind::Attribute {
                    continue; // attributes have no siblings
                }
                let Some(p) = doc.parent(c) else { continue };
                for s in doc.children(p) {
                    let keep = if axis == Axis::FollowingSibling {
                        s > c
                    } else {
                        s < c
                    };
                    if keep && test.matches(doc, s, attr) {
                        v.push(s);
                    }
                }
            }
            v.sort_unstable();
            v.dedup();
            v
        }
        Axis::Following => {
            // following(v) = { p : p > v + size(v) } minus attributes; for a
            // context set the union is governed by the smallest window end.
            let Some(bound) = ctx.iter().map(|&v| v + doc.size(v)).min() else {
                return Vec::new();
            };
            (bound + 1..doc.len() as u32)
                .filter(|&p| doc.kind(p) != NodeKind::Attribute && test.matches(doc, p, attr))
                .collect()
        }
        Axis::Preceding => {
            // preceding(v) = { p : p + size(p) < v } minus attributes; for a
            // context set the union is governed by the largest context node.
            let Some(&maxv) = ctx.last() else {
                return Vec::new();
            };
            (0..maxv)
                .filter(|&p| {
                    p + doc.size(p) < maxv
                        && doc.kind(p) != NodeKind::Attribute
                        && test.matches(doc, p, attr)
                })
                .collect()
        }
    };
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    out
}

/// Staircase join for the descendant(-or-self) axis: a single pass over the
/// union of the context windows, skipping pruned (nested) windows.
fn staircase_descendant(doc: &Document, ctx: &[u32], or_self: bool, test: NodeTest) -> Vec<u32> {
    let mut out = Vec::new();
    // Attribute context nodes have empty windows but contribute themselves
    // under `-or-self`; collected separately and merged at the end because
    // they may lie inside (and be skipped by) an earlier element's window.
    let mut attr_selves = Vec::new();
    // `scanned_to` is exclusive: everything < scanned_to has been scanned.
    let mut scanned_to: u32 = 0;
    for &v in ctx {
        if doc.kind(v) == NodeKind::Attribute {
            if or_self && test.matches(doc, v, false) {
                attr_selves.push(v);
            }
            continue;
        }
        let lo = if or_self { v } else { v + 1 };
        let hi = v + doc.size(v) + 1; // exclusive
        let lo = lo.max(scanned_to);
        for p in lo..hi {
            // Attributes are not descendants, although they live inside the
            // pre/size window.
            if doc.kind(p) != NodeKind::Attribute && test.matches(doc, p, false) {
                out.push(p);
            }
        }
        scanned_to = scanned_to.max(hi);
    }
    if attr_selves.is_empty() {
        return out;
    }
    // Merge the two sorted, disjoint streams.
    let mut merged = Vec::with_capacity(out.len() + attr_selves.len());
    let (mut i, mut j) = (0, 0);
    while i < out.len() && j < attr_selves.len() {
        if out[i] < attr_selves[j] {
            merged.push(out[i]);
            i += 1;
        } else {
            merged.push(attr_selves[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&out[i..]);
    merged.extend_from_slice(&attr_selves[j..]);
    merged
}

/// Evaluate one location step using per-name node streams (TwigStack-style
/// "element streams", paper §1) where applicable — named element tests on
/// the child/descendant(-or-self) axes and named attribute tests — and
/// fall back to [`step`] otherwise.
///
/// For selective names this skips the window scans entirely: each context
/// window binary-searches the (ascending) stream of the requested name.
pub fn step_name_stream(doc: &Document, ctx: &[u32], axis: Axis, test: NodeTest) -> Vec<u32> {
    debug_assert!(ctx.windows(2).all(|w| w[0] < w[1]));
    match (axis, test) {
        (Axis::Descendant | Axis::DescendantOrSelf, NodeTest::Name(n)) => {
            let stream = doc.name_streams().elements(n);
            if stream.is_empty() {
                return Vec::new();
            }
            let or_self = axis == Axis::DescendantOrSelf;
            let mut out = Vec::new();
            let mut scanned_to: u32 = 0;
            for &v in ctx {
                let lo = if or_self { v } else { v + 1 }.max(scanned_to);
                let hi = v + doc.size(v) + 1; // exclusive
                if lo < hi {
                    let from = stream.partition_point(|&p| p < lo);
                    let to = stream.partition_point(|&p| p < hi);
                    out.extend_from_slice(&stream[from..to]);
                }
                scanned_to = scanned_to.max(hi);
            }
            out
        }
        (Axis::Child, NodeTest::Name(n)) => {
            let stream = doc.name_streams().elements(n);
            if stream.is_empty() {
                return Vec::new();
            }
            let mut out = Vec::new();
            for &v in ctx {
                if !doc.kind(v).can_have_children() {
                    continue;
                }
                let (lo, hi) = (v + 1, v + doc.size(v) + 1);
                let from = stream.partition_point(|&p| p < lo);
                let to = from + stream[from..].partition_point(|&p| p < hi);
                // Adaptive: a small same-name window filters by parent
                // (skipping the subtree scan entirely); a large one —
                // the name is frequent below `v`, e.g. recursive
                // markup — walks the real children instead, bounding
                // the cost by the fanout rather than the subtree's
                // name frequency.
                if to - from <= 16 {
                    out.extend(
                        stream[from..to]
                            .iter()
                            .copied()
                            .filter(|&p| doc.parent(p) == Some(v)),
                    );
                } else {
                    out.extend(doc.children(v).filter(|&p| test.matches(doc, p, false)));
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        }
        (Axis::Attribute, NodeTest::Name(n)) => {
            let stream = doc.name_streams().attributes(n);
            if stream.is_empty() {
                return Vec::new();
            }
            let mut out = Vec::new();
            for &v in ctx {
                let (lo, hi) = (v + 1, v + doc.size(v) + 1);
                let from = stream.partition_point(|&p| p < lo);
                let to = stream.partition_point(|&p| p < hi);
                out.extend(
                    stream[from..to]
                        .iter()
                        .copied()
                        .filter(|&p| doc.parent(p) == Some(v)),
                );
            }
            out.sort_unstable();
            out.dedup();
            out
        }
        _ => step(doc, ctx, axis, test),
    }
}

/// Naive quadratic reference implementation of [`step`]; used for
/// differential testing only.
pub fn naive(doc: &Document, ctx: &[u32], axis: Axis, test: NodeTest) -> Vec<u32> {
    let attr = axis.principal_is_attribute();
    let mut out = Vec::new();
    for p in 0..doc.len() as u32 {
        let in_axis = ctx.iter().any(|&v| node_in_axis(doc, v, p, axis));
        if in_axis && test.matches(doc, p, attr) {
            out.push(p);
        }
    }
    out
}

/// Is `p` reachable from context node `v` along `axis`?
fn node_in_axis(doc: &Document, v: u32, p: u32, axis: Axis) -> bool {
    let is_attr = doc.kind(p) == NodeKind::Attribute;
    match axis {
        Axis::SelfAxis => p == v,
        Axis::Child => doc.parent(p) == Some(v) && !is_attr,
        Axis::Attribute => doc.parent(p) == Some(v) && is_attr,
        Axis::Descendant => doc.is_ancestor(v, p) && !is_attr,
        Axis::DescendantOrSelf => p == v || (doc.is_ancestor(v, p) && !is_attr),
        Axis::Parent => doc.parent(v) == Some(p),
        Axis::Ancestor => doc.is_ancestor(p, v),
        Axis::AncestorOrSelf => p == v || doc.is_ancestor(p, v),
        Axis::FollowingSibling => {
            doc.kind(v) != NodeKind::Attribute
                && doc.parent(p) == doc.parent(v)
                && p > v
                && !is_attr
        }
        Axis::PrecedingSibling => {
            doc.kind(v) != NodeKind::Attribute
                && doc.parent(p) == doc.parent(v)
                && p < v
                && !is_attr
        }
        Axis::Following => p > v + doc.size(v) && !is_attr,
        Axis::Preceding => p + doc.size(p) < v && !is_attr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NamePool;
    use crate::parse::parse_document;

    fn doc(s: &str) -> (Document, NamePool) {
        let mut pool = NamePool::new();
        let d = parse_document(s, &mut pool).unwrap();
        (d, pool)
    }

    #[test]
    fn figure1_descendant_union_example() {
        // §1: $t//(c|d) over <a><b><c/><d/></b><c/></a>.
        let (d, mut pool) = doc("<a><b><c/><d/></b><c/></a>");
        let c = pool.intern("c");
        let dn = pool.intern("d");
        let a = pool.intern("a");
        let root = step(&d, &[0], Axis::Child, NodeTest::Name(a));
        assert_eq!(root, vec![1]);
        let dos = step(&d, &root, Axis::DescendantOrSelf, NodeTest::AnyKind);
        assert_eq!(dos, vec![1, 2, 3, 4, 5]);
        let cs = step(&d, &dos, Axis::Child, NodeTest::Name(c));
        let ds = step(&d, &dos, Axis::Child, NodeTest::Name(dn));
        // (c1, c2) and (d) in document order, as in the paper.
        assert_eq!(cs, vec![3, 5]);
        assert_eq!(ds, vec![4]);
    }

    #[test]
    fn staircase_prunes_nested_contexts() {
        let (d, mut pool) = doc("<a><b><c/><d/></b><c/></a>");
        let c = pool.intern("c");
        // Context {a, b} — b's window nests inside a's; result must still be
        // duplicate-free and sorted.
        let r = step(&d, &[1, 2], Axis::Descendant, NodeTest::Name(c));
        assert_eq!(r, vec![3, 5]);
    }

    #[test]
    fn attribute_axis_and_attribute_exclusion() {
        let (d, mut pool) = doc(r#"<a x="1"><b y="2"/>t</a>"#);
        let x = pool.intern("x");
        let y = pool.intern("y");
        // Descendants never contain attributes.
        let desc = step(&d, &[1], Axis::Descendant, NodeTest::AnyKind);
        assert!(desc.iter().all(|&p| d.kind(p) != NodeKind::Attribute));
        // Attribute axis.
        assert_eq!(step(&d, &[1], Axis::Attribute, NodeTest::Name(x)).len(), 1);
        assert_eq!(step(&d, &[1], Axis::Attribute, NodeTest::Name(y)).len(), 0);
        let all_attrs = step(&d, &[1, 3], Axis::Attribute, NodeTest::Wildcard);
        assert_eq!(all_attrs.len(), 2);
    }

    #[test]
    fn parent_ancestor_siblings() {
        let (d, mut pool) = doc("<a><b><c/><d/></b><c/></a>");
        let _ = pool.intern("a");
        assert_eq!(step(&d, &[3, 4], Axis::Parent, NodeTest::AnyKind), vec![2]);
        assert_eq!(
            step(&d, &[3], Axis::Ancestor, NodeTest::AnyKind),
            vec![0, 1, 2]
        );
        assert_eq!(
            step(&d, &[3], Axis::AncestorOrSelf, NodeTest::Element),
            vec![1, 2, 3]
        );
        assert_eq!(
            step(&d, &[3], Axis::FollowingSibling, NodeTest::AnyKind),
            vec![4]
        );
        assert_eq!(
            step(&d, &[4], Axis::PrecedingSibling, NodeTest::AnyKind),
            vec![3]
        );
    }

    #[test]
    fn following_and_preceding() {
        let (d, _) = doc("<a><b><c/><d/></b><c/></a>");
        // following(c1=3) = {d=4, c2=5}
        assert_eq!(
            step(&d, &[3], Axis::Following, NodeTest::AnyKind),
            vec![4, 5]
        );
        // preceding(c2=5) = {b=2? no: b contains nothing after... } b(2) has
        // size 2, 2+2=4 < 5 → included; c1(3): 3<5 → included; d(4): 4<5 → included.
        assert_eq!(
            step(&d, &[5], Axis::Preceding, NodeTest::AnyKind),
            vec![2, 3, 4]
        );
        // an ancestor is in neither axis
        assert!(!step(&d, &[3], Axis::Preceding, NodeTest::AnyKind).contains(&1));
    }

    #[test]
    fn matches_naive_on_all_axes() {
        let (d, mut pool) = doc(
            r#"<site><regions><africa><item id="1"><name>x</name></item></africa>
               <asia><item id="2"/></asia></regions><people/></site>"#,
        );
        let item = pool.intern("item");
        let ctxs: Vec<Vec<u32>> = vec![
            vec![0],
            vec![1],
            vec![1, 2, 3],
            (0..d.len() as u32).collect(),
        ];
        let axes = [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::SelfAxis,
            Axis::Attribute,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::Following,
            Axis::Preceding,
        ];
        let tests = [
            NodeTest::AnyKind,
            NodeTest::Wildcard,
            NodeTest::Name(item),
            NodeTest::Text,
            NodeTest::Element,
        ];
        for ctx in &ctxs {
            // Context sets must not contain attributes for sibling axes etc.;
            // keep them anyway — both impls must agree regardless.
            for &ax in &axes {
                for &t in &tests {
                    assert_eq!(
                        step(&d, ctx, ax, t),
                        naive(&d, ctx, ax, t),
                        "axis {ax:?} test {t:?} ctx {ctx:?}"
                    );
                }
            }
        }
    }
}
