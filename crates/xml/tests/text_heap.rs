//! Round trips through the text heap: every kind of string content a
//! fragment stores comes back byte for byte from `Document::text`, from
//! the serializer, and through `TreeBuilder::copy_subtree` into a
//! builder whose heap already holds text.

use exrquy_xml::serialize::serialize_subtree;
use exrquy_xml::{parse_document, Document, NamePool, NodeKind, TreeBuilder};

fn parse(xml: &str) -> (Document, NamePool) {
    let mut pool = NamePool::new();
    let doc = parse_document(xml, &mut pool).expect("well-formed test document");
    doc.check_invariants().expect("parsed fragment invariants");
    (doc, pool)
}

fn serialize(doc: &Document, pool: &NamePool) -> String {
    let mut out = String::new();
    serialize_subtree(doc, 0, pool, &mut out);
    out
}

/// `(kind, text)` of every node after the document root.
fn contents(doc: &Document) -> Vec<(NodeKind, Option<&str>)> {
    (1..doc.len() as u32)
        .map(|pre| (doc.kind(pre), doc.text(pre)))
        .collect()
}

#[test]
fn entities_decode_into_the_heap() {
    let (doc, pool) =
        parse("<e a=\"&lt;&#65;&#x42;&amp;\" b='&apos;&quot;'>x &gt; y &#x1F600;</e>");
    assert_eq!(
        contents(&doc),
        [
            (NodeKind::Element, None),
            (NodeKind::Attribute, Some("<AB&")),
            (NodeKind::Attribute, Some("'\"")),
            (NodeKind::Text, Some("x > y 😀")),
        ]
    );
    assert_eq!(
        serialize(&doc, &pool),
        "<e a=\"&lt;AB&amp;\" b=\"'&quot;\">x &gt; y 😀</e>"
    );
}

#[test]
fn cdata_comments_and_pis_keep_their_bytes() {
    let xml = "<a><![CDATA[1<2 & ]]><!-- c – d --><?t  ü data?></a>";
    let (doc, pool) = parse(xml);
    assert_eq!(
        contents(&doc),
        [
            (NodeKind::Element, None),
            (NodeKind::Text, Some("1<2 & ")),
            (NodeKind::Comment, Some(" c – d ")),
            (NodeKind::ProcessingInstruction, Some("ü data")),
        ]
    );
    assert_eq!(
        serialize(&doc, &pool),
        "<a>1&lt;2 &amp; <!-- c – d --><?t ü data?></a>"
    );
}

#[test]
fn multibyte_and_whitespace_text_round_trip() {
    let xml = "<größe wert=\"日本語\">\n  <ä>ñ€𝄞</ä>\n\t</größe>";
    let (doc, pool) = parse(xml);
    assert_eq!(
        contents(&doc),
        [
            (NodeKind::Element, None),
            (NodeKind::Attribute, Some("日本語")),
            (NodeKind::Text, Some("\n  ")),
            (NodeKind::Element, None),
            (NodeKind::Text, Some("ñ€𝄞")),
            (NodeKind::Text, Some("\n\t")),
        ]
    );
    assert_eq!(pool.resolve(doc.name(1)), "größe");
    assert_eq!(serialize(&doc, &pool), xml);
}

#[test]
fn empty_attribute_value_is_an_empty_span_not_absent() {
    let (doc, pool) = parse(r#"<r a="x" b="" c=''/>"#);
    assert_eq!(doc.text(2), Some("x"));
    assert_eq!(doc.text(3), Some(""));
    assert_eq!(doc.text(4), Some(""));
    assert_eq!(doc.text(1), None, "elements carry no text");
    assert_eq!(serialize(&doc, &pool), r#"<r a="x" b="" c=""/>"#);
}

#[test]
fn copy_subtree_rebases_spans_onto_a_nonempty_heap() {
    let (src, mut pool) = parse("<a k=\"v\" e=\"\">één<!--c--><b>β</b><?p q?></a>");
    let (a, wrap, note) = (
        pool.lookup("a").expect("interned by the parse"),
        pool.intern("wrap"),
        pool.intern("note"),
    );
    let mut b = TreeBuilder::new();
    b.open_element(wrap);
    b.attribute(note, "before – ");
    b.text("lead text");
    // Splice path: an element subtree lands columnar.
    b.copy_subtree(&src, 1);
    b.text("middle");
    // Replay path: non-element nodes (the attribute, text, comment and
    // PI children) are copied one by one.
    b.open_element(note);
    for pre in 2..src.len() as u32 {
        if src.parent(pre) == Some(1) && src.kind(pre) != NodeKind::Element {
            b.copy_subtree(&src, pre);
        }
    }
    b.close();
    b.close();
    let dst = b.finish();
    dst.check_invariants().expect("copied fragment invariants");

    assert_eq!(dst.name(3), a);
    let mut out = String::new();
    serialize_subtree(&dst, 0, &pool, &mut out);
    assert_eq!(
        out,
        "<wrap note=\"before – \">lead text\
         <a k=\"v\" e=\"\">één<!--c--><b>β</b><?p q?></a>\
         middle<note k=\"v\" e=\"\">één<!--c--><?p q?></note></wrap>"
    );
    // The source fragment is untouched by the copies.
    assert_eq!(src.text(2), Some("v"));
    assert_eq!(src.text(3), Some(""));
}

#[test]
fn document_nodes_copy_as_their_children() {
    let (src, pool) = parse("<r>t<s x=\"1\"/></r>");
    let mut b = TreeBuilder::new_document();
    b.text("pre");
    b.copy_subtree(&src, 0);
    let dst = b.finish();
    dst.check_invariants().expect("copied fragment invariants");
    assert_eq!(serialize(&dst, &pool), "pre<r>t<s x=\"1\"/></r>");
}
