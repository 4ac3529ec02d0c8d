//! Allocation budget of the document load path.
//!
//! Parsing an entity-free document must cost a number of heap
//! allocations that does not grow with its node count: one text heap per
//! fragment instead of one string per text or attribute node, and tag
//! names borrowed from the input instead of copied. A counting global
//! allocator checks this without timing anything: going from about 1k to
//! about 10k nodes may add only the reallocations of the load path's
//! growing buffers, which double.

use exrquy_xml::{parse_document, NamePool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation and reallocation calls made by the current thread
/// (per thread, so tests running in parallel do not disturb each other).
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only addition is a thread-local counter update, which does
// not allocate (const-initialised `Cell<usize>` with no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// An entity-free XMark-like document of `items` repeated records, each
/// 8 nodes: an element with two attributes (one empty), a whitespace
/// text node, and two child elements with text, one of them holding
/// multibyte UTF-8.
fn document(items: usize) -> String {
    let mut xml = String::from("<site><items>");
    for i in 0..items {
        xml.push_str(&format!(
            "<item id=\"item{i}\" featured=\"\">\n<name>Gegenstand Nr. {i} – größer</name>\
             <price>{}</price></item>",
            i * 7 % 1000
        ));
    }
    xml.push_str("</items></site>");
    xml
}

/// Heap allocations made while parsing `xml` into a fresh pool, and the
/// node count of the result.
fn parse_allocations(xml: &str) -> (usize, usize) {
    let mut pool = NamePool::new();
    let before = ALLOCS.with(Cell::get);
    let doc = parse_document(xml, &mut pool).expect("well-formed test document");
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, doc.len())
}

#[test]
fn load_allocations_do_not_scale_with_node_count() {
    let (small_xml, large_xml) = (document(125), document(1250));
    let (small, small_nodes) = parse_allocations(&small_xml);
    let (large, large_nodes) = parse_allocations(&large_xml);
    assert!((900..1_100).contains(&small_nodes), "{small_nodes} nodes");
    assert!(
        (9_000..11_000).contains(&large_nodes),
        "{large_nodes} nodes"
    );

    // Ten times the nodes is at most ceil(log2(10)) = 4 more doublings
    // of each buffer that grows with the node count: the six encoding
    // columns, the text heap and its span ends. (The parser's and the
    // builder's stacks grow with nesting depth, which is the same here.)
    // One allocation per text or attribute node, or per element name,
    // would add thousands.
    let growing_buffers = 8;
    let doublings = 4;
    let budget = growing_buffers * doublings;
    assert!(
        large <= small + budget,
        "parsing {large_nodes} nodes made {large} allocations, {small_nodes} nodes made \
         {small}; the buffer-doubling budget allows {budget} more",
    );
}
