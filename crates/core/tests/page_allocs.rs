//! Allocation counts of reading a node through its [`Page`], taken with
//! a counting global allocator on the test's own thread: building a page
//! makes a fixed number of allocations whatever the entry count,
//! cloning one makes none, and a lookup makes none (the caller's copy of
//! the value is its one).

use minuet_core::node::{DescEntry, Node, NodeBody, NodePtr, Page};
use minuet_core::Fence;
use minuet_sinfonia::{Bytes, MemNodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter never touches the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns, and the allocations this thread made running it.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A leaf with finite fences and a descendant entry — every part of a
/// page that is kept apart from the image — holding `n` entries of a
/// 6-byte key and a 50-byte value.
fn leaf(n: u32) -> Node {
    let entries = (0..n).map(|i| (format!("k{i:05}").into_bytes(), vec![7; 50]));
    Node {
        height: 0,
        created: 3,
        desc: vec![DescEntry {
            sid: 4,
            ptr: NodePtr {
                mem: MemNodeId(1),
                slot: 9,
            },
        }],
        low: Fence::Key(b"k".to_vec()),
        high: Fence::Key(b"l".to_vec()),
        body: NodeBody::Leaf {
            entries: entries.collect(),
        },
    }
}

#[test]
fn reading_a_page_allocates_a_fixed_number_of_times() {
    // 70 entries of 60 bytes encode to just over 4 kB.
    for (n, what) in [(70, "a full 4 kB leaf"), (2, "a 2-entry leaf")] {
        let image = Bytes::from(leaf(n).encode());
        let (page, made) = allocs(|| Page::new(image).unwrap());
        assert!(made <= 5, "Page::new on {what}: {made} allocations");
        assert_eq!(page.len(), n as usize);

        let (copy, made) = allocs(|| page.clone());
        assert_eq!(made, 0, "Page::clone on {what}");
        drop(copy);

        let (value, made) = allocs(|| page.leaf_get(b"k00001").map(<[u8]>::len));
        assert_eq!((value, made), (Some(50), 0), "leaf_get on {what}");
        let ((), made) = allocs(|| assert_eq!(page.leaf_get(b"k0000"), None));
        assert_eq!(made, 0, "leaf_get of an absent key on {what}");
        let (value, made) = allocs(|| page.leaf_get(b"k00001").map(<[u8]>::to_vec));
        assert_eq!(
            (value.map(|v| v.len()), made),
            (Some(50), 1),
            "the caller's copy"
        );

        let (count, made) = allocs(|| page.entries_from(b"k00001").count());
        assert_eq!((count, made), (n as usize - 1, 0), "entries_from on {what}");
    }
}
