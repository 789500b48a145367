//! The slice readers refuse a count the payload cannot hold, or whose byte
//! size overflows, *before* allocating or consuming anything: a corrupt
//! element count costs a typed error, never a speculative reservation.
//! Counted with a per-thread allocation counter wrapped around the system
//! allocator, so parallel tests do not interfere.

use ff_codec::{CodecError, Reader, Writer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every allocation and release is forwarded unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counter is a
// per-thread `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwards the caller's layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

const MAGIC: [u8; 4] = *b"FF8T";

#[test]
fn refused_slice_reads_allocate_nothing() {
    let mut w = Writer::new(&MAGIC, 1);
    w.record(|r| r.put_f32s(&[1.0, 2.0, 3.0]));
    let bytes = w.into_vec();
    let mut reader = Reader::new(&bytes, &MAGIC, 1).unwrap();
    let mut rec = reader.record("record").unwrap();

    let truncated = Err(CodecError::Truncated { context: "values" });
    let before = allocations();
    let outcomes = [
        rec.get_f32s(4, "values").map(drop),
        rec.get_f32s(usize::MAX / 4 + 1, "values").map(drop),
        rec.get_f32s(1 << 40, "values").map(drop),
        rec.get_i8s(13, "values").map(drop),
        rec.get_i8s(usize::MAX, "values").map(drop),
    ];
    assert_eq!(allocations(), before, "a refused read allocated");
    for outcome in outcomes {
        assert_eq!(outcome, truncated);
    }
    assert_eq!(rec.remaining(), 12, "a refused read consumed bytes");

    // The counter does see a read that succeeds.
    let values = rec.get_f32s(3, "values").unwrap();
    assert!(allocations() > before);
    assert_eq!(values, [1.0, 2.0, 3.0]);
}
