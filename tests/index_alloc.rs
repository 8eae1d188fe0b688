//! Exact allocation gate for secondary-index postings, next to CI's noisy
//! peak-RSS limits.
//!
//! Inserting a row whose indexed value is new to its table allocates the
//! row's shared image (one `Arc<[Value]>` block) and nothing of its own
//! on the index: a one-row posting is held inline in the posting map's
//! entry. Map and row-chunk growth are amortized over the rows. An
//! engine that gives every new posting its own `Arc<Vec>` block and
//! buffer pays three allocations per row here and fails the bound.
//!
//! The counting allocator counts only the thread that switched it on, so
//! the harness's own threads cannot disturb the count.

use jade_tiers::sql::{QueryResult, Schema, Value};
use jade_tiers::storage::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct ThreadCounting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the thread-local counters
// are const-initialized and never allocate.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was returned by `System` through this wrapper
        // with this `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// Allocation calls (including reallocations) `work` makes on this thread.
fn allocations_during(work: impl FnOnce()) -> u64 {
    CALLS.with(|calls| calls.set(0));
    COUNTING.with(|on| on.set(true));
    work();
    COUNTING.with(|on| on.set(false));
    CALLS.with(Cell::get)
}

#[test]
fn a_new_indexed_value_allocates_nothing_beyond_its_row() {
    const ROWS: u64 = 10_000;
    let schema = Schema::builder().table("t", &["a"]).index("t", "a").build();
    let mut db = Database::new(Arc::clone(&schema));
    db.execute(&schema.create_table("t")).unwrap();
    let t = schema.must_table("t");
    let rows: Vec<Vec<Value>> = (0..ROWS as i64)
        .map(|v| vec![Value::Int(v * 7 - 3)])
        .collect();
    let calls = allocations_during(|| {
        for row in rows {
            db.load_row(t, row).unwrap();
        }
    });
    // One row image per row, plus 5 % for the amortized growth of the
    // posting map and the row chunks.
    assert!(
        calls <= ROWS + ROWS / 20,
        "{calls} allocations for {ROWS} rows with distinct indexed values"
    );
    for (v, key) in [(0i64, 0u64), (4_321, 4_321), (ROWS as i64 - 1, ROWS - 1)] {
        let hit = db
            .execute(&schema.select_where("t", "a", Value::Int(v * 7 - 3), 5))
            .unwrap();
        let QueryResult::Rows(rows) = hit else {
            panic!("a select yields rows, got {hit:?}");
        };
        let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [key]);
    }
}
