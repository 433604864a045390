//! How many copies of its rows a tenant keeps, measured by a counting
//! global allocator.
//!
//! A provisioned tenant holds its published version's chunks plus the
//! one matrix its engine serves: the rungs of the degradation ladder
//! search that matrix through shared handles, and the scrubber pins the
//! version instead of keeping golden rows. So provisioning grows the
//! live heap by about two copies of the rows (one when a fresh boot
//! shares the caller's matrix), with at most one transient copy on the
//! way, and an epoch advance after a one-row publish copies the chunk
//! it replaced, never the matrix.
//!
//! The counters are process-wide, so every test here takes one lock and
//! runs alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

use ham_core::explore::{random_memory, DesignKind};
use ham_core::resilience::{QueryBudget, ResilientOptions, PRIORITY_NORMAL};
use ham_core::shard::CHUNK_ROWS;
use ham_serve::{BootSource, TenantSpec, TenantState};
use hdc::prelude::*;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCATED: AtomicI64 = AtomicI64::new(0);

/// The system allocator, plus live, peak and cumulative byte counts.
struct Counting;

fn grew(by: i64) {
    ALLOCATED.fetch_add(by, Ordering::Relaxed);
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to the matching `System` call;
// the counters are relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout contract passes through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size() as i64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`; the caller upholds `new_size`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            let delta = new_size as i64 - layout.size() as i64;
            if delta >= 0 {
                grew(delta);
            } else {
                LIVE.fetch_sub(-delta, Ordering::Relaxed);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

const ROWS: usize = 2_048;
const DIM: usize = 8_192;
/// The bytes of one copy of the rows.
const ROW_BYTES: f64 = (ROWS * DIM / 8) as f64;
/// The bytes of one chunk's rows.
const CHUNK_BYTES: i64 = (CHUNK_ROWS * DIM / 8) as i64;

/// What `f` did to the heap: live growth, peak above the start, and
/// bytes allocated in all.
struct Heap {
    grew: i64,
    peak: i64,
    allocated: i64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    let allocated = ALLOCATED.load(Ordering::SeqCst);
    let out = f();
    let heap = Heap {
        grew: LIVE.load(Ordering::SeqCst) - live,
        peak: PEAK.load(Ordering::SeqCst) - live,
        allocated: ALLOCATED.load(Ordering::SeqCst) - allocated,
    };
    (out, heap)
}

fn copies(bytes: i64) -> f64 {
    bytes as f64 / ROW_BYTES
}

fn spec(memory: AssociativeMemory) -> TenantSpec {
    TenantSpec::new(1, "heap", DesignKind::Digital, memory)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ham-heap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Re-thresholds one row, then serves it, which advances the engine.
/// Returns the bytes the publish and the advance allocated.
fn publish_and_advance(tenant: &TenantState, class: usize) -> i64 {
    let row = Hypervector::random(Dimension::new(DIM).unwrap(), 7 + class as u64);
    let query = std::slice::from_ref(&row);
    let (_, heap) = measure(|| {
        tenant
            .updater()
            .rethreshold_row(ClassId(class), row.clone())
            .unwrap();
        let report = tenant
            .serve(query, PRIORITY_NORMAL, QueryBudget::unbounded())
            .unwrap();
        assert_eq!(report.stats.completed, 1);
    });
    tenant.with_engine(|epoch, engine| {
        assert_eq!(epoch, tenant.versioned().current_epoch());
        assert_eq!(engine.memory().row(ClassId(class)), Some(row.clone()));
    });
    heap.allocated
}

#[test]
fn a_fresh_tenant_keeps_the_version_and_one_served_matrix() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The caller keeps its memory, as a driver holding its inputs does:
    // the fresh engine shares that matrix, so only the chunks are new.
    let memory = random_memory(ROWS, DIM, 1);
    let (tenant, heap) = measure(|| {
        TenantState::provision(spec(memory.clone()), ResilientOptions::serial(), None).unwrap()
    });
    assert_eq!(tenant.boot_source(), &BootSource::Fresh);
    assert!(
        copies(heap.grew) <= 2.5,
        "grew {} copies",
        copies(heap.grew)
    );
    assert!(
        copies(heap.peak) <= 3.5,
        "peaked at {} copies",
        copies(heap.peak)
    );
    assert!(
        tenant.spec().memory.is_empty(),
        "the spec's memory is released"
    );
    drop(tenant);
    drop(memory);

    // Without the caller's copy, the engine owns its matrix outright.
    let memory = random_memory(ROWS, DIM, 2);
    let (tenant, heap) =
        measure(|| TenantState::provision(spec(memory), ResilientOptions::serial(), None).unwrap());
    assert!(
        copies(heap.grew) <= 2.5,
        "grew {} copies",
        copies(heap.grew)
    );
    let allocated = publish_and_advance(&tenant, 1_234);
    assert!(
        allocated <= 8 * CHUNK_BYTES,
        "a one-row publish and advance allocated {allocated} bytes ({} copies)",
        copies(allocated)
    );
    assert!(allocated >= CHUNK_BYTES, "the publish copies its chunk");
}

#[test]
fn a_warm_restart_keeps_the_version_and_one_served_matrix() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("warm");
    let memory = random_memory(ROWS, DIM, 3);
    {
        let tenant =
            TenantState::provision(spec(memory.clone()), ResilientOptions::serial(), Some(&dir))
                .unwrap();
        tenant.flush_snapshot(&dir).unwrap();
        // Updates past the checkpoint live only in the write-ahead log.
        let updater = tenant.updater();
        updater
            .rethreshold_row(ClassId(5), Hypervector::random(memory.dim(), 11))
            .unwrap();
        updater
            .add_class("late", Hypervector::random(memory.dim(), 12))
            .unwrap();
    }
    let (tenant, heap) = measure(|| {
        TenantState::provision(spec(memory.clone()), ResilientOptions::serial(), Some(&dir))
            .unwrap()
    });
    assert!(matches!(
        tenant.boot_source(),
        BootSource::WarmRestart {
            wal_records_replayed: 2,
            ..
        }
    ));
    assert_eq!(tenant.versioned().load().rows(), ROWS + 1);
    assert!(
        copies(heap.grew) <= 2.5,
        "grew {} copies",
        copies(heap.grew)
    );
    assert!(
        copies(heap.peak) <= 3.5,
        "peaked at {} copies",
        copies(heap.peak)
    );

    let allocated = publish_and_advance(&tenant, 77);
    assert!(
        allocated <= 8 * CHUNK_BYTES,
        "a one-row publish and advance allocated {allocated} bytes ({} copies)",
        copies(allocated)
    );
    drop(tenant);
    let _ = std::fs::remove_dir_all(&dir);
}
