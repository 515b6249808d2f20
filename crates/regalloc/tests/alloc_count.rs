//! Pins the allocator's heap traffic: the mean number of heap
//! allocations one function costs to clone and allocate, over every
//! `benchgen` module on every registered target.
//!
//! A counting global allocator tallies `alloc`, `alloc_zeroed` and
//! `realloc` calls per thread, so tests running in parallel in this
//! binary cannot pollute each other's counts. The count is a pure
//! function of the code and the corpus, so the bound is exact rather
//! than statistical: a change that brings back per-block allocation in
//! liveness, the CFG or the interference build, or an unconditional
//! copy in coloring, fails here instead of hiding in benchmark noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spillopt_benchgen::{all_benchmarks, build_bench};
use spillopt_ir::Cfg;
use spillopt_profile::random_walk_profile;
use spillopt_regalloc::allocate;
use spillopt_targets::registry;

/// The system allocator, counting the calls that obtain memory.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocation count so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The measured mean, allocations per function (clone included), at
/// the time the flat liveness, the CSR CFG and the borrowed coloring
/// matrix landed. Lower it when a change lowers the count; never raise
/// it to make a change pass.
const MAX_MEAN_ALLOCS: f64 = 73.4;

#[test]
fn clone_and_allocate_stays_within_the_pinned_allocation_count() {
    let mut functions = 0u64;
    let mut total = 0u64;
    for spec in registry() {
        let target = spec.to_target();
        for bench in all_benchmarks() {
            let module = build_bench(&bench, &target).module;
            for fid in module.func_ids() {
                let source = module.func(fid);
                let profile =
                    random_walk_profile(&Cfg::compute(source), 96, 128, fid.index() as u64);
                let before = allocs();
                let mut func = source.clone();
                allocate(&mut func, &target, Some(&profile));
                total += allocs() - before;
                functions += 1;
            }
        }
    }
    let mean = total as f64 / functions as f64;
    println!("{functions} functions, {mean:.2} allocations per function");
    assert!(functions >= 800, "corpus shrank to {functions} functions");
    assert!(
        mean <= MAX_MEAN_ALLOCS,
        "clone + allocate made {mean:.2} heap allocations per function \
         (pinned at most {MAX_MEAN_ALLOCS})"
    );
}
