//! The session arena's structure key must never serve one function's
//! retired products for another.
//!
//! The IR text printer names blocks by their cosmetic names in layout
//! order and never prints a `BlockId`, so two functions that number
//! their blocks differently — same names, same layout, same
//! instructions — render to the same text while their CFGs number
//! edges differently (and their placements name different ids). A key
//! derived from the text would serve the first function's outcome for
//! the second; the structural key must run the second one cold.

use spillopt_benchgen::{benchmark_by_name, build_bench};
use spillopt_driver::{FunctionReport, OptimizerBuilder, Provenance};
use spillopt_ir::display::block_name;
use spillopt_ir::{BlockId, FuncId, Function, InstKind, Module};
use spillopt_sync::Mutex;
use spillopt_targets::registry;

/// `func` with its block ids reversed: the same layout, instructions and
/// (materialized) block names, so it prints to the same text.
fn renumbered(func: &Function) -> Function {
    let n = func.num_blocks();
    let remap = |b: BlockId| BlockId::from_index(n - 1 - b.index());
    let mut out = Function::new(func.name());
    out.set_num_params(func.num_params());
    out.reserve_vregs(func.num_vregs());
    out.frame_mut().reserve_slots(func.frame().num_slots());
    for new in 0..n {
        let old = remap(BlockId::from_index(new));
        let b = out.add_block(Some(&block_name(func, old)));
        let mut insts = func.block(old).insts.clone();
        for inst in &mut insts {
            match &mut inst.kind {
                InstKind::Jump { target } => *target = remap(*target),
                InstKind::Branch {
                    taken, fallthrough, ..
                } => {
                    *taken = remap(*taken);
                    *fallthrough = remap(*fallthrough);
                }
                _ => {}
            }
        }
        out.block_mut(b).insts = insts;
    }
    out.set_layout(func.layout().iter().map(|&b| remap(b)).collect());
    out
}

#[test]
fn renumbered_twin_with_equal_text_runs_cold_not_warm() {
    let spec = registry().remove(0);
    let bench = benchmark_by_name("mcf").expect("known benchmark");
    let first = build_bench(&bench, &spec.to_target()).module;
    let session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .build()
        .expect("valid session");
    let profiles = session
        .resolve_profiles(&first)
        .expect("synthetic profiles");
    let cold_run = session
        .optimize_profiled(&first, &profiles)
        .expect("first run");

    // The twin of a function that needs placement and has a real
    // block numbering to permute.
    let twin_of = cold_run
        .report
        .functions
        .iter()
        .find(|f| f.callee_saved > 0 && f.blocks >= 3)
        .expect("mcf has a placed multi-block function")
        .index;
    let fid = FuncId::from_index(twin_of);
    let twin = renumbered(first.func(fid));
    assert_ne!(
        &twin,
        first.func(fid),
        "renumbering must change the structure"
    );
    assert_eq!(
        twin.to_string(),
        first.func(fid).to_string(),
        "the twin must print to the same text"
    );
    let mut second = Module::new(first.name());
    for (f, func) in first.funcs() {
        second.add_func(if f == fid { twin.clone() } else { func.clone() });
    }

    // Same profile vectors as the first call: a text key would see the
    // exact (function, profile) pair it has already retired.
    let seen: Mutex<Vec<(usize, Provenance)>> = Mutex::new(Vec::new());
    let observer = |_t: &str, _m: &str, r: &FunctionReport, p: Provenance| {
        seen.lock().unwrap().push((r.index, p));
    };
    let warm_run = session
        .optimize_profiled_observed(&second, &profiles, &observer)
        .expect("second run");
    for (index, provenance) in seen.lock().unwrap().iter() {
        let expected = if *index == twin_of {
            Provenance::Cold
        } else {
            Provenance::Warm
        };
        assert_eq!(
            *provenance, expected,
            "function #{index} retired {provenance:?}"
        );
    }

    let fresh = OptimizerBuilder::new()
        .target_spec(spec)
        .threads(1)
        .reuse_analyses(false)
        .build()
        .expect("valid cold session")
        .optimize_profiled(&second, &profiles)
        .expect("fresh run");
    assert_eq!(
        warm_run.report.to_json().to_compact(),
        fresh.report.to_json().to_compact(),
        "the twin's report must equal a fresh session's"
    );
    assert_eq!(
        warm_run.apply(None).to_string(),
        fresh.apply(None).to_string(),
        "the twin must materialize as a fresh session's code"
    );
}
