//! The session arena confirms a located entry by identity first: a
//! module resubmitted as the same object hits without a structural
//! compare, an equal module built from copies hits through the `==`
//! fallback, and a module edited in place between calls is re-keyed and
//! runs cold. An edit that changes a function's edge count is checked
//! against the new count, not the one cached before the edit. Every
//! run's report equals a session's without an arena.

use spillopt_benchgen::{benchmark_by_name, build_bench};
use spillopt_driver::{
    DriverError, FunctionReport, ModuleRun, OptimizerBuilder, Provenance, Session,
};
use spillopt_ir::{verify_function, Cfg, Cond, FuncId, Inst, InstKind, Module, Reg, RegDiscipline};
use spillopt_profile::EdgeProfile;
use spillopt_sync::Mutex;
use spillopt_targets::{registry, TargetSpec};

struct Fixture {
    spec: TargetSpec,
    module: Module,
    profiles: Vec<EdgeProfile>,
    session: Session,
}

/// A warmed session: `mcf` optimized once.
fn warmed() -> (Fixture, ModuleRun) {
    let spec = registry().remove(0);
    let bench = benchmark_by_name("mcf").expect("known benchmark");
    let module = build_bench(&bench, &spec.to_target()).module;
    let session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .build()
        .expect("valid session");
    let profiles = session.resolve_profiles(&module).expect("profiles");
    let run = session
        .optimize_profiled(&module, &profiles)
        .expect("first run");
    let fixture = Fixture {
        spec,
        module,
        profiles,
        session,
    };
    (fixture, run)
}

/// Runs `module` through the warmed session, returning the run and
/// every function's provenance in index order.
fn observed(fx: &Fixture, module: &Module) -> (ModuleRun, Vec<Provenance>) {
    let seen: Mutex<Vec<(usize, Provenance)>> = Mutex::new(Vec::new());
    let observer = |_t: &str, _m: &str, r: &FunctionReport, p: Provenance| {
        seen.lock().unwrap().push((r.index, p));
    };
    let run = fx
        .session
        .optimize_profiled_observed(module, &fx.profiles, &observer)
        .expect("observed run");
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|&(index, _)| index);
    (run, seen.into_iter().map(|(_, p)| p).collect())
}

/// Asserts `run` is byte-identical to a session without an arena.
fn assert_matches_fresh(fx: &Fixture, module: &Module, run: &ModuleRun) {
    let fresh = OptimizerBuilder::new()
        .target_spec(fx.spec.clone())
        .threads(1)
        .reuse_analyses(false)
        .build()
        .expect("valid cold session")
        .optimize_profiled(module, &fx.profiles)
        .expect("fresh run");
    assert_eq!(
        run.report.to_json().to_compact(),
        fresh.report.to_json().to_compact()
    );
    assert_eq!(run.apply(None).to_string(), fresh.apply(None).to_string());
}

#[test]
fn same_module_object_resubmitted_is_warm() {
    let (fx, _) = warmed();
    let (run, provenance) = observed(&fx, &fx.module);
    assert!(provenance.iter().all(|&p| p == Provenance::Warm));
    assert_eq!(provenance.len(), fx.module.num_funcs());
    assert_matches_fresh(&fx, &fx.module, &run);
}

#[test]
fn equal_module_from_copies_is_warm_through_equality() {
    let (fx, _) = warmed();
    let mut rebuilt = Module::new(fx.module.name());
    for (_, func) in fx.module.funcs() {
        rebuilt.add_func(func.clone());
    }
    for fid in rebuilt.func_ids() {
        assert!(!std::ptr::eq(rebuilt.func(fid), fx.module.func(fid)));
    }
    let (run, provenance) = observed(&fx, &rebuilt);
    assert!(provenance.iter().all(|&p| p == Provenance::Warm));
    assert_matches_fresh(&fx, &rebuilt, &run);
}

/// `func_mut` between two calls on the same object drops the cached
/// key: the edited function is looked up under its new key (a counted
/// miss that adds an entry, not a replace of the old one) and never
/// served the report retired for the old body.
#[test]
fn same_module_edited_in_place_is_a_counted_miss() {
    let (mut fx, first) = warmed();
    let placed = first
        .report
        .functions
        .iter()
        .find(|f| f.callee_saved > 0)
        .expect("mcf has a placed function")
        .index;
    let fid = FuncId::from_index(placed);
    let stats = fx.session.arena_stats();

    let func = fx.module.func_mut(fid);
    let dead = func.new_vreg();
    let entry = func.entry();
    func.block_mut(entry).insts.insert(
        0,
        Inst::new(InstKind::LoadImm {
            dst: Reg::Virt(dead),
            imm: 7,
        }),
    );

    let (run, provenance) = observed(&fx, &fx.module);
    for (index, p) in provenance.iter().enumerate() {
        let expected = if index == placed {
            Provenance::Cold
        } else {
            Provenance::Warm
        };
        assert_eq!(*p, expected, "function #{index} retired {p:?}");
    }
    let after = fx.session.arena_stats();
    assert_eq!(after.misses, stats.misses + 1);
    assert_eq!(after.entries, stats.entries + 1, "the edit must re-key");
    assert_ne!(
        run.report.functions[placed].to_json().to_compact(),
        first.report.functions[placed].to_json().to_compact(),
        "the edited function was served its old report"
    );
    assert_matches_fresh(&fx, &fx.module, &run);
}

/// After a warm call, `func_mut` turns one function's first
/// non-adjacent jump into a branch, one edge more. The shape check
/// must follow the edit: the old profiles are rejected as a whole
/// module, naming that function, before any function runs; profiles
/// of the new shape run, byte-identical to a fresh session.
#[test]
fn edge_count_edit_is_checked_against_the_new_shape() {
    let (mut fx, _) = warmed();
    let (_, provenance) = observed(&fx, &fx.module);
    assert!(provenance.iter().all(|&p| p == Provenance::Warm));

    let (fid, block, target, next) = fx
        .module
        .funcs()
        .find_map(|(fid, func)| {
            func.block_ids().find_map(|b| {
                let next = func.layout_next(b)?;
                match func.block(b).terminator()?.kind {
                    InstKind::Jump { target } if target != next => Some((fid, b, target, next)),
                    _ => None,
                }
            })
        })
        .expect("mcf has a jump to a non-adjacent block");
    let old_edges = fx.module.edge_count(fid);
    assert_eq!(old_edges, fx.profiles[fid.index()].edge_counts().len());

    let func = fx.module.func_mut(fid);
    let flag = func.new_vreg();
    let insts = &mut func.block_mut(block).insts;
    let at = insts.len() - 1;
    insts.insert(
        at,
        Inst::new(InstKind::LoadImm {
            dst: Reg::Virt(flag),
            imm: 0,
        }),
    );
    insts[at + 1].kind = InstKind::Branch {
        cond: Cond::Eq,
        lhs: Reg::Virt(flag),
        rhs: Reg::Virt(flag),
        taken: target,
        fallthrough: next,
    };
    let func = fx.module.func(fid);
    let errors = verify_function(func, RegDiscipline::Virtual);
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(fx.module.edge_count(fid), old_edges + 1);
    assert_eq!(fx.module.edge_count(fid), Cfg::compute(func).num_edges());

    let stats = fx.session.arena_stats();
    match fx.session.optimize_profiled(&fx.module, &fx.profiles) {
        Err(DriverError::Config(msg)) => {
            let name = fx.module.func(fid).name();
            let expected = format!(
                "profile for function #{} (`{name}`) has {old_edges} edge count(s) but its \
                 CFG has {} edge(s)",
                fid.index(),
                old_edges + 1
            );
            assert!(msg.starts_with(&expected), "{msg}");
        }
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("profiles of the old shape were accepted"),
    }
    let after = fx.session.arena_stats();
    assert_eq!((after.hits, after.misses), (stats.hits, stats.misses));

    fx.profiles = fx.session.resolve_profiles(&fx.module).expect("profiles");
    let (run, provenance) = observed(&fx, &fx.module);
    assert_eq!(provenance[fid.index()], Provenance::Cold);
    assert_matches_fresh(&fx, &fx.module, &run);
}
