//! The structural fingerprint, and the module's shared, copy-on-write
//! functions that cache it.

use spillopt_benchgen::{benchmark_by_name, build_bench};
use spillopt_ir::{FuncId, FunctionBuilder, Module, Target};
use spillopt_sync::Arc;

fn mcf() -> Module {
    let spec = benchmark_by_name("mcf").expect("known benchmark");
    build_bench(&spec, &Target::default()).module
}

#[test]
fn fingerprint_is_structural_and_deterministic() {
    let module = mcf();
    let f = module.func(FuncId::from_index(0));
    assert_eq!(f.fingerprint(), f.clone().fingerprint());
    // A cosmetic block name prints the same as no name but is a
    // different key.
    let mut fb = FunctionBuilder::new("g", 0);
    let entry = fb.create_block(None);
    fb.switch_to(entry);
    fb.ret(None);
    let unnamed = fb.finish();
    let mut named = unnamed.clone();
    named.block_mut(entry).name = Some("bb0".to_string());
    assert_eq!(named.to_string(), unnamed.to_string());
    assert_ne!(named.fingerprint(), unnamed.fingerprint());
}

/// An edit through `func_mut` after the key was cached re-keys the
/// function: the module's key is the edited function's own.
#[test]
fn func_mut_after_fingerprint_rekeys_the_function() {
    let mut module = mcf();
    let fid = FuncId::from_index(0);
    let before = module.fingerprint(fid);
    assert_eq!(before, module.func(fid).fingerprint());
    module.func_mut(fid).frame_mut().alloc_slot();
    let edited = module.func(fid).fingerprint();
    assert_ne!(edited, before, "the edit must change the structure");
    assert_eq!(module.fingerprint(fid), edited);
}

/// `Clone` shares every function; `func_mut` on the clone copies that
/// one function and leaves the original's function and key alone.
#[test]
fn clone_shares_every_function_and_copies_on_write() {
    let original = mcf();
    let fid = FuncId::from_index(0);
    let key = original.fingerprint(fid);
    let before = original.func(fid).clone();
    let mut copy = original.clone();
    for f in original.func_ids() {
        assert!(Arc::ptr_eq(original.shared_func(f), copy.shared_func(f)));
    }

    copy.func_mut(fid).frame_mut().alloc_slot();
    assert!(!Arc::ptr_eq(
        original.shared_func(fid),
        copy.shared_func(fid)
    ));
    assert_eq!(*original.func(fid), before);
    assert_eq!(original.fingerprint(fid), key);
    assert_eq!(copy.fingerprint(fid), copy.func(fid).fingerprint());
    assert_ne!(copy.fingerprint(fid), key);
    for f in original.func_ids().filter(|&f| f != fid) {
        assert!(Arc::ptr_eq(original.shared_func(f), copy.shared_func(f)));
    }
}
