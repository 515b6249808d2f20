//! The allocation certificate: empty exactly when coloring never
//! blocked, always valid under the allocation's own profile, and able
//! to reject a drift that flips a blocked spill choice.

use spillopt_ir::{
    BinOp, BlockId, Cfg, Cond, DenseBitSet, Function, FunctionBuilder, Liveness, Reg, Target,
};
use spillopt_profile::{random_walk_profile, EdgeProfile};
use spillopt_regalloc::{
    allocate, color, insert_spill_code, AllocCertificate, Coloring, InterferenceGraph,
};
use spillopt_stress::gen_case;
use spillopt_targets::registry;

/// Every function of the first `seeds` stress modules on every
/// registered target, with a deterministic random-walk profile.
fn corpus(seeds: u64) -> Vec<(Target, Function, EdgeProfile)> {
    let mut out = Vec::new();
    for spec in registry() {
        let target = spec.to_target();
        for seed in 0..seeds {
            let module = gen_case(&target, seed).module;
            for fid in module.func_ids() {
                let func = module.func(fid).clone();
                let cfg = Cfg::compute(&func);
                let profile = random_walk_profile(&cfg, 96, 128, seed ^ fid.index() as u64);
                out.push((target.clone(), func, profile));
            }
        }
    }
    out
}

/// Whether simplification must block on this round's coalesced graph,
/// decided without running `color`'s simplify loop: removing nodes of
/// degree < k in any order leaves the same residue (removal only
/// lowers degrees), and the loop blocks iff that residue is non-empty.
fn residue_is_nonempty(graph: &InterferenceGraph, coloring: &Coloring, k: usize) -> bool {
    let nv = graph.num_vregs();
    let rep = |x: usize| {
        if x < nv {
            coloring.alias[x] as usize
        } else {
            x
        }
    };
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nv];
    for v in 0..nv {
        let r = rep(v);
        for n in graph.neighbors(v) {
            let n = rep(n);
            if n != r && !adj[r].contains(&n) {
                adj[r].push(n);
            }
        }
    }
    let reps: Vec<usize> = (0..nv).filter(|&v| rep(v) == v).collect();
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut removed = vec![false; nv];
    let mut progress = true;
    while progress {
        progress = false;
        for &r in &reps {
            if !removed[r] && degree[r] < k {
                removed[r] = true;
                progress = true;
                for &n in &adj[r] {
                    if n < nv && !removed[n] {
                        degree[n] -= 1;
                    }
                }
            }
        }
    }
    reps.iter().any(|&r| !removed[r])
}

/// Re-runs `allocate`'s round loop by hand and reports whether any
/// round's graph had a non-empty residue; also checks round by round
/// that `color` recorded blocked steps exactly when it had one.
fn any_round_blocks(mut func: Function, target: &Target, profile: &EdgeProfile) -> bool {
    let cfg = Cfg::compute(&func);
    let weights: Vec<u64> = func
        .block_ids()
        .map(|b| profile.block_count(b).max(1))
        .collect();
    let mut no_spill = DenseBitSet::new(func.num_vregs());
    let mut blocked = false;
    for _ in 0..16 {
        let liveness = Liveness::compute(&func, &cfg, target);
        let graph = InterferenceGraph::build(&func, &cfg, target, &liveness, &weights);
        let mut ns = DenseBitSet::new(func.num_vregs());
        for i in no_spill.iter() {
            ns.insert(i);
        }
        let coloring = color(&graph, target, &ns);
        let residue = residue_is_nonempty(&graph, &coloring, target.num_regs());
        assert_eq!(
            residue,
            coloring.blocked.is_some(),
            "`{}` on {}: residue vs recorded blocked steps",
            func.name(),
            target.name()
        );
        blocked |= residue;
        if coloring.spills.is_empty() {
            return blocked;
        }
        let temps = insert_spill_code(&mut func, &coloring.spills);
        let mut s = DenseBitSet::new(func.num_vregs());
        for i in ns.iter().chain(temps.iter()) {
            s.insert(i);
        }
        no_spill = s;
    }
    panic!("hand-run allocation of `{}` did not converge", func.name());
}

#[test]
fn certificate_is_empty_exactly_when_no_round_blocks() {
    let (mut blocked, mut clear) = (0, 0);
    for (target, func, profile) in corpus(24) {
        let mut allocated = func.clone();
        let result = allocate(&mut allocated, &target, Some(&profile));
        let empty = result.certificate == AllocCertificate::default();
        let blocks = any_round_blocks(func.clone(), &target, &profile);
        assert_eq!(
            empty,
            !blocks,
            "`{}` on {}: certificate empty = {empty}, a round blocks = {blocks}",
            func.name(),
            target.name()
        );
        if blocks {
            blocked += 1;
        } else {
            clear += 1;
        }
    }
    // The corpus must exercise both sides.
    assert!(blocked > 0 && clear > 0, "blocked {blocked}, clear {clear}");
}

#[test]
fn certificate_holds_under_its_own_profile() {
    for (target, func, profile) in corpus(24) {
        let mut allocated = func.clone();
        let result = allocate(&mut allocated, &target, Some(&profile));
        assert!(
            result.certificate.holds_under(&profile),
            "`{}` on {}",
            func.name(),
            target.name()
        );
    }
}

/// Five values live from the entry to the join on a 4-register target,
/// so simplification must block. `v2` is stored on the taken arm and
/// `v3` on the other; the other three are stored often in the join, so
/// the spill choice falls to whichever of `v2`/`v3` sits on the colder
/// arm.
fn two_arm_pressure() -> (Function, Target, BlockId) {
    let target = Target::tiny();
    let mut fb = FunctionBuilder::with_target("arms", 0, target.clone());
    let entry = fb.create_block(Some("entry"));
    let left = fb.create_block(Some("left"));
    let right = fb.create_block(Some("right"));
    let join = fb.create_block(Some("join"));
    fb.switch_to(entry);
    let v: Vec<_> = (0..5).map(|i| fb.li(i)).collect();
    fb.branch(Cond::Lt, Reg::Virt(v[0]), Reg::Virt(v[1]), left, right);
    let slot = fb.new_slot();
    for (block, value) in [(left, v[2]), (right, v[3])] {
        fb.switch_to(block);
        for _ in 0..4 {
            fb.store(Reg::Virt(value), slot);
        }
        fb.jump(join);
    }
    fb.switch_to(join);
    for _ in 0..8 {
        for &heavy in &[v[0], v[1], v[4]] {
            fb.store(Reg::Virt(heavy), slot);
        }
    }
    let mut acc = v[0];
    for value in &v[1..] {
        acc = fb.bin(BinOp::Add, Reg::Virt(acc), Reg::Virt(*value));
    }
    fb.ret(Some(Reg::Virt(acc)));
    (fb.finish(), target, left)
}

/// The profile sending `left_count` of 1001 entries through `left`.
fn arm_profile(func: &Function, left: BlockId, left_count: u64) -> EdgeProfile {
    let cfg = Cfg::compute(func);
    let counts = cfg
        .edges()
        .map(|(_, e)| {
            if e.from == left || e.to == left {
                left_count
            } else {
                1001 - left_count
            }
        })
        .collect();
    EdgeProfile::new(&cfg, counts, 1001)
}

#[test]
fn swapping_two_arm_counts_flips_a_blocked_choice() {
    let (func, target, left_arm) = two_arm_pressure();
    let hot_left = arm_profile(&func, left_arm, 1000);
    let hot_right = arm_profile(&func, left_arm, 1);
    // The drift swaps exactly the two arms' block counts.
    let counts = |p: &EdgeProfile| {
        func.block_ids()
            .map(|b| p.block_count(b))
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(&hot_left), [1001, 1000, 1, 1001]);
    assert_eq!(counts(&hot_right), [1001, 1, 1000, 1001]);

    let mut left_alloc = func.clone();
    let left = allocate(&mut left_alloc, &target, Some(&hot_left));
    assert_ne!(left.certificate, AllocCertificate::default());
    assert!(left.certificate.holds_under(&hot_left));
    assert!(
        !left.certificate.holds_under(&hot_right),
        "the certificate accepted a drift that flips the spill choice"
    );
    let mut right_alloc = func.clone();
    let right = allocate(&mut right_alloc, &target, Some(&hot_right));
    assert_ne!(
        left_alloc, right_alloc,
        "the flipped choice left the function unchanged"
    );
    assert!(right.certificate.holds_under(&hot_right));
    assert!(!right.certificate.holds_under(&hot_left));
}
