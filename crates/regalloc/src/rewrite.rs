//! Applying a coloring: rewriting virtual registers to physical ones.

use spillopt_ir::{BlockId, Function, InstKind, PReg, Reg, Target};

/// Replaces every virtual register with its assigned physical register and
/// removes the identity moves that coalescing produced, rewriting each
/// block in place.
///
/// Returns the number of removed moves and the callee-saved registers
/// the rewritten function mentions, in register order. The rewrite sees
/// every operand anyway, so it marks those registers (through
/// [`Target::callee_saved_slot`]) as it goes, counting only the
/// instructions it keeps: a callee-saved register named only by a
/// removed identity move is not used.
///
/// # Panics
///
/// Panics if any virtual register lacks an assignment (the allocator only
/// calls this after a spill-free coloring).
pub fn apply_coloring(
    func: &mut Function,
    assignment: &[Option<PReg>],
    target: &Target,
) -> (usize, Vec<PReg>) {
    let mut removed = 0;
    let mut used = 0u64;
    for bi in 0..func.num_blocks() {
        func.block_mut(BlockId::from_index(bi))
            .insts
            .retain_mut(|inst| {
                let mut mentioned = 0u64;
                inst.for_each_reg_mut(|r| {
                    let p = match *r {
                        Reg::Virt(v) => {
                            let p = assignment[v.index()]
                                .unwrap_or_else(|| panic!("vreg {v} has no assigned register"));
                            *r = Reg::Phys(p);
                            p
                        }
                        Reg::Phys(p) => p,
                    };
                    if let Some(slot) = target.callee_saved_slot(p) {
                        mentioned |= 1 << slot;
                    }
                });
                if let InstKind::Move { dst, src } = &inst.kind {
                    if dst == src {
                        removed += 1;
                        return false;
                    }
                }
                used |= mentioned;
                true
            });
    }
    let mut used_callee_saved: Vec<PReg> = target
        .callee_saved()
        .iter()
        .enumerate()
        .filter(|&(slot, _)| used & (1 << slot) != 0)
        .map(|(_, &p)| p)
        .collect();
    used_callee_saved.sort();
    (removed, used_callee_saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{verify_function, FunctionBuilder, RegDiscipline};

    #[test]
    fn rewrites_to_physical_and_drops_identity_moves() {
        let mut fb = FunctionBuilder::new("f", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let y = fb.new_vreg();
        fb.mov(Reg::Virt(y), Reg::Virt(x));
        fb.ret(Some(Reg::Virt(y)));
        let mut f = fb.finish();
        // Coalesced: both map to r5.
        let assignment = vec![Some(PReg::new(5)); f.num_vregs()];
        let (removed, used) = apply_coloring(&mut f, &assignment, &Target::default());
        assert_eq!(removed, 1);
        assert!(used.is_empty());
        assert!(verify_function(&f, RegDiscipline::Physical).is_empty());
    }

    #[test]
    fn reports_callee_saved_registers_of_kept_instructions_only() {
        // v0 -> r12 and v1, v2 -> r20 (callee-saved), v3 -> r3
        // (caller-saved); r11 and r13 are already physical, and r13
        // appears only in an identity move, which is removed.
        let mut fb = FunctionBuilder::new("f", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let y = fb.li(2);
        let z = fb.new_vreg();
        fb.mov(Reg::Virt(z), Reg::Virt(y));
        let w = fb.li(3);
        fb.mov(Reg::Phys(PReg::new(11)), Reg::Virt(w));
        fb.mov(Reg::Phys(PReg::new(13)), Reg::Phys(PReg::new(13)));
        fb.ret(Some(Reg::Virt(x)));
        let mut f = fb.finish();
        let assignment = vec![
            Some(PReg::new(12)),
            Some(PReg::new(20)),
            Some(PReg::new(20)),
            Some(PReg::new(3)),
        ];
        let (removed, used) = apply_coloring(&mut f, &assignment, &Target::default());
        assert_eq!(removed, 2);
        assert_eq!(used, vec![PReg::new(11), PReg::new(12), PReg::new(20)]);
        assert!(verify_function(&f, RegDiscipline::Physical).is_empty());
    }
}
