//! Runs a subset of the synthetic SPEC CPU2000 suite end to end and
//! prints the Table-1-style ratios.
//!
//! ```sh
//! cargo run --release --example spec_subset [bench ...]
//! ```

use spillopt_driver::Strategy;
use spillopt_harness::runner::run_named_benchmark;
use spillopt_ir::Target;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["mcf", "gzip", "crafty"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let target = Target::default();
    for name in names {
        match run_named_benchmark(name, &target) {
            Ok(r) => {
                println!(
                    "{:>8}: optimized {:>6.1}%  shrinkwrap {:>6.1}%  \
                     (baseline overhead {}, {} of {} functions use callee-saved regs)",
                    r.name,
                    r.ratio(Strategy::HierJump) * 100.0,
                    r.ratio(Strategy::Shrinkwrap) * 100.0,
                    r.of(Strategy::Baseline).dynamic_overhead,
                    r.funcs_with_callee_saved,
                    r.funcs,
                );
            }
            Err(e) => eprintln!("{name}: FAILED: {e}"),
        }
    }
}
