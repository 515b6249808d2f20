//! Reproduction driver: regenerates the paper's tables and figures.
//!
//! ```text
//! repro fig1        Figure 1 crossover sweep
//! repro fig2        Figures 2-4 worked-example walkthrough
//! repro fig5        Figure 5 dynamic overhead per benchmark
//! repro table1      Table 1 overhead ratios (vs paper values)
//! repro table2      Table 2 incremental compile-time ratios
//! repro all          everything (default)
//! repro bench NAME   a single benchmark in detail
//! repro targets NAME one benchmark across every registered backend target
//! ```

use spillopt_driver::Strategy;
use spillopt_harness::experiments;
use spillopt_harness::runner::run_named_benchmark;
use spillopt_ir::Target;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let target = Target::default();

    match what {
        "fig1" => print!("{}", experiments::fig1()),
        "fig2" | "fig3" | "fig4" => print!("{}", experiments::fig2_walkthrough()),
        "fig5" | "table1" | "table2" | "all" => {
            eprintln!("running all 11 benchmarks (generate, profile, allocate, place, execute)...");
            let results = match experiments::run_all_benchmarks(&target) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("pipeline failure: {e}");
                    std::process::exit(1);
                }
            };
            match what {
                "fig5" => print!("{}", experiments::fig5(&results)),
                "table1" => print!("{}", experiments::table1(&results)),
                "table2" => print!("{}", experiments::table2(&results)),
                _ => {
                    print!("{}", experiments::fig1());
                    println!();
                    print!("{}", experiments::fig2_walkthrough());
                    println!();
                    print!("{}", experiments::fig5(&results));
                    println!();
                    print!("{}", experiments::table1(&results));
                    println!();
                    print!("{}", experiments::table2(&results));
                    println!();
                    print!("{}", experiments::guarantee_summary(&results));
                }
            }
        }
        "targets" => {
            let name = args.get(1).map(String::as_str).unwrap_or("crafty");
            eprintln!("running {name} across all registered targets...");
            match experiments::cross_target(name) {
                Ok(t) => print!("{}", t.render()),
                Err(e) => {
                    eprintln!("pipeline failure: {e}");
                    std::process::exit(1);
                }
            }
        }
        "bench" => {
            let name = args.get(1).map(String::as_str).unwrap_or("gzip");
            match run_named_benchmark(name, &target) {
                Ok(r) => {
                    println!(
                        "benchmark {name}: {} functions ({} using callee-saved), {} insts",
                        r.funcs, r.funcs_with_callee_saved, r.module_insts
                    );
                    for t in Strategy::all() {
                        let x = r.of(t);
                        println!(
                            "  {:>15}: overhead {:>12}  (callee-saved {:>12}, jumps {:>8}, static {:>4}, pass {:?})",
                            t.name(),
                            x.dynamic_overhead,
                            x.callee_saved_overhead,
                            x.jump_overhead,
                            x.static_count,
                            x.pass_time
                        );
                    }
                    println!(
                        "  ratios: hier-jump {:.3}  shrinkwrap {:.3}",
                        r.ratio(Strategy::HierJump),
                        r.ratio(Strategy::Shrinkwrap)
                    );
                }
                Err(e) => {
                    eprintln!("failure: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; try fig1|fig2|fig5|table1|table2|all|bench NAME|targets NAME"
            );
            std::process::exit(2);
        }
    }
}
