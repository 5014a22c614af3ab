//! `elfbench`: host-throughput benchmark of the ELF simulator.
//!
//! ```text
//! elfbench [--workload branchy|bigcode|memstall|all] [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics; `--trace 1`
//! measures the per-layer metrics in a separate run. Every run checks the
//! simulator's outputs and ends with one JSON line: `correct`,
//! `attempted`, `failed` and the metrics with their units. The exit code
//! is 0 when every operation passed, 1 when one failed and 2 on a usage
//! error. See README.md.

mod checks;
mod layers;
mod measure;
mod report;
mod workloads;

use checks::Tally;
use report::Metrics;
use workloads::{WorkloadDef, WORKLOADS};

const USAGE: &str = "usage: elfbench [--workload branchy|bigcode|memstall|all] [--seed N] \
                     [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<&'static WorkloadDef>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let w = workloads::by_name(value).ok_or_else(|| bad("unknown workload"))?;
                a.workloads = vec![w];
            }
            "--seed" => a.seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Runs one workload and prints its metrics; returns them for the result.
fn run_workload(def: &WorkloadDef, a: &Args, tally: &mut Tally) -> Metrics {
    let w = elf_trace::workloads::by_name(def.program)
        .unwrap_or_else(|| panic!("registry program {} of workload {}", def.program, def.name));
    let seed = a.seed.unwrap_or(w.spec.seed);
    println!(
        "workload {} ({}; {} arch(s); warm-up {} + window {} insts; seed {seed}; {})",
        def.name,
        def.program,
        def.archs.len(),
        def.warmup,
        def.window,
        if a.trace { "traced" } else { "untraced" },
    );
    println!("  why: {}", def.why);
    let before = (tally.attempted, tally.failed);
    let m = if a.trace {
        layers::run(def, &w, seed, a.seconds, tally)
    } else {
        measure::run(def, &w, seed, a.seconds, tally)
    };
    let broken = m.non_finite();
    if !broken.is_empty() {
        tally.record("workload", broken);
    }
    for x in &m.0 {
        println!("  {:<36} {:>18} {}", x.name, x.value, x.unit);
    }
    println!(
        "  operations: {} attempted, {} failed",
        tally.attempted - before.0,
        tally.failed - before.1
    );
    m
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("elfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let mut all = Metrics::default();
    let single = args.workloads.len() == 1;
    for def in &args.workloads {
        for mut x in run_workload(def, &args, &mut tally).0 {
            if !single {
                x.name = format!("{}.{}", def.name, x.name);
            }
            all.0.push(x);
        }
    }
    for msg in &tally.messages {
        eprintln!("FAILED {msg}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        report::render_json(correct, tally.attempted, tally.failed, &all)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
