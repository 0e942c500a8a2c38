//! A/A self-check: the benchmark measured against itself.
//!
//! Two sets of full untraced runs of the same build, interleaved so both
//! see the same weather, every run under a seed of its own. For each
//! workload and end-to-end metric it prints both medians, their gap, the
//! spread of all ten runs (interquartile distance over median, the
//! driver's measure) and the bound. A gap above half the bound, or a
//! spread above the bound, fails the check. `setup_s` is held to what the
//! driver holds it to, a gap within the whole bound and no limit on the
//! spread: a set-up is one long measurement that cannot be cut into
//! calibrated rounds, and medians of five scatter by more than half the
//! largest bound the driver allows.

use std::fmt::Write as _;

use crate::report::{value_in_line, END_TO_END};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use crate::{child_run, Options};

/// Full runs per set.
const RUNS: usize = 5;

pub fn run(opts: &Options) -> bool {
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    let mut all_correct = true;
    for run in 0..RUNS {
        for (set, per_set) in values.iter_mut().enumerate() {
            let seed = opts.seed + (2 * run + set) as u64;
            for (w, workload) in WORKLOADS.iter().enumerate() {
                eprintln!(
                    "selfcheck: set {} run {}/{} {} seed {seed}",
                    ["A", "B"][set],
                    run + 1,
                    RUNS,
                    workload.name
                );
                let Some(line) = child_run(opts, workload, seed, false) else {
                    return false;
                };
                all_correct &= line.contains("\"correct\": true");
                for (k, def) in END_TO_END.iter().enumerate() {
                    per_set[w][k].push(value_in_line(&line, def.name).expect("metric in result"));
                }
            }
        }
    }

    let mut table = String::from(
        "| workload | metric | median A | median B | gap | spread of all runs | bound | verdict |\n\
         |---|---|---:|---:|---:|---:|---:|---|\n",
    );
    let mut ok = all_correct;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (k, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][k], &values[1][w][k]);
            let (med_a, med_b) = (median(a), median(b));
            let gap = (med_b - med_a).abs() / med_a.abs();
            let spread = spread(&[a.as_slice(), b.as_slice()].concat());
            let pass = if def.name == "setup_s" {
                gap <= def.bound
            } else {
                gap <= def.bound / 2.0 && spread <= def.bound
            };
            ok &= pass;
            writeln!(
                table,
                "| {} | {} | {:.5} | {:.5} | {:.2}% | {:.2}% | {:.1}% | {} |",
                workload.name,
                def.name,
                med_a,
                med_b,
                gap * 100.0,
                spread * 100.0,
                def.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            )
            .expect("write to string");
        }
    }
    print!("{table}");
    let path = opts.out_dir.join("selfcheck.md");
    std::fs::write(&path, &table).expect("write selfcheck.md");
    println!(
        "{RUNS} runs per set, {} s each -> {}",
        opts.seconds,
        path.display()
    );
    if !all_correct {
        println!("FAIL: a run reported wrong answers");
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    ok
}
