//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! `--workload NAME` runs one workload in this process and prints one JSON
//! result object as the last line of standard output (tables for people
//! go to standard error). Without it, every workload runs in a child
//! process of its own — peak memory is per process — and the tables go to
//! standard output. `--selfcheck` runs the whole benchmark against itself.

mod clock;
mod heater;
mod probes;
mod refgraph;
mod report;
mod rng;
mod run;
mod selfcheck;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{Metrics, END_TO_END, PER_LAYER};
use run::{Bench, Phase};
use stats::{median, median_over_rounds, percentile, sorted, Round};
use workloads::{Driver, Workload, WORKLOADS};

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       run.sh --selfcheck [--seconds S]

  --workload NAME  one of: spg-hub, dist-flat-mapped, batch-zipf, routed-open
                   (default: all four, each in its own process)
  --seed N         seed of the request streams and the arrival schedule (2021)
  --seconds S      length of the timed phase (10)
  --trace [0|1]    traced run: per-layer metrics and out/<workload>.trace.jsonl
  --quick          tiny graphs; a smoke test, its numbers support no claim
  --selfcheck      two interleaved sets of 5 full runs of this build; fails
                   when they disagree by more than half a bound
";

#[derive(Clone, Debug)]
pub struct Options {
    pub out_dir: PathBuf,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        out_dir: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 2021,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => opts.out_dir = PathBuf::from(value(&mut i)?),
            "--workload" => opts.workload = Some(value(&mut i)?.clone()),
            "--seed" => opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--quick" => opts.quick = true,
            "--selfcheck" => opts.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(name) = &opts.workload {
        if workloads::find(name).is_none() {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
    let ok = if opts.selfcheck {
        selfcheck::run(&opts)
    } else if let Some(name) = &opts.workload {
        let workload = workloads::find(name).expect("checked by parse_args");
        let line = if opts.trace {
            traced_run(workload, &opts)
        } else {
            untraced_run(workload, &opts)
        };
        println!("{line}");
        true
    } else {
        run_all(&opts)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `loadgen.*` metrics: the benchmark about itself, raw, never gated.
fn loadgen_metrics(workload: &Workload, phase: &Phase, m: &mut Metrics) {
    let rounds = &phase.rounds;
    let requests: f64 = rounds.iter().map(|r| r.requests as f64).sum();
    let span_s: f64 = rounds.iter().map(|r| r.span_ns).sum::<f64>() / 1e9;
    let raw = sorted(rounds.iter().flat_map(|r| r.latencies_ns.clone()).collect());
    let lag = sorted(rounds.iter().flat_map(|r| r.lag_ns.clone()).collect());
    let ref_ops = sorted(rounds.iter().map(|r| r.ref_wall_ns).collect());
    let cpu_ns: f64 = rounds.iter().map(|r| r.cpu_ns).sum();
    m.set("loadgen.req_per_s", requests / span_s);
    m.set("loadgen.lat_p50_us", percentile(&raw, 50.0) / 1e3);
    m.set("loadgen.lat_p99_us", percentile(&raw, 99.0) / 1e3);
    m.set("loadgen.cpu_us_per_req", cpu_ns / requests / 1e3);
    m.set("loadgen.ref_op_us", median(&ref_ops) / 1e3);
    m.set(
        "loadgen.ref_spread",
        percentile(&ref_ops, 90.0) / percentile(&ref_ops, 10.0),
    );
    m.set("loadgen.rounds", rounds.len() as f64);
    m.set("loadgen.samples", raw.len() as f64);
    m.set("loadgen.achieved_per_s", requests / span_s);
    m.set(
        "loadgen.offered_per_s",
        match workload.driver {
            Driver::RoutedOpen { frames_per_s } => frames_per_s * workload.frame as f64,
            Driver::Execute | Driver::Submit => requests / span_s,
        },
    );
    m.set(
        "loadgen.lag_p99_us",
        if lag.is_empty() {
            0.0
        } else {
            percentile(&lag, 99.0) / 1e3
        },
    );
}

/// Writes every round made, warm-up included, to `<workload>.rounds.tsv`.
fn write_round_log(path: &Path, phase: &Phase) {
    let mut log = String::from(
        "round\tkind\trequests\tbusy_ns\tcpu_ns\tspan_ns\tref_wall_ns\tref_cpu_ns\treq_cost_rel\tcpu_cost_rel\n",
    );
    let warmup = phase.warmup.iter().map(|r| (r, "warm-up"));
    let timed = phase
        .rounds
        .iter()
        .zip(&phase.traced)
        .map(|(r, &traced)| (r, if traced { "traced" } else { "timed" }));
    for (i, (r, kind)) in warmup.chain(timed).enumerate() {
        writeln!(
            log,
            "{i}\t{kind}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:.4}\t{:.4}",
            r.requests,
            r.busy_ns,
            r.cpu_ns,
            r.span_ns,
            r.ref_wall_ns,
            r.ref_cpu_ns,
            r.req_cost_rel(),
            r.cpu_cost_rel()
        )
        .expect("write to string");
    }
    std::fs::write(path, log).expect("write the round log");
}

/// Prints the machine's speed and weather, and warns when it was stormy.
fn report_weather(workload: &Workload, m: &Metrics) {
    let spread = m.get("loadgen.ref_spread").expect("measured");
    eprintln!(
        "[{}] {} rounds, ref-op {:.2} us, ref_spread {:.3} (p90/p10 of per-round ref-op time)",
        workload.name,
        m.get("loadgen.rounds").expect("measured"),
        m.get("loadgen.ref_op_us").expect("measured"),
        spread
    );
    if spread > 1.5 {
        eprintln!(
            "[{}] WARNING: ref_spread {spread:.2} > 1.5 — the machine was noisy during this run",
            workload.name
        );
    }
}

fn report_failures(bench: &Bench) {
    if let Some(failure) = &bench.first_failure {
        eprintln!(
            "[{}] {} of {} requests FAILED; first: {failure}",
            bench.workload.name, bench.failed, bench.attempted
        );
    }
}

/// The run behind the end-to-end metrics: tracing off.
fn untraced_run(workload: &Workload, opts: &Options) -> String {
    let reps = if opts.quick { 1 } else { workload.setup_reps };
    let mut raw_setups = Vec::new();
    let mut product = None;
    for _ in 0..reps {
        // One product at a time: drop the previous set-up first.
        drop(product.take());
        let p = setup::set_up(workload, opts.quick, &opts.out_dir);
        raw_setups.push(p.times.total_s());
        product = Some(p);
    }
    let product = product.expect("at least one set-up");
    let mut bench = Bench::new(workload, product, opts.seed, false);
    let phase = bench.timed_phase(opts.seconds, false);

    let mut m = Metrics::default();
    let rounds = &phase.rounds;
    loadgen_metrics(workload, &phase, &mut m);
    // Raw seconds move with the machine's weather by a quarter from one
    // half hour to the next; seconds at the nominal machine speed do not.
    // The machine's speed is the run's median ref-op time, over every
    // calibration block of the timed phase: a set-up lasts seconds, and
    // half a second of blocks samples too little of the weather it ran in.
    let setup_s = median(&raw_setups) * workload.nominal_ref_op_ns
        / (m.get("loadgen.ref_op_us").expect("measured") * 1e3);
    m.set("setup_s", setup_s);
    m.set(
        "req_cost_rel",
        median_over_rounds(rounds, Round::req_cost_rel),
    );
    m.set(
        "lat_p50_rel",
        median_over_rounds(rounds, |r| r.latency_rel(50.0)),
    );
    m.set(
        "lat_p90_rel",
        median_over_rounds(rounds, |r| r.latency_rel(90.0)),
    );
    m.set(
        "cpu_cost_rel",
        median_over_rounds(rounds, Round::cpu_cost_rel),
    );
    m.set(
        "ok_frac",
        (bench.attempted - bench.failed) as f64 / bench.attempted as f64,
    );
    m.set(
        "index_bytes_per_vertex",
        bench.product.index_bytes_per_vertex,
    );
    m.set("peak_rss_mb", phase.peak_rss_mb);

    write_round_log(
        &opts.out_dir.join(format!("{}.rounds.tsv", workload.name)),
        &phase,
    );
    report_weather(workload, &m);
    eprintln!(
        "[{}] set-up: {:.3} s raw (median of {reps}), {setup_s:.3} s calibrated",
        workload.name,
        median(&raw_setups)
    );
    report_failures(&bench);
    if opts.quick {
        eprintln!(
            "[{}] --quick: these numbers support no claim",
            workload.name
        );
    }
    eprint!("{}{}", m.table(END_TO_END), m.table(PER_LAYER));
    report::result_line(&m, END_TO_END, bench.attempted, bench.failed)
}

/// The run behind the per-layer metrics: a shorter timed phase with the
/// tracer on every other round, then the probes.
fn traced_run(workload: &Workload, opts: &Options) -> String {
    let product = setup::set_up(workload, opts.quick, &opts.out_dir);
    let mut m = Metrics::default();
    m.set("loadgen.setup_raw_s", product.times.total_s());
    m.set("gen.graph_s", product.times.gen_s);
    m.set("labelling.build_s", product.times.build_s);
    m.set(
        "labelling.entries_per_vertex",
        product.labelling_entries_per_vertex,
    );
    m.set(
        "labelling.bytes_per_vertex",
        product.labelling_bytes_per_vertex,
    );
    let mut bench = Bench::new(workload, product, opts.seed, true);
    let ref_ops: Vec<f64> = (0..5).map(|_| bench.calibrate().wall_ns).collect();
    m.set(
        "labelling.build_rel",
        bench.product.times.build_s * 1e9 / median(&ref_ops),
    );

    let phase = bench.timed_phase(opts.seconds / 4.0, true);
    loadgen_metrics(workload, &phase, &mut m);
    let cost_of = |traced: bool| {
        let rounds: Vec<Round> = phase
            .rounds
            .iter()
            .zip(&phase.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(r, _)| r.clone())
            .collect();
        median_over_rounds(&rounds, Round::req_cost_rel)
    };
    m.set(
        "loadgen.trace_overhead_frac",
        cost_of(true) / cost_of(false) - 1.0,
    );
    probes::run(&mut bench, opts.seed, &opts.out_dir, &mut m);

    let trace_path = opts.out_dir.join(format!("{}.trace.jsonl", workload.name));
    bench
        .tracer
        .write_jsonl(&trace_path)
        .expect("write the trace");
    report_weather(workload, &m);
    report_failures(&bench);
    eprintln!(
        "[{}] {} spans -> {}; self time by span name:",
        workload.name,
        bench.tracer.spans().len(),
        trace_path.display()
    );
    for (name, (count, total_ns, self_ns)) in bench.tracer.self_times() {
        eprintln!(
            "  {name:<24} {count:>8} spans {:>12.3} ms total {:>12.3} ms self",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    eprint!("{}", m.table(PER_LAYER));
    report::result_line(&m, PER_LAYER, bench.attempted, bench.failed)
}

/// Runs one workload in a child process and returns its result line.
pub fn child_run(opts: &Options, workload: &Workload, seed: u64, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut command = Command::new(exe);
    command
        .arg("--out")
        .arg(&opts.out_dir)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        command.arg("--quick");
    }
    let output = command.output().expect("run a child benchmark process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !output.status.success() || !line.starts_with('{') {
        eprintln!("[{}] run failed: {}", workload.name, output.status);
        return None;
    }
    Some(line)
}

/// All four workloads, untraced and (with `--trace`) traced; writes
/// `results.json`.
fn run_all(opts: &Options) -> bool {
    let mut ok = true;
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        for trace in [false, true] {
            if trace && !opts.trace {
                continue;
            }
            let Some(line) = child_run(opts, workload, opts.seed, trace) else {
                ok = false;
                continue;
            };
            ok &= line.contains("\"correct\": true");
            let defs = if trace { PER_LAYER } else { END_TO_END };
            println!(
                "{} ({}){}",
                workload.name,
                if trace { "traced" } else { "end to end" },
                if opts.quick {
                    " -- quick, no claims"
                } else {
                    ""
                }
            );
            for def in defs {
                if let Some(value) = report::value_in_line(&line, def.name) {
                    print!("{}", def.row(value));
                }
            }
            results.push(format!(
                "  {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"quick\": {}, \"result\": {line}}}",
                workload.name,
                u8::from(trace),
                opts.seed,
                opts.quick
            ));
        }
    }
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, format!("[\n{}\n]\n", results.join(",\n"))).expect("write results.json");
    println!("results -> {}", path.display());
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let opts = parse_args(&args(&[
            "--out",
            "x",
            "--workload",
            "spg-hub",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(opts.workload.as_deref(), Some("spg-hub"));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 10.0, false));
        assert!(parse_args(&args(&["--trace", "1"])).unwrap().trace);
        let bare = parse_args(&args(&["--trace", "--quick"])).unwrap();
        assert!(bare.trace && bare.quick);
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
    }
}
