//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <which> [options]
//!
//! which:    table1 | table2 | table3 | fig7 | fig8 | fig9 | fig10 | fig11 |
//!           traversal | ablation | mixedbatch | netserve | routed |
//!           obs | all
//!
//! options:
//!   --scale tiny|small|medium|large   dataset scale          (default: small)
//!   --queries N                       query pairs per dataset (default: 1000)
//!   --landmarks N                     |R| for the tables      (default: 20)
//!   --sweep a,b,c                     |R| values for figs 8-11 (default: 20,40,60,80,100)
//!   --datasets DO,DB,...              subset of Table 1 abbreviations
//!   --out DIR                         also write JSON results into DIR
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;

use qbs_bench::experiments;
use qbs_bench::reporting::write_json;
use qbs_bench::ExperimentConfig;
use qbs_gen::catalog::{DatasetId, Scale};
use qbs_graph::json::ToJson;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let which = args[0].clone();
    let (config, out_dir) = match parse_options(&args[1..]) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            print_usage();
            return ExitCode::FAILURE;
        }
    };

    let mut outputs: BTreeMap<&'static str, (String, Rc<dyn ToJson>)> = BTreeMap::new();
    let run = |name: &str| which == name || which == "all";

    eprintln!(
        "# running '{which}' at scale {:?} with |R|={} and {} queries per dataset",
        config.scale, config.landmark_count, config.query_count
    );

    if run("table1") {
        let r = experiments::table1(&config);
        outputs.insert("table1", (r.render(), Rc::new(r)));
    }
    if run("table2") {
        let r = experiments::table2(&config);
        outputs.insert("table2", (r.render(), Rc::new(r)));
    }
    if run("table3") {
        let r = experiments::table3(&config);
        outputs.insert("table3", (r.render(), Rc::new(r)));
    }
    if run("fig7") {
        let r = experiments::fig7(&config);
        outputs.insert("fig7", (r.render(), Rc::new(r)));
    }
    if run("fig8") || run("fig9") || run("fig10") || run("fig11") {
        let sweep = Rc::new(experiments::landmark_sweep(&config));
        if run("fig8") {
            outputs.insert("fig8", (sweep.render_fig8(), sweep.clone()));
        }
        if run("fig9") {
            outputs.insert("fig9", (sweep.render_fig9(), sweep.clone()));
        }
        if run("fig10") {
            outputs.insert("fig10", (sweep.render_fig10(), sweep.clone()));
        }
        if run("fig11") {
            outputs.insert("fig11", (sweep.render_fig11(), sweep.clone()));
        }
    }
    if run("traversal") {
        let r = experiments::traversal(&config);
        outputs.insert("traversal", (r.render(), Rc::new(r)));
    }
    if run("ablation") {
        let r = experiments::ablation(&config);
        outputs.insert("ablation", (r.render(), Rc::new(r)));
    }
    // `mixedbatch` and the other differentials below are explicit-only
    // pass/fail differentials, not part of `all`: the smoke run would
    // otherwise build the same indices twice (CI runs each as its own
    // named step).
    let mut drift = false;
    if which == "mixedbatch" {
        let r = match experiments::mixed_batch(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: mixedbatch failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        drift |= !r.all_identical();
        outputs.insert("mixedbatch", (r.render(), Rc::new(r)));
    }
    if which == "netserve" {
        let r = match experiments::net_serving(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: netserve failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        drift |= !r.all_ok();
        outputs.insert("netserve", (r.render(), Rc::new(r)));
    }
    if which == "routed" {
        let r = match experiments::routed_serving(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: routed failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        drift |= !r.all_ok();
        outputs.insert("routed", (r.render(), Rc::new(r)));
    }
    if which == "obs" {
        let r = match experiments::obs_serving(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: obs failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        drift |= !r.all_ok();
        outputs.insert("obs", (r.render(), Rc::new(r)));
    }

    if outputs.is_empty() {
        eprintln!("error: unknown experiment '{which}'\n");
        print_usage();
        return ExitCode::FAILURE;
    }

    for (name, (text, json)) in &outputs {
        println!("{text}");
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
            } else if let Err(e) = write_json(&**json, dir.join(format!("{name}.json"))) {
                eprintln!("warning: cannot write {name}.json: {e}");
            }
        }
    }
    if drift {
        eprintln!(
            "error: differential detected answer drift — the serving path under test no \
             longer matches its reference (see the table above)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    eprintln!(
        "usage: experiments <table1|table2|table3|fig7|fig8|fig9|fig10|fig11|traversal|ablation|mixedbatch|netserve|routed|obs|all> \
         [--scale tiny|small|medium|large] [--queries N] [--landmarks N] \
         [--sweep a,b,c] [--datasets DO,DB,...] [--out DIR]"
    );
}

fn parse_options(args: &[String]) -> Result<(ExperimentConfig, Option<PathBuf>), String> {
    let mut config = ExperimentConfig::default();
    let mut out_dir = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--scale" => {
                config.scale = match value.to_lowercase().as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--queries" => {
                config.query_count = value
                    .parse()
                    .map_err(|_| format!("invalid query count '{value}'"))?;
            }
            "--landmarks" => {
                config.landmark_count = value
                    .parse()
                    .map_err(|_| format!("invalid landmark count '{value}'"))?;
            }
            "--sweep" => {
                config.landmark_sweep = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("invalid sweep entry '{s}'"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            "--datasets" => {
                config.datasets = value
                    .split(',')
                    .map(|abbrev| {
                        DatasetId::ALL
                            .iter()
                            .copied()
                            .find(|id| id.abbrev().eq_ignore_ascii_case(abbrev.trim()))
                            .ok_or_else(|| format!("unknown dataset abbreviation '{abbrev}'"))
                    })
                    .collect::<Result<Vec<DatasetId>, String>>()?;
            }
            "--out" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 2;
    }
    Ok((config, out_dir))
}
