//! `qbs-cli`: thin binary wrapper around [`qbs_cli`].

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match qbs_cli::parse(&args) {
        Ok(command) => command,
        Err(err) => {
            eprintln!("error: {err}\nrun `qbs-cli help` for every command and its options");
            return ExitCode::FAILURE;
        }
    };
    match qbs_cli::run(&command) {
        Ok(report) => {
            // Rust ignores SIGPIPE, so a downstream `| head` closing early
            // surfaces as a BrokenPipe write error here; that is not a
            // failure of the command (and must not panic like `println!`
            // would). Any *other* write failure (ENOSPC on a redirect,
            // ...) means the report was not delivered — exit non-zero so
            // scripts do not proceed on truncated output.
            match writeln!(std::io::stdout(), "{report}") {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: cannot write report to stdout: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
