//! `cira-perfbench --workload W --seed N --seconds S --trace 0|1`: runs
//! one workload and prints its metrics, the result line last.

use std::process::ExitCode;

use cira_perfbench::{execute, Args, Scale, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = execute(&args, Scale::Full, false);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result);
    ExitCode::SUCCESS
}
