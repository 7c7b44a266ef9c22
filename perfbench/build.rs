//! Records the compiler version and, when the sources are a git checkout,
//! the commit they were built from, for the provenance of every result.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &mut Command) -> Option<String> {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let version = output_of(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );
    // Only the repository's own `.git`: an export of the sources may sit
    // inside some unrelated repository, whose commit would be wrong here.
    let commit = if Path::new("../.git").exists() {
        output_of(Command::new("git").args(["-C", "..", "rev-parse", "HEAD"]))
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_COMMIT={}",
        commit.as_deref().unwrap_or("unknown")
    );
    println!("cargo:rerun-if-changed=build.rs");
    for head in ["../.git/HEAD", "../.git/index"] {
        if Path::new(head).exists() {
            println!("cargo:rerun-if-changed={head}");
        }
    }
}
