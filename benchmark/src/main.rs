//! ds-ledger: the repository's benchmark.
//!
//! ```text
//! ds-ledger --workload W --seed N --seconds S --trace 0|1 [--raw FILE]
//!     one pass over one workload; the last stdout line is the result
//! ds-ledger session [--seed N] [--quick] [--twice] --out DIR
//!     every workload, both flavours, both passes (benchmark/run.sh)
//! ds-ledger fingerprint W     digest of W's simulated counters
//! ds-ledger manifest          BENCHMARK.json, generated from spec.rs
//! ```
//!
//! Everything is measured from outside, through the public functions
//! of the crates under `crates/`. See `benchmark/README.md`.

mod alloc;
mod drivers;
mod host;
mod json;
mod ledger;
mod measure;
mod session;
mod sim;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The value following `flag` in `args`.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{flag} {text}: not a valid value")),
    }
}

fn env_path(name: &str) -> Option<PathBuf> {
    std::env::var_os(name).map(PathBuf::from)
}

fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(0)
        }
        Some("fingerprint") => {
            let name = args.get(1).ok_or("fingerprint needs a workload name")?;
            let w = spec::workload(name).ok_or_else(|| format!("no workload named {name}"))?;
            println!("{}", sim::Runner::new(w)?.reference.fingerprint());
            Ok(0)
        }
        Some("session") => {
            let need = |name: &str| {
                env_path(name)
                    .ok_or_else(|| format!("{name} is not set (run through benchmark/run.sh)"))
            };
            let env = session::Env {
                plain_bin: need("DS_LEDGER_PLAIN_BIN")?,
                obs_bin: need("DS_LEDGER_OBS_BIN")?,
                out: PathBuf::from(value_of(args, "--out").ok_or("session needs --out DIR")?),
            };
            let flag = |f: &str| args.iter().any(|a| a == f);
            session::main(
                &env,
                parsed(args, "--seed", 1)?,
                flag("--quick"),
                flag("--twice"),
            )
        }
        _ => {
            let name = value_of(args, "--workload")
                .ok_or("usage: ds-ledger --workload W --seed N --seconds S --trace 0|1")?;
            let w = spec::workload(name).ok_or_else(|| format!("no workload named {name}"))?;
            if w.obs != cfg!(feature = "obs") {
                return Err(format!(
                    "{name} needs the {} build flavour (run through benchmark/run.sh)",
                    if w.obs { "obs" } else { "plain" }
                ));
            }
            let opts = measure::Options {
                seed: parsed(args, "--seed", 1)?,
                seconds: parsed(args, "--seconds", spec::RUN_SECONDS as f64)?,
                plain_bin: env_path("DS_LEDGER_PLAIN_BIN"),
            };
            let trace = match parsed(args, "--trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let m = if trace {
                measure::traced(w, &opts)?
            } else {
                measure::untraced(w, &opts)?
            };
            for f in &m.checks.failures {
                eprintln!("FAILED {name}: {f}");
            }
            if let Some(raw) = value_of(args, "--raw") {
                std::fs::write(raw, json::render_lines(&m.to_json()))
                    .map_err(|e| format!("{raw}: {e}"))?;
            }
            println!("{}", ledger::result_line(&m, trace));
            Ok(0)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(why) => {
            eprintln!("ds-ledger: {why}");
            ExitCode::from(2)
        }
    }
}
