//! `ds-bench <experiment> [--quick] [--parallel] [--json <path>] [--trace-out <path>]`
//!
//! Runs one registered experiment ([`ds_bench::experiments`]), prints
//! its report, and optionally writes the same report as a
//! `ds-bench-result/v1` document (`--json`) and, for `figure7_ipc` on
//! an instrumented build, a Perfetto trace (`--trace-out`). Anything
//! wrong with the command line or the output paths is reported before a
//! single simulation runs: one `ds-bench: …` line on stderr, exit 2.

use ds_bench::experiments::{self, Experiment, EXPERIMENTS, FIGURE7_TRACE};
use ds_bench::report::Report;
use ds_bench::Budget;
use std::fs::File;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("ds-bench: {e}");
        std::process::exit(2);
    }
}

/// A checked command line.
#[derive(Debug)]
struct Invocation {
    experiment: &'static Experiment,
    budget: Budget,
    json: Option<String>,
    /// The `--trace-out` path and what renders the trace.
    trace: Option<(String, fn(Budget) -> String)>,
}

/// `reason`, then the synopsis and the registered experiments.
fn usage(reason: &str) -> String {
    let mut text = format!(
        "{reason}\nusage: ds-bench <experiment> [--quick] [--parallel] [--json <path>] \
         [--trace-out <path>]\nexperiments:"
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("\n  {:<22} {}", e.name, e.about));
    }
    text
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let (mut name, mut budget, mut json, mut trace_out) = (None, Budget::full(), None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => budget = Budget::quick(),
            // Read where it is used, by `runner::parallel_requested`.
            "--parallel" => {}
            "--json" | "--trace-out" => {
                let path = args
                    .next()
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| usage(&format!("{arg} needs a path")))?;
                let slot = if arg == "--json" { &mut json } else { &mut trace_out };
                *slot = Some(path.clone());
            }
            flag if flag.starts_with('-') => return Err(usage(&format!("unknown flag `{flag}`"))),
            _ if name.is_some() => return Err(usage(&format!("unexpected argument `{arg}`"))),
            _ => name = Some(arg),
        }
    }
    let name = name.ok_or_else(|| usage("no experiment named"))?;
    let experiment =
        experiments::find(name).ok_or_else(|| usage(&format!("unknown experiment `{name}`")))?;
    let trace = match trace_out {
        None => None,
        Some(_) if experiment.name != "figure7_ipc" => {
            return Err(usage("--trace-out applies to figure7_ipc only"));
        }
        Some(path) => Some((
            path,
            FIGURE7_TRACE.ok_or_else(|| {
                usage("--trace-out needs event recording: rebuild with `--features obs`")
            })?,
        )),
    };
    Ok(Invocation { experiment, budget, json, trace })
}

/// Progress goes to stderr so stdout stays byte-identical to a run
/// without the flag.
fn write(path: &str, doc: &str) -> Result<(), String> {
    std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let inv = parse(args)?;
    // An unwritable path should cost no simulation time: create the
    // output files before running anything.
    for path in inv.json.iter().chain(inv.trace.iter().map(|(path, _)| path)) {
        File::create(path).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut report = Report::new(inv.experiment.name);
    (inv.experiment.run)(inv.budget, &mut report);
    // Not `print!`, which panics when stdout is a closed pipe.
    write!(std::io::stdout(), "{report}").map_err(|e| format!("stdout: {e}"))?;
    if let Some(path) = &inv.json {
        write(path, &report.render())?;
    }
    if let Some((path, render)) = &inv.trace {
        write(path, &render(inv.budget))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The one-line reason of a rejected command line; every rejection
    /// also lists the registered experiments.
    fn rejected(line: &str) -> String {
        let e = parse(&args(line)).expect_err(line);
        for exp in EXPERIMENTS {
            assert!(e.contains(exp.name), "usage must list {}: {e}", exp.name);
        }
        e.lines().next().unwrap().to_string()
    }

    #[test]
    fn accepts_the_four_flags_in_any_order() {
        let inv = parse(&args("--quick figure7_ipc --parallel --json out.json")).unwrap();
        assert_eq!(inv.experiment.name, "figure7_ipc");
        assert_eq!(inv.budget, Budget::quick());
        assert_eq!(inv.json.as_deref(), Some("out.json"));
        assert_eq!(parse(&args("figure3_chain")).unwrap().budget, Budget::full());
    }

    #[test]
    fn a_typoed_flag_is_rejected_not_ignored() {
        // Not silently the full budget.
        assert_eq!(rejected("figure3_chain --quik"), "unknown flag `--quik`");
    }

    #[test]
    fn a_flag_missing_its_value_is_rejected() {
        assert_eq!(rejected("figure3_chain --json"), "--json needs a path");
        // A following flag is not a path: no file called `--quick`.
        assert_eq!(rejected("figure3_chain --json --quick"), "--json needs a path");
        assert_eq!(rejected("figure7_ipc --trace-out"), "--trace-out needs a path");
    }

    #[test]
    fn unknown_missing_or_repeated_experiment_is_rejected() {
        assert_eq!(rejected("figure9_ipc --quick"), "unknown experiment `figure9_ipc`");
        assert_eq!(rejected(""), "no experiment named");
        assert_eq!(rejected("--quick"), "no experiment named");
        assert_eq!(rejected("figure1_mmm figure3_chain"), "unexpected argument `figure3_chain`");
    }

    #[test]
    fn trace_out_is_rejected_before_any_simulation() {
        // `parse` runs nothing, so a rejection here is an early one.
        assert_eq!(
            rejected("table3_broadcast --trace-out t.json"),
            "--trace-out applies to figure7_ipc only"
        );
        let on_figure7 = parse(&args("figure7_ipc --quick --trace-out t.json"));
        if cfg!(feature = "obs") {
            assert_eq!(on_figure7.unwrap().trace.unwrap().0, "t.json");
        } else {
            let e = on_figure7.unwrap_err();
            assert!(e.starts_with("--trace-out needs event recording"), "{e}");
        }
    }

    #[test]
    fn an_unwritable_path_is_an_error_not_a_panic() {
        // figure7_ipc would take seconds: the error must come first.
        let e = run(&args("figure7_ipc --json /nonexistent-dir/out.json")).unwrap_err();
        assert!(e.starts_with("/nonexistent-dir/out.json: "), "{e}");
        assert_eq!(e.lines().count(), 1, "an I/O error is not a usage error: {e}");
    }
}
