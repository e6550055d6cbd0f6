//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run (the contract's form)
//! run.sh [--seed N] [--workload W] [--quick]             every workload, untraced then traced
//! run.sh --workload query_mix --seed N --bless           rewrite expected/query_mix_seed<N>.json
//! run.sh --spread FILE                                   spread of `workload metric value unit` lines
//! ```

mod clock;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{MetricDef, END_TO_END, PER_LAYER};
use workloads::control_plane::ControlPlane;
use workloads::fanout::Fanout;
use workloads::query_mix::QueryMix;
use workloads::{Outcome, RunConfig, NAMES};

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 3.0;

/// Files the benchmark writes (`results.json`, traces): `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    bless: bool,
    spread: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        bless: false,
        spread: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {NAMES:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => args.quick = true,
            "--bless" => args.bless = true,
            "--spread" => args.spread = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(file) = &args.spread {
        spread(file)
    } else if args.trace.is_some() || args.bless {
        single_run(&args)
    } else {
        full_set(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn seconds_of(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        RUN_SECONDS
    })
}

/// One workload, one trace setting: prints the metric lines and, last,
/// the result object.
fn single_run(args: &Args) -> Result<(), String> {
    let workload = args
        .workload
        .as_deref()
        .ok_or("--trace and --bless need --workload")?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: seconds_of(args),
        trace: args.trace.unwrap_or(false),
        bless: args.bless,
    };
    let outcome: Outcome = match workload {
        "query_mix" => workloads::run::<QueryMix>(&cfg),
        "fanout_per_event" => workloads::run::<Fanout<false>>(&cfg),
        "fanout_epoch" => workloads::run::<Fanout<true>>(&cfg),
        "control_plane" => workloads::run::<ControlPlane>(&cfg),
        other => unreachable!("parse_args let {other} through"),
    };
    let defs: &[MetricDef] = if cfg.trace { PER_LAYER } else { END_TO_END };
    outcome
        .metrics
        .validate(defs)
        .map_err(|e| format!("{workload}: {e}"))?;
    if let Some(trace) = &outcome.trace {
        let path = out_dir().join(format!("trace_{workload}.json"));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, trace.to_json(workload, cfg.seed)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    for message in &outcome.messages {
        eprintln!("check failed: {message}");
    }
    print!("{}", outcome.metrics.lines(workload, defs));
    println!(
        "{workload} failed_frac {} frac",
        outcome.failed.min(outcome.attempted) as f64 / outcome.attempted as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed.min(outcome.attempted),
        outcome.metrics.json(defs)
    );
    if outcome.failed == 0 {
        Ok(())
    } else {
        Err(format!("{workload}: {} checks failed", outcome.failed))
    }
}

/// Every workload (or the one named), each in its own process so that
/// `peak_rss_mb` is that workload's: untraced for the end-to-end
/// metrics, then traced for the per-layer ones. Writes `out/results.json`.
fn full_set(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = seconds_of(args);
    let mut failures = Vec::new();
    let mut results = String::new();
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    for (i, workload) in names.iter().enumerate() {
        let mut runs = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            for line in stdout.lines().filter(|l| *l != last) {
                println!("{line}");
            }
            if !output.status.success() || !last.starts_with('{') {
                failures.push(format!("{workload} --trace {trace}"));
            }
            runs.push(if last.starts_with('{') { last } else { "null" }.to_string());
        }
        let sep = if i + 1 == names.len() { "" } else { "," };
        let _ = writeln!(
            results,
            "    \"{workload}\": {{\"untraced\": {}, \"traced\": {}}}{sep}",
            runs[0], runs[1]
        );
    }
    let json = format!(
        "{{\n  \"commit\": \"{}\",\n  \"rustc\": \"{}\",\n  \"nproc\": {},\n  \"seed\": {},\n  \
         \"mode\": \"{}\",\n  \"seconds\": {seconds},\n  \"workloads\": {{\n{results}  }}\n}}\n",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(0, usize::from),
        args.seed,
        if args.quick { "quick" } else { "full" },
    );
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed runs: {}", failures.join(", ")))
    }
}

/// First line a command prints, or `unknown` (a checkout need not be a
/// git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reads `workload metric value unit` lines of repeated runs and prints,
/// per workload and end-to-end metric, the median, quartiles and relative
/// spread, marking spreads over the metric's bound.
fn spread(file: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, value, _unit] = fields[..] {
            if let Ok(v) = value.parse() {
                values.entry((workload, metric)).or_default().push(v);
            }
        }
    }
    println!(
        "{:<18} {:<24} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"
    );
    let mut over = 0;
    for workload in NAMES {
        for MetricDef { name, bound, .. } in END_TO_END {
            let Some(v) = values.get(&(workload, *name)).filter(|v| v.len() >= 2) else {
                continue;
            };
            let [q1, q2, q3] = stats::quartiles(v);
            let rel = stats::relative_spread(v);
            let bound = bound.expect("end-to-end metrics have bounds");
            // The contract does not hold set-up time to its spread.
            let mark = match rel > bound {
                true if *name != "setup_s" => {
                    over += 1;
                    "  OVER"
                }
                _ if rel > bound / 3.0 => "  wide",
                _ => "",
            };
            println!(
                "{workload:<18} {name:<24} {:>3} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>5.0}%{mark}",
                v.len(),
                rel * 100.0,
                bound * 100.0
            );
        }
    }
    if over == 0 {
        Ok(())
    } else {
        Err(format!("{over} spreads exceed their bound"))
    }
}
