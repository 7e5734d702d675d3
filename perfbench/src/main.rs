//! The qre service benchmark.
//!
//! ```text
//! perfbench --qre PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs one workload end to end against the shipped
//! `qre serve` binary at PATH (tracing off) and reports the end-to-end
//! metrics. With `--trace 1` it runs the same workload's inputs through
//! each layer's public functions in-process, under a span recorder, and
//! reports the per-layer ledger. Either way it checks every output, prints
//! a human-readable table, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//! `warm-sweep-tcp`, `cold-sweep-capped`, `paper-multipliers`.

mod check;
mod e2e;
mod gen;
mod ledger;
mod server;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use qre_json::ObjectBuilder;

/// The three workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmSweepTcp,
    ColdSweepCapped,
    PaperMultipliers,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::WarmSweepTcp,
        Workload::ColdSweepCapped,
        Workload::PaperMultipliers,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSweepTcp => "warm-sweep-tcp",
            Workload::ColdSweepCapped => "cold-sweep-capped",
            Workload::PaperMultipliers => "paper-multipliers",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The longest a run may take before the watchdog stops it; a run must
/// end within 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    qre: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut qre = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--qre" => qre = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 60.0)
                        .ok_or_else(|| format!("--seconds must lie in (0, 60], got `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        qre: qre.ok_or("--qre is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A measured metric for the final JSON line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut m = ObjectBuilder::new();
    for metric in metrics {
        m = m.field(
            metric.name,
            ObjectBuilder::new()
                .field("value", metric.value)
                .field("unit", metric.unit)
                .build(),
        );
    }
    ObjectBuilder::new()
        .field("correct", correct)
        .field("attempted", attempted as u64)
        .field("failed", failed as u64)
        .field("metrics", m.build())
        .build()
        .to_string_compact()
}

fn end_to_end(
    args: &Args,
    work: &std::path::Path,
) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let run = match args.workload {
        Workload::WarmSweepTcp => e2e::warm_sweep_tcp(&args.qre, work, args.seed, args.seconds)?,
        Workload::ColdSweepCapped => e2e::cold_sweep_capped(&args.qre, args.seed, args.seconds)?,
        Workload::PaperMultipliers => e2e::paper_multipliers(&args.qre, args.seed, args.seconds)?,
    };
    let metrics = run.metrics();
    for m in &metrics {
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    match stats::tail(&run.job_ms) {
        Some((p, value)) => println!(
            "{:<24} {:>14.4} ms (p{p} of {} jobs)",
            "job_tail_ms",
            value,
            run.job_ms.len()
        ),
        None => println!(
            "{:<24} {:>14} (only {} jobs: no percentile has ten samples beyond it)",
            "job_tail_ms",
            "-",
            run.job_ms.len()
        ),
    }
    println!(
        "{:<24} {:>14.6} ratio ({} of {} items)",
        "failed_share",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    println!(
        "jobs {}, items {}, window {:.3} s, server starts {}",
        run.job_ms.len(),
        run.items,
        run.window.as_secs_f64(),
        run.setup_s.len()
    );
    Ok((
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed,
        metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    server::start_watchdog(RUN_LIMIT);
    let work = PathBuf::from("perfbench/work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        ledger::run(args.workload, &work, args.seed, args.seconds)
    } else {
        end_to_end(&args, &work)
    };
    // Snapshots are inputs of one run only; the span files stay.
    if let Ok(entries) = std::fs::read_dir(&work) {
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .ends_with(".snapshot.json")
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: incorrect output ({failed} of {attempted} items failed)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
