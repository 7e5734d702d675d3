//! Scale stress sweep: the deterministic ~10k-point matrix of
//! `qre stress` (workloads × the six default profiles × fourteen error
//! budgets) run five ways through the same engine the CLI ships:
//!
//! * **cold** — a fresh `Estimator` executes the whole sweep (every
//!   distinct design is searched),
//! * **warm** — the same engine runs the sweep again (pure cache-hit
//!   estimation, the service steady state),
//! * **streamed** — a fresh engine's `sweep_stream` iterator, recording
//!   time-to-first-outcome alongside exhaustion,
//! * **sharded + merged** — eight shard jobs each run through their own
//!   cold serve session (`run_session`, the process-per-shard topology),
//!   written to shard files, then index-joined by the streaming
//!   `merge_files`,
//! * **served** — a loopback `qre serve --listen` server driven by four
//!   concurrent clients submitting the matrix as sixteen shard jobs,
//!   timing every job round trip.
//!
//! Reported per mode: wall time and sustained items/sec; the served mode
//! adds jobs/sec and p50/p99 job latency; the whole run records the
//! process peak RSS (`VmHWM`, via `qre_par::peak_rss_bytes`). JSON goes
//! to stdout and `target/experiments/` — `BENCH_scale.json` for the full
//! matrix, `BENCH_scale_quick.json` under `QRE_BENCH_QUICK` (so a quick
//! CI run never shadows the committed full-scale artifact that
//! `bench_check` gates).
//!
//! ```text
//! cargo bench -p qre-bench --bench stress            # full: 10,080 items
//! QRE_BENCH_QUICK=1 cargo bench -p qre-bench --bench stress
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use qre_cli::{
    listen_serve, merge_files, run_session, stress_job_line, stress_spec, ServeOptions,
    ServeShared, SessionConfig,
};
use qre_core::Estimator;

/// Full-scale point count: rounds up to 10,080 items (120 workload rows).
const FULL_POINTS: usize = 10_000;
/// Quick-mode point count: rounds up to 504 items (6 workload rows).
const QUICK_POINTS: usize = 500;
/// Shard count of the sharded + merged pipeline.
const SHARDS: usize = 8;
/// Concurrent clients of the served mode.
const CLIENTS: usize = 4;
/// Shard jobs each served client submits (CLIENTS × this = shard count).
const JOBS_PER_CLIENT: usize = 4;

fn items_per_sec(items: usize, elapsed_ns: u128) -> f64 {
    items as f64 / (elapsed_ns as f64 / 1e9)
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank]
}

/// Run the sweep through `engine`, asserting every item estimates.
fn run_sweep(engine: &Estimator, spec: &qre_core::SweepSpec) -> (u128, usize) {
    let start = Instant::now();
    let mut ok = 0usize;
    let total = engine
        .sweep_with(spec, |outcome| {
            outcome
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("stress item {} failed: {e}", outcome.point.index));
            ok += 1;
        })
        .expect("stress spec expands");
    assert_eq!(ok, total);
    (start.elapsed().as_nanos(), total)
}

/// One serve client: submit `jobs` pre-built job lines over one
/// connection, returning per-job round-trip times (submit → `"stats"`).
fn run_client(addr: std::net::SocketAddr, lines: &[String]) -> Vec<u128> {
    let stream = TcpStream::connect(addr).expect("connect to serve");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");

    let mut latencies = Vec::with_capacity(lines.len());
    for job in lines {
        let start = Instant::now();
        writeln!(writer, "{job}").expect("submit job");
        loop {
            line.clear();
            let n = reader.read_line(&mut line).expect("read record");
            assert!(n > 0, "server closed mid-job");
            assert!(!line.contains("\"status\":\"error\""), "job failed: {line}");
            if line.contains("\"stats\":") {
                break;
            }
        }
        latencies.push(start.elapsed().as_nanos());
    }
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("drain session") == 0 {
            break;
        }
    }
    latencies
}

fn main() {
    let quick = criterion::quick_mode();
    let points = if quick { QUICK_POINTS } else { FULL_POINTS };
    let spec = stress_spec(points);
    let total = spec.total_len().expect("stress sweep size fits in usize");
    let shape = qre_cli::StressShape::covering(points);

    // cold + warm: one engine, two passes.
    let engine = Estimator::new();
    let (cold_ns, cold_items) = run_sweep(&engine, &spec);
    assert_eq!(cold_items, total);
    let (warm_ns, _) = run_sweep(&engine, &spec);
    eprintln!(
        "stress: cold {:.2}s warm {:.2}s over {total} items",
        cold_ns as f64 / 1e9,
        warm_ns as f64 / 1e9
    );

    // streamed: fresh engine, completion-order iterator.
    let streamed = Estimator::new();
    let start = Instant::now();
    let mut stream = streamed.sweep_stream(&spec).expect("stress spec expands");
    let first = stream.next().expect("sweep has items");
    first
        .outcome
        .as_ref()
        .expect("first streamed item estimates");
    let first_ns = start.elapsed().as_nanos();
    let mut streamed_items = 1usize;
    for outcome in stream {
        outcome
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("streamed item {} failed: {e}", outcome.point.index));
        streamed_items += 1;
    }
    let streamed_ns = start.elapsed().as_nanos();
    assert_eq!(streamed_items, total);
    eprintln!(
        "stress: streamed first {:.1}ms all {:.2}s",
        first_ns as f64 / 1e6,
        streamed_ns as f64 / 1e9
    );

    // sharded + merged: each shard through its own cold serve session
    // (the process-per-shard topology), then the streaming index join.
    let dir = std::env::temp_dir().join(format!("qre-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("shard dir");
    let start = Instant::now();
    let mut shard_paths = Vec::with_capacity(SHARDS);
    for index in 0..SHARDS {
        let shared = ServeShared::new(&ServeOptions::default());
        let input = format!(
            "{}\n",
            stress_job_line(points, Some((index, SHARDS)), false)
        );
        let mut records = Vec::new();
        let summary = run_session(
            &shared,
            &SessionConfig {
                session: index as u64,
                peer: None,
                lifecycle: false,
            },
            input.as_bytes(),
            &mut records,
        )
        .expect("shard session runs");
        assert_eq!(summary.job_errors, 0, "shard {index} job failed");
        let path = dir.join(format!("shard-{index}.ndjson"));
        std::fs::write(&path, &records).expect("write shard file");
        shard_paths.push(path.to_string_lossy().into_owned());
    }
    let merged = merge_files(&shard_paths, &mut std::io::sink()).expect("shards merge");
    let sharded_ns = start.elapsed().as_nanos();
    assert_eq!(merged.items, total, "merged shard union covers the sweep");
    std::fs::remove_dir_all(&dir).expect("clean shard dir");
    eprintln!(
        "stress: sharded+merged {:.2}s ({SHARDS} shards, merge peak {} bytes resident)",
        sharded_ns as f64 / 1e9,
        merged.peak_resident_bytes
    );

    // served: loopback TCP, four clients × four shard jobs each.
    let job_count = CLIENTS * JOBS_PER_CLIENT;
    let options = ServeOptions {
        max_in_flight: 2,
        global_jobs: Some(8),
        ..ServeOptions::default()
    };
    let shared = Arc::new(ServeShared::new(&options));
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn({
        let shared = Arc::clone(&shared);
        move || {
            listen_serve(&shared, "127.0.0.1:0", 32, move |addr| {
                let _ = tx.send(addr);
            })
            .expect("listen_serve succeeds")
        }
    });
    let addr = rx.recv().expect("server binds");
    let start = Instant::now();
    let mut latencies: Vec<u128> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let lines: Vec<String> = (0..JOBS_PER_CLIENT)
                    .map(|job| {
                        stress_job_line(
                            points,
                            Some((client * JOBS_PER_CLIENT + job, job_count)),
                            false,
                        )
                    })
                    .collect();
                scope.spawn(move || run_client(addr, &lines))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let served_ns = start.elapsed().as_nanos();
    shared.shutdown_signal().signal();
    let summary = server.join().expect("server thread");
    assert_eq!(summary.job_errors, 0);
    assert_eq!(latencies.len(), job_count);
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    eprintln!(
        "stress: served {:.2}s ({job_count} jobs over {CLIENTS} clients)",
        served_ns as f64 / 1e9
    );

    let peak_rss = qre_par::peak_rss_bytes().unwrap_or(0);
    let json = format!(
        "{{\n  \"benchmark\": \"scale_stress_sweep\",\n  \
         \"description\": \"The deterministic qre-stress matrix ({} workloads x {} profiles x {} budgets) run cold, warm, streamed, sharded-and-merged ({SHARDS} shard serve sessions + streaming index join), and served (loopback TCP, {CLIENTS} clients x {JOBS_PER_CLIENT} shard jobs). items_per_sec is sustained sweep-item throughput; peak_rss_bytes is the process high-water (VmHWM) after all five modes.\",\n  \
         \"command\": \"cargo bench -p qre-bench --bench stress\",\n  \
         \"points_requested\": {points},\n  \"items\": {total},\n  \
         \"quick\": {quick},\n  \"results\": {{\n    \
         \"cold\": {{ \"elapsed_ns\": {cold_ns}, \"items_per_sec\": {:.1} }},\n    \
         \"warm\": {{ \"elapsed_ns\": {warm_ns}, \"items_per_sec\": {:.1} }},\n    \
         \"streamed\": {{ \"first_item_ns\": {first_ns}, \"elapsed_ns\": {streamed_ns}, \"items_per_sec\": {:.1} }},\n    \
         \"sharded_merged\": {{ \"shards\": {SHARDS}, \"elapsed_ns\": {sharded_ns}, \"items_per_sec\": {:.1}, \"merge_peak_resident_bytes\": {} }},\n    \
         \"served\": {{ \"clients\": {CLIENTS}, \"jobs\": {job_count}, \"elapsed_ns\": {served_ns}, \"jobs_per_sec\": {:.2}, \"items_per_sec\": {:.1}, \"p50_job_ns\": {p50}, \"p99_job_ns\": {p99} }}\n  }},\n  \
         \"peak_rss_bytes\": {peak_rss},\n  \
         \"gate\": {{\n    \
         \"floors\": {{\n      \
         \"items\": 10000,\n      \
         \"results.cold.items_per_sec\": 100.0,\n      \
         \"results.warm.items_per_sec\": 500.0,\n      \
         \"results.streamed.items_per_sec\": 100.0,\n      \
         \"results.sharded_merged.items_per_sec\": 50.0,\n      \
         \"results.served.jobs_per_sec\": 0.2\n    }},\n    \
         \"ceilings\": {{\n      \
         \"peak_rss_bytes\": 2147483648\n    }}\n  }}\n}}",
        shape.workloads,
        shape.profiles,
        shape.budgets,
        items_per_sec(total, cold_ns),
        items_per_sec(total, warm_ns),
        items_per_sec(total, streamed_ns),
        items_per_sec(total, sharded_ns),
        merged.peak_resident_bytes,
        job_count as f64 / (served_ns as f64 / 1e9),
        items_per_sec(total, served_ns),
    );
    println!("{json}");
    let name = if quick {
        "BENCH_scale_quick.json"
    } else {
        "BENCH_scale.json"
    };
    match qre_bench::write_artifact(name, &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
