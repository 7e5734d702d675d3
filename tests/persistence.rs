//! The persistent design store end-to-end: snapshot round trips through the
//! engine, capacity bounds under serve, and `--cache-file` sessions that
//! hand their warm state to the next session.

use std::path::PathBuf;
use std::sync::Arc;

use qre_circuit::LogicalCounts;
use qre_cli::{serve, ServeOptions};
use qre_core::{Estimator, FactoryCache, HardwareProfile, SweepSpec};
use qre_json::Value;

fn counts() -> LogicalCounts {
    LogicalCounts {
        num_qubits: 40,
        t_count: 10_000,
        measurement_count: 1_000,
        ..Default::default()
    }
}

fn six_profile_spec() -> SweepSpec {
    SweepSpec::new()
        .workload("w", counts())
        .profiles(HardwareProfile::default_profiles())
        .total_error_budget(1e-4)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qre-persistence-test-{}-{:?}-{name}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn sweep_results_survive_a_snapshot_round_trip_identically() {
    let first = Estimator::new();
    let spec = six_profile_spec();
    let outcomes = first.sweep(&spec).unwrap();
    assert!(first.cache_stats().misses >= 6);

    let path = temp_path("roundtrip");
    let saved = first.cache().save(&path).unwrap();
    assert_eq!(saved, first.cache_stats().entries);

    // A fresh engine over a loaded store: zero searches, identical results.
    let store = FactoryCache::new();
    assert_eq!(store.load(&path).unwrap(), saved);
    let warm = Estimator::with_cache(Arc::new(store));
    let replayed = warm.sweep(&spec).unwrap();
    let stats = warm.cache_stats();
    assert_eq!(stats.misses, 0, "every design must come from the snapshot");
    assert!(stats.hits >= 6);
    for (a, b) in outcomes.iter().zip(&replayed) {
        assert_eq!(a.point.index, b.point.index);
        assert_eq!(
            a.outcome.as_ref().unwrap(),
            b.outcome.as_ref().unwrap(),
            "persisted-warm result must be bit-identical to the cold run"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bounded_engine_cache_still_estimates_correctly() {
    // A store too small for the sweep: designs churn, results must not.
    let unbounded = Estimator::new();
    let spec = six_profile_spec();
    let reference = unbounded.sweep(&spec).unwrap();

    let bounded = Estimator::with_cache(Arc::new(FactoryCache::with_capacity(2)));
    let outcomes = bounded.sweep(&spec).unwrap();
    let stats = bounded.cache_stats();
    assert!(
        stats.entries <= 2,
        "capacity bound violated: {}",
        stats.entries
    );
    assert_eq!(stats.capacity, Some(2));
    for (a, b) in reference.iter().zip(&outcomes) {
        assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }
    // Re-running the sweep through the tiny store recomputes evicted
    // designs — still correctly.
    let again = bounded.sweep(&spec).unwrap();
    assert!(bounded.cache_stats().evictions > 0);
    for (a, b) in reference.iter().zip(&again) {
        assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }
}

const SWEEP_LINE: &str = r#"{ "id": "sweep", "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "errorBudgets": [ 1e-4 ] } }"#;

fn run_serve(script: &str, options: &ServeOptions) -> (qre_cli::ServeSummary, Vec<Value>) {
    let mut bytes: Vec<u8> = Vec::new();
    let summary = serve(script.as_bytes(), &mut bytes, options).expect("serve session succeeds");
    let lines = std::str::from_utf8(&bytes)
        .unwrap()
        .lines()
        .map(|line| qre_json::parse(line).expect("every serve record parses"))
        .collect();
    (summary, lines)
}

fn stats_field(lines: &[Value], field: &str) -> u64 {
    lines
        .iter()
        .find(|l| l.get("stats").is_some())
        .unwrap()
        .get_path(&format!("stats.{field}"))
        .unwrap()
        .as_u64()
        .unwrap()
}

#[test]
fn second_serve_session_starts_warm_from_the_snapshot() {
    let path = temp_path("sessions");
    let options = ServeOptions {
        max_in_flight: 1,
        cache_file: Some(path.clone()),
        ..ServeOptions::default()
    };
    let script = format!("{SWEEP_LINE}\n");

    // Session 1: cold store, designs searched, snapshot saved at exit.
    let (summary, lines) = run_serve(&script, &options);
    assert_eq!(summary.designs_loaded, 0);
    assert_eq!(summary.designs_saved, 6);
    assert_eq!(stats_field(&lines, "cacheMisses"), 6);
    assert!(path.exists(), "session end must leave a snapshot");

    // Session 2 (a separate process in production): the same job is pure
    // hits — the ISSUE's cross-session multiplier.
    let (summary, lines) = run_serve(&script, &options);
    assert_eq!(summary.designs_loaded, 6);
    assert_eq!(stats_field(&lines, "cacheMisses"), 0, "no re-search");
    assert_eq!(stats_field(&lines, "cacheHits"), 6);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_snapshots_warn_and_start_cold() {
    for corrupt in [
        "definitely { not json",
        r#"{"format": "qre-factory-cache", "version": 999, "entries": []}"#,
        r#"{"format": "some-other-tool", "version": 1, "entries": []}"#,
    ] {
        let path = temp_path("corrupt");
        std::fs::write(&path, corrupt).unwrap();
        let options = ServeOptions {
            max_in_flight: 1,
            cache_file: Some(path.clone()),
            ..ServeOptions::default()
        };
        // The session must run (and re-save) despite the bad file.
        let (summary, lines) = run_serve(&format!("{SWEEP_LINE}\n"), &options);
        assert_eq!(summary.designs_loaded, 0, "bad snapshot must not load");
        assert_eq!(summary.job_errors, 0, "session itself is unaffected");
        assert_eq!(stats_field(&lines, "cacheMisses"), 6, "cold start");
        assert_eq!(
            summary.designs_saved, 6,
            "session end overwrites the bad file"
        );
        // The overwritten snapshot is valid now.
        assert!(FactoryCache::new().load(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn missing_snapshot_is_a_silent_cold_start() {
    let path = temp_path("missing");
    assert!(!path.exists());
    let options = ServeOptions {
        max_in_flight: 1,
        cache_file: Some(path.clone()),
        ..ServeOptions::default()
    };
    let (summary, _) = run_serve(&format!("{SWEEP_LINE}\n"), &options);
    assert_eq!(summary.designs_loaded, 0);
    assert_eq!(summary.designs_saved, 6);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn capped_serve_session_reports_evictions_and_respects_the_bound() {
    let path = temp_path("capped");
    let options = ServeOptions {
        max_in_flight: 1,
        cache_capacity: Some(2),
        cache_file: Some(path.clone()),
        ..ServeOptions::default()
    };
    let (summary, lines) = run_serve(&format!("{SWEEP_LINE}\n"), &options);
    let entries = stats_field(&lines, "cacheEntries");
    let evictions = stats_field(&lines, "cacheEvictions");
    assert!(entries <= 2, "store exceeded its cap: {entries}");
    assert_eq!(evictions, 4, "6 designs through a 2-slot store");
    assert_eq!(
        summary.designs_saved, 2,
        "only the retained designs persist"
    );

    // The truncated snapshot loads into the next session fine.
    let store = FactoryCache::new();
    assert_eq!(store.load(&path).unwrap(), 2);
    std::fs::remove_file(&path).unwrap();
}

/// Two concurrent sessions sharing one `--cache-file` path: the documented
/// contract is **last-writer-wins, never torn**. Every save writes a unique
/// temporary file and renames it into place, so whatever interleaving the
/// scheduler picks, the path ends up holding exactly one session's complete
/// snapshot — loadable, version-checked, and bit-identical to that
/// session's store — not a byte-level mixture of the two.
#[test]
fn concurrent_sessions_on_one_snapshot_path_are_last_writer_wins_not_torn() {
    let path = temp_path("last-writer-wins");
    assert!(!path.exists());
    let options = ServeOptions {
        max_in_flight: 1,
        cache_file: Some(path.clone()),
        ..ServeOptions::default()
    };
    // Disjoint design sets: the budgets are three decades apart, so in
    // every family the looser session's design stops distilling above the
    // tighter session's required error, and the tighter session's
    // intervals end below the looser one's. Neither session's six designs
    // answer any lookup of the other's. (At one decade apart, three of the
    // looser session's designs would also answer the tighter sweep.)
    let session_line = |budget: &str| -> String {
        format!(
            "{{ \"id\": \"s\", \"sweep\": {{ \"algorithms\": [ {{ \"logicalCounts\": {{ \"numQubits\": 10, \"tCount\": 100 }} }} ], \"errorBudgets\": [ {budget} ] }} }}\n"
        )
    };
    let budgets = ["1e-6", "1e-3"];
    let sessions: Vec<_> = budgets
        .iter()
        .map(|budget| {
            let script = session_line(budget);
            let options = options.clone();
            std::thread::spawn(move || {
                let mut bytes: Vec<u8> = Vec::new();
                serve(script.as_bytes(), &mut bytes, &options).expect("session succeeds")
            })
        })
        .collect();
    for session in sessions {
        let summary = session.join().expect("session thread");
        assert_eq!(summary.job_errors, 0);
        assert_eq!(summary.designs_saved, 6);
    }

    // Not torn: whatever the save interleaving, the path holds one valid,
    // complete snapshot...
    let store = FactoryCache::new();
    let loaded = store.load(&path).expect("the snapshot is never torn");
    assert_eq!(loaded, 6, "exactly one session's designs survive");

    // ...and it is exactly ONE session's set, not a merge: replaying each
    // session's sweep against its own copy of the file, precisely one runs
    // pure-hit (the last writer) and the other pure-miss.
    let mut pure_hit = 0;
    for budget in budgets {
        let replay_path = temp_path(&format!("lww-replay-{budget}"));
        std::fs::copy(&path, &replay_path).unwrap();
        let replay_options = ServeOptions {
            max_in_flight: 1,
            cache_file: Some(replay_path.clone()),
            ..ServeOptions::default()
        };
        let (_, lines) = run_serve(&session_line(budget), &replay_options);
        match stats_field(&lines, "cacheMisses") {
            0 => pure_hit += 1,
            6 => {}
            other => panic!("a mixed snapshot leaked through: {other} misses"),
        }
        std::fs::remove_file(&replay_path).unwrap();
    }
    assert_eq!(pure_hit, 1, "exactly one session won the final save");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn periodic_saves_snapshot_mid_session() {
    let path = temp_path("periodic");
    let options = ServeOptions {
        max_in_flight: 1,
        cache_file: Some(path.clone()),
        save_every: 1, // save after every completed job
        ..ServeOptions::default()
    };
    // Two jobs; the save after job 1 must already contain its designs even
    // though the session continues.
    let script = format!("{SWEEP_LINE}\n{SWEEP_LINE}\n");
    let (summary, _) = run_serve(&script, &options);
    assert_eq!(summary.jobs, 2);
    assert_eq!(summary.designs_saved, 6);
    let store = FactoryCache::new();
    assert_eq!(store.load(&path).unwrap(), 6);
    std::fs::remove_file(&path).unwrap();
}
