//! Absolute pin of the compact record bytes a pipe `qre serve` session
//! writes: one fully sequential session (`QRE_THREADS=1`, `max_in_flight:
//! 1`) covering every record shape is compared **byte for byte** with
//! `tests/fixtures/serve_session_compact.ndjson`.
//!
//! The relative pins (socket ≡ pipe, served ≡ in-process) would pass if both
//! sides drifted together; this one does not. It covers a single job, a
//! sweep with an in-place error item, a sharded sweep, a batch with a
//! failing item, a streamed frontier, a malformed line, an id and an error
//! message carrying `"`, `\`, control characters and non-ASCII text, and an
//! unknown control command, with the `searchStats` extension of every stats
//! record.
//!
//! This file holds the only test of its binary, so setting `QRE_THREADS`
//! cannot race a sibling. An intentional format change is re-blessed with
//! `QRE_GOLDEN_REGEN=1 cargo test --test serve_compact`; review the fixture
//! diff like any other code change.

use std::path::PathBuf;

use qre_cli::{serve, ServeOptions};

const SCRIPT: &[&str] = &[
    // An unknown control command. Controls are answered inline on the
    // reader, so only a leading one is ordered against the job records.
    r#"{ "control": "reload" }"#,
    // A single job.
    r#"{ "id": "single", "algorithm": { "logicalCounts": { "numQubits": 12, "tCount": 345, "measurementCount": 20 } } }"#,
    // A small sweep whose second constraint cannot be met: an in-place
    // error item between two successes.
    r#"{ "id": "sweep", "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ], "qecSchemes": [ { "name": "default" } ], "errorBudgets": [ 1e-4 ], "constraints": [ {}, { "maxPhysicalQubits": 10 }, { "maxTFactories": 1, "logicalDepthFactor": 2.5 } ] } }"#,
    // A sharded sweep over two workloads and two budget forms.
    r#"{ "id": 7, "shard": { "index": 1, "count": 3 }, "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } }, { "logicalCounts": { "numQubits": 40, "tCount": 5000, "rotationCount": 12, "rotationDepth": 4 } } ], "qubitParams": [ { "name": "qubit_gate_ns_e4" } ], "errorBudgets": [ 1e-3, { "logical": 1e-4, "tStates": 2e-4, "rotations": 3e-4 } ] } }"#,
    // A batch with a failing item.
    r#"{ "id": "batch", "items": [ { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } }, { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } }, "errorBudget": 1e-60 }, { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 300 } }, "qecScheme": { "name": "floquet_code" }, "qubitParams": { "name": "qubit_maj_ns_e6" } } ] }"#,
    // A streamed frontier.
    r#"{ "id": "frontier", "stream": true, "estimateType": "frontier", "algorithm": { "logicalCounts": { "numQubits": 50, "tCount": 100000, "measurementCount": 1000 } }, "errorBudget": 0.001 }"#,
    // A malformed line.
    r#"not json at all"#,
    // An id and an unknown profile name carrying a quote, a backslash,
    // control characters and non-ASCII text.
    r#"{ "id": "q\"b\\s\u0001\u001f\t\n\r\b\fé😀", "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } }, "qubitParams": { "name": "prof\"\\\u0007ü" } }"#,
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve_session_compact.ndjson")
}

#[test]
fn serve_session_compact_bytes_match_fixture() {
    std::env::set_var("QRE_THREADS", "1");
    let options = ServeOptions {
        max_in_flight: 1,
        search_stats: true,
        ..ServeOptions::default()
    };
    let mut bytes: Vec<u8> = Vec::new();
    let summary = serve(SCRIPT.join("\n").as_bytes(), &mut bytes, &options).unwrap();
    std::env::remove_var("QRE_THREADS");
    assert_eq!(summary.jobs, SCRIPT.len());
    let rendered = String::from_utf8(bytes).unwrap();

    let path = fixture_path();
    if std::env::var("QRE_GOLDEN_REGEN").is_ok_and(|v| !v.trim().is_empty()) {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("failed to read fixture {}: {e}", path.display()));
    if rendered != expected {
        let line = rendered
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want);
        panic!(
            "serve session bytes drifted from {} (first divergence at line {}):\n\
             expected: {}\n\
             actual:   {}",
            path.display(),
            line.map_or(0, |i| i + 1),
            line.and_then(|i| expected.lines().nth(i))
                .unwrap_or("<line count differs>"),
            line.and_then(|i| rendered.lines().nth(i))
                .unwrap_or("<line count differs>"),
        );
    }
}
