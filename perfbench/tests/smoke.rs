//! Smoke-sized pass of every workload: each prints every metric of its
//! mode with its unit and runs its output checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root.

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: bool) -> (String, String) {
    // The benchmark runs from the repository root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("a result line").to_string();
    let record = lines.next().expect("a record line").to_string();
    (record, result)
}

fn check(workload: &str, trace: bool) {
    let (record, result) = run(workload, trace);
    assert!(result.starts_with("{\"correct\":"), "{result}");
    assert!(!result.contains("\"attempted\":0,"), "{result}");
    let wanted = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for (name, unit) in wanted {
        let at = result
            .find(&format!("\"{name}\":{{\"value\":"))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let rest = &result[at..];
        let end = rest.find('}').expect("metric object closes");
        assert!(
            rest[..end].ends_with(&format!("\"unit\":\"{unit}\"")),
            "{workload}: {name} lacks unit {unit}: {}",
            &rest[..end]
        );
    }
    // Exactly the metrics of the mode, no others.
    assert_eq!(
        result.matches("\"unit\":").count(),
        wanted.len(),
        "{result}"
    );
    assert!(record.starts_with("{\"record\":"), "{record}");
    assert!(record.contains("\"nproc\":"), "{record}");
    // The output checks ran. Whether they passed is the benchmark's
    // finding about the program, reported as `correct`, not something
    // this test can promise.
    assert!(
        record.contains("\"checks\":[{\"name\":"),
        "no output check ran: {record}"
    );
}

#[test]
fn fleet_budget_chain_smoke() {
    check("fleet_budget_chain", false);
    check("fleet_budget_chain", true);
}

#[test]
fn serve_mixed_smoke() {
    check("serve_mixed", false);
    check("serve_mixed", true);
}

#[test]
fn paper_eval_smoke() {
    check("paper_eval", false);
    check("paper_eval", true);
}

#[test]
fn every_workload_is_named_once() {
    let mut names: Vec<&str> = metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .map(|(name, _)| *name)
        .chain(metrics::WORKLOADS.iter().copied())
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}
