//! Smoke-sized runs of every workload, end-to-end and traced, through the
//! real `damocles_server`: each must pass its output checks and report
//! every metric its mode promises.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const END_TO_END: [&str; 4] = ["setup_s", "achieved_rps", "cpu_ms_per_op", "server_rss_mb"];

/// Printed as `name value unit` lines but left out of the JSON line.
const PRINTED: [&str; 8] = [
    "write_p50_ms",
    "write_p99_ms",
    "process_p50_ms",
    "process_p99_ms",
    "read_p50_ms",
    "read_p99_ms",
    "restart_s",
    "error_frac",
];

const PER_LAYER: [&str; 8] = [
    "driver.late_p99_ms",
    "api.decode_us",
    "service.flush_us_p99",
    "runtime.ns_per_delivery",
    "query.index_us",
    "journal.recover_ms",
    "follower.apply_us_per_record",
    "fleet.cold_call_ms",
];

fn target_dir() -> PathBuf {
    let bench = Path::new(env!("CARGO_BIN_EXE_damocles-perfbench"));
    bench
        .parent()
        .and_then(Path::parent)
        .expect("the benchmark binary sits in <target>/<profile>/")
        .to_path_buf()
}

/// Builds `damocles_server` from the repository once per test binary.
fn server() -> &'static Path {
    static SERVER: OnceLock<PathBuf> = OnceLock::new();
    SERVER.get_or_init(|| {
        let target = target_dir();
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--bin",
                "damocles_server",
            ])
            .current_dir(&repo)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building damocles_server failed");
        target.join("release").join("damocles_server")
    })
}

fn smoke(workload: &str, trace: &str) -> String {
    let work = target_dir()
        .join("smoke-work")
        .join(format!("{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_damocles-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", trace, "--smoke"])
        .arg("--server")
        .arg(server())
        .arg("--work")
        .arg(&work)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    stdout
}

/// Checks the JSON line carries `names`, each also printed as a
/// `name value unit` line.
fn assert_reports(stdout: &str, names: &[&str]) {
    let json = stdout.lines().last().unwrap_or_default();
    for name in names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {json}"
        );
        assert_printed(stdout, name);
    }
}

fn assert_printed(stdout: &str, name: &str) {
    assert!(
        stdout.lines().any(|l| l.starts_with(&format!("{name} "))),
        "{name} not printed"
    );
}

/// Both modes of one workload; returns the end-to-end run's output.
fn check_workload(workload: &str) -> String {
    let stdout = smoke(workload, "0");
    assert_reports(&stdout, &END_TO_END);
    let json = stdout.lines().last().unwrap_or_default();
    for name in PRINTED {
        assert_printed(&stdout, name);
        assert!(!json.contains(&format!("\"{name}\"")), "{name} in {json}");
    }
    assert_reports(&smoke(workload, "1"), &PER_LAYER);
    stdout
}

#[test]
fn edtc_flow_smoke() {
    let stdout = check_workload("edtc_flow");
    for name in ["max_rate_rps", "repl_visible_p50_ms", "repl_visible_p99_ms"] {
        assert_printed(&stdout, name);
    }
}

#[test]
fn propagation_storm_smoke() {
    check_workload("propagation_storm");
}

#[test]
fn status_queries_smoke() {
    assert_printed(&check_workload("status_queries"), "max_rate_rps");
}

#[test]
fn fleet_tenants_smoke() {
    check_workload("fleet_tenants");
}
