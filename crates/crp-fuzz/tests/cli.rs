//! The `crp_fuzz` command line: a flag that implies the fleet backend
//! (`--fleet`, `--chaos`) next to any other explicit `--backend` is a
//! conflict, whichever order the two flags come in — never a silently
//! dropped fleet — and a `--steps` past the trace cap is refused, never
//! silently shortened.

use std::process::Command;

const CRP_FUZZ: &str = env!("CARGO_BIN_EXE_crp_fuzz");

/// Runs a tiny campaign with `extra` flags and returns the exit status
/// and stderr.
fn run(extra: &[&str]) -> (std::process::ExitStatus, String) {
    let output = Command::new(CRP_FUZZ)
        .args([
            "--budget", "1", "--size", "64", "--steps", "2", "--trials", "10",
        ])
        .args(extra)
        .output()
        .expect("spawn crp_fuzz");
    (
        output.status,
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn fleet_implying_flags_conflict_with_another_backend_in_either_order() {
    for extra in [
        &["--fleet", "127.0.0.1:1", "--backend", "thread"][..],
        &["--backend", "thread", "--fleet", "127.0.0.1:1"],
        &["--chaos", "0:die@0", "--backend", "serial"],
        &["--backend", "serial", "--chaos", "0:die@0"],
    ] {
        let (status, stderr) = run(extra);
        assert!(!status.success(), "{extra:?} exited 0; stderr: {stderr}");
        let flag = extra
            .iter()
            .find(|f| ["--fleet", "--chaos"].contains(f))
            .unwrap();
        assert!(
            stderr.contains(&format!("{flag} conflicts with --backend")),
            "{extra:?}: {stderr}"
        );
    }
}

#[test]
fn steps_past_the_trace_cap_are_refused() {
    let cap = crp_predict::MAX_TRACE_STEPS;
    let steps = (cap + 1).to_string();
    let (status, stderr) = run(&["--steps", &steps]);
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("--steps {steps} exceeds the cap of {cap}")),
        "{stderr}"
    );
}
