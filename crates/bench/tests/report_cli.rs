//! `report` accepts `--perf-only` or `--skip-perf`. Any other flag, or
//! both together, exits 2 with a one-line reason before running anything.

use std::process::Command;

#[test]
fn unknown_and_contradictory_flags_exit_2_with_a_reason() {
    for (args, reason) in [
        (&["--perf-onyl"][..], "unknown flag `--perf-onyl`"),
        (&["--perf-only", "--skip-perf"][..], "exclude each other"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("report runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} must run nothing");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
    }
}
