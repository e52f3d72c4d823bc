//! `bench_compare` and `mdm_report` fail cleanly on bad usage: exit 2
//! with a usage line, never a panic; `--help` exits 0.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_clean_usage_errors(bin: &str, value_flag: &str) {
    for args in [
        &["--bogus"][..],
        &[value_flag],
        &[value_flag, "not-a-number"],
    ] {
        let (code, _, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
    let (code, stdout, _) = run(bin, &["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage:"));
}

#[test]
fn bench_compare_bad_usage_exits_2() {
    assert_clean_usage_errors(env!("CARGO_BIN_EXE_bench_compare"), "--tolerance");
}

#[test]
fn mdm_report_bad_usage_exits_2() {
    assert_clean_usage_errors(env!("CARGO_BIN_EXE_mdm_report"), "--window");
}
