//! `reason-eval` as a process: its usage text and its exit codes.

use std::process::{Command, Output};

use reason_bench::experiments::REGISTRY;

fn reason_eval(args: &[&str]) -> (Option<i32>, Vec<u8>, String) {
    let Output { status, stdout, stderr } = Command::new(env!("CARGO_BIN_EXE_reason-eval"))
        .args(args)
        .output()
        .expect("spawn reason-eval");
    (status.code(), stdout, String::from_utf8(stderr).expect("utf-8 stderr"))
}

#[test]
fn an_unknown_name_exits_2_and_usage_lists_exactly_the_registry() {
    let (code, stdout, stderr) = reason_eval(&["bogus"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
    assert!(stderr.starts_with("unknown experiment `bogus`\nusage: reason-eval "), "{stderr}");
    let listed: Vec<&str> = stderr
        .lines()
        .find_map(|line| line.strip_prefix("experiments: "))
        .expect("usage names the experiments")
        .split(' ')
        .collect();
    let mut want: Vec<&str> = REGISTRY.iter().map(|row| row.name).collect();
    want.extend(["audit", "all"]);
    assert_eq!(listed, want);
    for flag in REGISTRY.iter().filter_map(|row| row.artifact_flag) {
        assert!(stderr.contains(&format!("[{flag} FILE]")), "usage omits {flag}: {stderr}");
    }
}

#[test]
fn an_artifact_flag_on_another_experiment_is_refused_before_anything_runs() {
    for name in [&["table3"][..], &["profile"], &[]] {
        let (code, stdout, stderr) = reason_eval(&[name, &["--trace-out", "/no-dir/t"]].concat());
        assert_eq!(code, Some(2), "{name:?}");
        assert!(stdout.is_empty(), "{name:?} ran before the flag was refused");
        assert!(stderr.starts_with("--trace-out only applies to the `trace` experiment\n"));
    }
}
