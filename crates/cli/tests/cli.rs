//! The exit codes `helix`'s usage text documents: 0 on success, 1 on a
//! hard failure, 2 on a usage error. Each case runs the built binary.

use std::process::{Command, Output};

fn helix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_helix"))
        .args(args)
        .output()
        .expect("run helix")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_exits_0() {
    for args in [
        &["help"][..],
        &["--help"],
        &["-h"],
        &["run", "--help"],
        &["run", "scenarios/", "-h"],
        &["campaign", "campaigns/smoke.toml", "--quiet", "--help"],
    ] {
        let out = helix(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).contains("USAGE:"), "{args:?} prints the usage");
    }
}

#[test]
fn no_command_prints_usage_and_exits_2() {
    let out = helix(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).contains("USAGE:"));
}

#[test]
fn unknown_command_exits_2() {
    let out = helix(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command 'frobnicate'"));
}

#[test]
fn unknown_option_exits_2() {
    let out = helix(&["run", "--no-such-option"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option '--no-such-option'"));
}

#[test]
fn run_on_a_missing_file_exits_1() {
    let out = helix(&["run", "no/such/scenario.toml"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

#[test]
fn check_over_the_committed_scenarios_exits_0() {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let out = helix(&["check", scenarios]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}
