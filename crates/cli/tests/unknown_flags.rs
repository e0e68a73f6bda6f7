//! Every subcommand rejects flags it does not know. A typo or a retired
//! flag must fail loudly, naming the flag, instead of running with the
//! defaults and exiting 0.

use std::process::Command;

#[test]
fn unknown_flags_fail_by_name() {
    for (args, flag) in [
        // Retired: evaluation has a single scoring path.
        (&["evaluate", "--data", "d", "--ckpt", "m", "--scoring", "batched"][..], "--scoring"),
        (&["evaluate", "--data", "d", "--ckpt", "m", "--candiates", "5"][..], "--candiates"),
        (&["train", "--data", "d", "--ckpt", "m", "--port-file", "p"][..], "--port-file"),
        (&["predict", "--data", "d", "--log-level", "warn"][..], "--log-level"),
        (&["profile", "train", "--data", "d", "--queries", "3"][..], "--queries"),
        (&["lint", "--grads"][..], "--grads"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dekg")).args(args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{args:?}:\n{stderr}");
    }
}
