//! Wire-protocol error paths of [`run_session`]: malformed and truncated
//! ndjson, unknown ops, duplicate keys, out-of-range task parameters and
//! mid-frame EOF must each produce one structured `{"ok":false,"error":…}`
//! line, leave the stream usable for the *next* request, and never prevent the
//! session from quiescing cleanly.

use spi_explore::wire::{run_session, status_from_json};
use spi_explore::{ExplorationService, HedgeConfig, JobId, ServiceConfig};
use spi_model::json::JsonValue;

const SUBMIT: &str = r#"{"op":"submit","name":"wire-errors","system":{"scaling":{"interfaces":4,"clusters":2}},"shards":4,"top_k":4,"evaluator":{"kind":"partition","strategy":"exhaustive","params":{"kind":"hashed","seed":42}}}"#;

fn service() -> ExplorationService {
    ExplorationService::start(ServiceConfig {
        hedge: HedgeConfig::disabled(),
        ..ServiceConfig::with_workers(2)
    })
}

/// Runs one session over `input` and returns the parsed response lines.
fn session(input: &str) -> Vec<JsonValue> {
    let service = service();
    let mut output = Vec::new();
    run_session(&service, input.as_bytes(), &mut output).expect("session I/O is in-memory");
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| JsonValue::parse(line).expect("every response line is valid JSON"))
        .collect()
}

fn is_error(line: &JsonValue) -> bool {
    line.get("ok").and_then(JsonValue::as_bool) == Some(false)
        && line
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|message| !message.is_empty())
}

#[test]
fn malformed_json_yields_a_structured_error_and_the_stream_continues() {
    let input = format!("this is not json\n{SUBMIT}\n{{\"op\":\"wait\",\"job\":0}}\n");
    let lines = session(&input);
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(is_error(&lines[0]), "{:?}", lines[0]);
    assert_eq!(lines[1].get("ok").and_then(JsonValue::as_bool), Some(true));
    let status = status_from_json(&lines[2]).unwrap();
    assert_eq!(status.state, "completed");
    assert_eq!(
        status.evaluated + status.pruned + status.errors,
        16,
        "a garbage line must not disturb the job that follows it"
    );
}

#[test]
fn unknown_ops_and_missing_ops_are_rejected_individually() {
    let lines = session("{\"op\":\"frobnicate\"}\n{\"noop\":true}\n{\"op\":\"poll\",\"job\":99}\n");
    assert_eq!(lines.len(), 3, "{lines:?}");
    for line in &lines {
        assert!(is_error(line), "{line:?}");
    }
    assert!(
        lines[0]
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("unknown op"),
        "{:?}",
        lines[0]
    );
}

#[test]
fn duplicate_object_keys_are_a_parse_error_not_a_silent_override() {
    // A duplicated `shards` key could silently shrink or inflate a job; the
    // parser must refuse the frame outright.
    let input = format!(
        "{}\n",
        r#"{"op":"submit","system":{"scaling":{"interfaces":4,"clusters":2}},"shards":4,"shards":1,"evaluator":{"kind":"partition","strategy":"exhaustive","params":{"kind":"hashed","seed":42}}}"#
    );
    let lines = session(&input);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(is_error(&lines[0]), "{:?}", lines[0]);
    assert!(
        lines[0]
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("duplicate"),
        "{:?}",
        lines[0]
    );
}

#[test]
fn mid_frame_eof_is_an_error_line_then_a_clean_quiesce() {
    // The stream dies mid-frame: the final line is a truncated submit with no
    // trailing newline. The torn frame gets a structured error, the earlier
    // submit still quiesces to a whole-shard census.
    let truncated = &SUBMIT[..SUBMIT.len() / 2];
    let service = service();
    let mut output = Vec::new();
    let input = format!("{SUBMIT}\n{truncated}");
    run_session(&service, input.as_bytes(), &mut output).expect("EOF is a clean shutdown");
    let lines: Vec<JsonValue> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| JsonValue::parse(line).unwrap())
        .collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(lines[0].get("ok").and_then(JsonValue::as_bool), Some(true));
    assert!(is_error(&lines[1]), "{:?}", lines[1]);

    // Post-quiesce: nothing in flight and no shard torn — the census is
    // exactly the committed whole shards (4 variants per shard).
    let status = service.poll(JobId::from_raw(0)).unwrap();
    assert_eq!(status.shards_in_flight, 0);
    assert_eq!(
        status.report.accounted(),
        4 * status.shards_done as u64,
        "quiesce must commit whole shards, never tear one"
    );
}

#[test]
fn blank_lines_are_ignored_and_shutdown_still_answers() {
    let lines = session("\n\n{\"op\":\"shutdown\"}\n{\"op\":\"poll\",\"job\":0}\n");
    assert_eq!(lines.len(), 1, "shutdown ends the session: {lines:?}");
    assert_eq!(lines[0].get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        lines[0].get("op").and_then(JsonValue::as_str),
        Some("shutdown")
    );
}

#[test]
fn parameters_whose_sums_could_overflow_are_rejected_and_the_stream_continues() {
    // The searches add `processor_cost`, `hw_area` and `sw_time` up over the
    // tasks of a problem. A value of 2^32 or more is refused at the wire, so no
    // such sum can wrap into a bogus optimum or panic a debug-built worker.
    for (field, evaluator) in [
        ("processor_cost", r#"{"processor_cost":4294967296}"#),
        (
            "hw_area",
            r#"{"params":{"kind":"uniform","hw_area":9223372036854775807}}"#,
        ),
        (
            "sw_time",
            r#"{"params":{"kind":"uniform","sw_time":18446744073709551615}}"#,
        ),
    ] {
        let submit =
            format!(r#"{{"op":"submit","system":{{"scenario":"tv"}},"evaluator":{evaluator}}}"#);
        let lines = session(&format!(
            "{submit}\n{SUBMIT}\n{{\"op\":\"wait\",\"job\":0}}\n"
        ));
        assert_eq!(lines.len(), 3, "{field}: {lines:?}");
        assert!(is_error(&lines[0]), "{field}: {:?}", lines[0]);
        let message = lines[0].get("error").and_then(JsonValue::as_str).unwrap();
        assert!(message.contains(field), "{field}: {message}");
        assert_eq!(lines[1].get("ok").and_then(JsonValue::as_bool), Some(true));
        let status = status_from_json(&lines[2]).unwrap();
        assert_eq!(status.state, "completed", "{field}");
        assert_eq!(status.evaluated + status.pruned + status.errors, 16);
    }

    // Just below the limit every field is accepted and every variant evaluates.
    let submit = r#"{"op":"submit","system":{"scenario":"tv"},"evaluator":{"processor_cost":4294967295,"params":{"kind":"uniform","sw_time":4294967295,"hw_area":4294967295}}}"#;
    let lines = session(&format!("{submit}\n{{\"op\":\"wait\",\"job\":0}}\n"));
    assert_eq!(lines.len(), 2, "{lines:?}");
    let status = status_from_json(&lines[1]).unwrap();
    assert_eq!(status.state, "completed");
    assert_eq!(status.errors, 0);
    assert_eq!(status.evaluated + status.pruned, status.combinations as u64);
}

#[test]
fn an_exact_search_over_64_tasks_is_an_error_not_a_dead_worker() {
    // 33 common tasks + 32 single-cluster interfaces = 65 tasks in the one
    // variant: too wide for the exact searches' `u64` masks. On a one-worker
    // daemon a panic there would kill the only worker, leave the job running
    // forever and keep the daemon from exiting after EOF; the search must
    // instead fail the variant, which the job counts as an error.
    let submit = r#"{"op":"submit","system":{"synthetic":{"common_tasks":33,"interfaces":32,"clusters_per_interface":1,"cluster_depth":1,"seed":1}},"shards":1,"evaluator":{"strategy":"branch_and_bound"}}"#;
    let input = format!("{submit}\n{{\"op\":\"wait\",\"job\":0}}\n{{\"op\":\"shutdown\"}}\n");
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_spi-explored"))
        .args(["--workers", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("the daemon starts");
    use std::io::{Read, Write};
    daemon
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let mut stdout = daemon.stdout.take().unwrap();
    let (sender, answers) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        let _ = sender.send(text);
    });
    let Ok(text) = answers.recv_timeout(std::time::Duration::from_secs(60)) else {
        let _ = daemon.kill();
        panic!("the daemon did not answer and exit within 60s");
    };
    assert!(daemon.wait().unwrap().success());
    let lines: Vec<JsonValue> = text
        .lines()
        .map(|line| JsonValue::parse(line).expect("every response line is valid JSON"))
        .collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines
        .iter()
        .all(|line| line.get("ok").and_then(JsonValue::as_bool) == Some(true)));
    let status = status_from_json(&lines[1]).unwrap();
    assert_eq!(status.state, "completed");
    assert_eq!(status.errors, 1);
    assert_eq!(status.evaluated, 0);
    assert_eq!(
        lines[2].get("op").and_then(JsonValue::as_str),
        Some("shutdown")
    );
}

/// The daemon refuses what it does not understand: a removed flag, a
/// misspelled one, a value that is not a number and a flag without its value
/// each print the usage, name the argument and exit with status 2 before the
/// service starts — instead of running with defaults the operator did not
/// ask for.
#[test]
fn the_daemon_rejects_unknown_flags_and_malformed_values() {
    let cases: [(&[&str], &[&str]); 5] = [
        (&["--no-spans"], &["--no-spans"]),
        (&["--trace-capcity", "0"], &["--trace-capcity"]),
        (&["--workers", "two"], &["--workers", "two"]),
        (&["--span-capacity"], &["--span-capacity"]),
        (&["--store", "--no-hedge"], &["--store"]),
    ];
    for (args, named) in cases {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_spi-explored"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("the daemon runs");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} answered requests");
        assert!(stderr.contains("usage: spi-explored"), "{args:?}: {stderr}");
        for name in named {
            assert!(
                stderr.contains(name),
                "{args:?} does not name {name}: {stderr}"
            );
        }
    }
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_spi-explored"))
        .arg("--help")
        .stdin(std::process::Stdio::null())
        .output()
        .expect("the daemon runs");
    assert!(help.status.success());
    assert!(String::from_utf8(help.stderr)
        .unwrap()
        .contains("usage: spi-explored"));
}
