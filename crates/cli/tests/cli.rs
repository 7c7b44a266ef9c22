//! End-to-end tests of the `cira` binary.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn cira(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cira"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cira_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn suite_lists_all_benchmarks() {
    let out = cira(&["suite"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for name in ["gcc", "jpeg", "sdet", "video_play"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn gen_info_dump_round_trip() {
    let path = temp_path("t.cirt");
    let path_str = path.to_str().unwrap();

    let out = cira(&["gen", "--bench", "jpeg", "--len", "5000", "--out", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote 5000 records"));

    let out = cira(&["info", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("records:         5000"));

    let out = cira(&["dump", path_str, "--limit", "4"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 4);
}

#[test]
fn predict_reports_miss_rate() {
    let out = cira(&[
        "predict",
        "--bench",
        "jpeg",
        "--len",
        "20000",
        "--predictor",
        "gshare4k",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("gshare(12,12)"));
    assert!(text.contains("miss rate"));
}

#[test]
fn confidence_reports_coverage() {
    let out = cira(&[
        "confidence",
        "--bench",
        "gcc",
        "--len",
        "20000",
        "--mechanism",
        "resetting:16",
        "--threshold",
        "8",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("coverage"));
}

#[test]
fn predict_runs_tage_specs() {
    let out = cira(&[
        "predict",
        "--bench",
        "jpeg",
        "--len",
        "20000",
        "--predictor",
        "tage:10:4:2:32:9",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("tage(10,4c,2..32,tag9)"));
}

#[test]
fn bare_self_mechanism_shadows_the_session_predictor() {
    let out = cira(&[
        "confidence",
        "--bench",
        "gcc",
        "--len",
        "20000",
        "--predictor",
        "tage-sc-lite:10:4:2:32:9",
        "--mechanism",
        "self",
        "--threshold",
        "4",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("self-confidence(tage-sc-lite(10,4c,2..32,tag9))"),
        "bare `self` must expand to the --predictor spec, got:\n{text}"
    );
}

#[test]
fn curve_writes_csv() {
    let path = temp_path("curve.csv");
    let out = cira(&[
        "curve",
        "--bench",
        "jpeg",
        "--len",
        "20000",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let csv = std::fs::read_to_string(&path).unwrap();
    assert!(csv.starts_with("series,"));
    assert!(csv.lines().count() > 2);
}

#[test]
fn table_prints_counter_rows() {
    let out = cira(&["table", "--bench", "jpeg", "--len", "20000", "--max", "4"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Count"));
    assert!(text.lines().count() >= 6);
}

#[test]
fn vm_runs_assembly_and_saves_trace() {
    let asm = temp_path("count.asm");
    std::fs::write(
        &asm,
        "li r1, 7\nli r2, 0\nloop: addi r2, r2, 1\nblt r2, r1, loop\nhalt\n",
    )
    .unwrap();
    let trace = temp_path("vm.cirt");
    let out = cira(&[
        "vm",
        asm.to_str().unwrap(),
        "--mem",
        "8",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("7 conditional branches"));

    let out = cira(&["info", trace.to_str().unwrap()]);
    assert!(stdout(&out).contains("records:         7"));
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let cases: &[&[&str]] = &[
        &["bogus"],
        &["predict"],                                              // no trace source
        &["predict", "--bench", "nope"],                           // unknown benchmark
        &["predict", "--bench", "gcc", "--oops", "1"],             // unknown flag
        &["predict", "--bench", "gcc", "--predictor", "gshare:9"], // bad spec
        &["info", "/nonexistent/file.cirt"],
        &["gen", "--bench", "gcc"],    // missing --out
        &["replay", "--bench", "gcc"], // missing --connect
    ];
    for case in cases {
        let out = cira(case);
        assert!(!out.status.success(), "expected failure for {case:?}");
        assert!(
            stderr(&out).contains("error") || stderr(&out).contains("USAGE"),
            "no error text for {case:?}"
        );
    }
}

#[test]
fn malformed_specs_fail_with_usage_in_the_message() {
    // Every spec surface — predictor, mechanism, index, init — must turn a
    // typo into exit 1 plus the accepted forms, never a panic.
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "predict",
                "--bench",
                "gcc",
                "--len",
                "100",
                "--predictor",
                "frobnicate:1",
            ],
            "predictor",
        ),
        (
            &[
                "confidence",
                "--bench",
                "gcc",
                "--len",
                "100",
                "--mechanism",
                "resetting:0",
            ],
            "mechanism",
        ),
        (
            &[
                "confidence",
                "--bench",
                "gcc",
                "--len",
                "100",
                "--index",
                "pc",
            ],
            "index",
        ),
        (
            &["curve", "--bench", "gcc", "--len", "100", "--init", "none"],
            "init",
        ),
        (
            &[
                "table",
                "--bench",
                "gcc",
                "--len",
                "100",
                "--mechanism",
                "two-level:nope",
            ],
            "mechanism",
        ),
    ];
    for (case, kind) in cases {
        let out = cira(case);
        assert!(!out.status.success(), "expected failure for {case:?}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("invalid {kind} spec")) && err.contains("expected one of"),
            "unhelpful message for {case:?}: {err}"
        );
    }
}

/// Starts `cira serve` on an ephemeral port and returns (child, port).
fn start_server(port_file: &std::path::Path) -> (std::process::Child, u16) {
    start_server_with(port_file, &[])
}

/// Starts `cira serve` with extra flags and returns (child, port).
fn start_server_with(port_file: &std::path::Path, extra: &[&str]) -> (std::process::Child, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cira"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("server starts");
    for _ in 0..100 {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(port) = text.trim().parse() {
                return (child, port);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("server never wrote its port file");
}

/// Starts `cira serve --metrics-port 0` with extra flags and returns the
/// child, its session address and its metrics address, both read from
/// the lines it prints at startup.
fn start_metrics_server(extra: &[&str]) -> (Child, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cira"))
        .args(["serve", "--addr", "127.0.0.1:0", "--metrics-port", "0"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut after = |prefix: &str| {
        lines
            .by_ref()
            .map_while(Result::ok)
            .find_map(|l| l.strip_prefix(prefix).map(str::to_owned))
            .unwrap_or_else(|| panic!("server never printed {prefix:?}"))
    };
    let addr = after("cira-serve listening on ");
    let metrics = after("metrics at http://");
    let metrics = metrics.trim_end_matches("/metrics").to_owned();
    // Keep reading, so the server's later prints never hit a closed pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (child, addr, metrics)
}

#[test]
fn serve_and_replay_verify_bit_identical() {
    let port_file = temp_path("serve.port");
    let (mut server, port) = start_server(&port_file);

    let out = cira(&[
        "replay",
        "--connect",
        &format!("127.0.0.1:{port}"),
        "--bench",
        "jpeg",
        "--len",
        "30000",
        "--batch",
        "4096",
        "--mechanism",
        "resetting:16",
        "--threshold",
        "8",
        "--verify",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("streamed 30000 records"), "{text}");
    assert!(text.contains("bit-identical"), "{text}");

    // TAGE specs negotiate and verify end-to-end over the same server.
    let out = cira(&[
        "replay",
        "--connect",
        &format!("127.0.0.1:{port}"),
        "--bench",
        "gcc",
        "--len",
        "20000",
        "--batch",
        "2048",
        "--predictor",
        "tage:10:4:2:32:9",
        "--mechanism",
        "self",
        "--threshold",
        "4",
        "--verify",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("tage(10,4c,2..32,tag9)"), "{text}");
    assert!(text.contains("bit-identical"), "{text}");

    // A bad spec over the wire is a clean client-side failure, and the
    // rejection names the specs this client offered.
    let out = cira(&[
        "replay",
        "--connect",
        &format!("127.0.0.1:{port}"),
        "--bench",
        "gcc",
        "--len",
        "100",
        "--predictor",
        "frobnicate:1",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("invalid predictor spec"), "{err}");
    assert!(err.contains("offered predictor=frobnicate:1"), "{err}");

    server.kill().expect("stop server");
    let _ = server.wait();
}

/// Runs `cira replay`, asserts success, and returns stdout.
fn replay_ok(args: &[&str]) -> String {
    let out = cira(&[&["replay"], args].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    stdout(&out)
}

/// Extracts the resume token from `replay --park` output.
fn park_token(text: &str) -> String {
    text.lines()
        .find(|l| l.contains("--resume"))
        .and_then(|l| l.rsplit(' ').next())
        .unwrap_or_else(|| panic!("no resume token in:\n{text}"))
        .to_owned()
}

/// Extracts the `streamed N records ...` summary line.
fn streamed_line(text: &str) -> String {
    text.lines()
        .find(|l| l.starts_with("streamed "))
        .unwrap_or_else(|| panic!("no streamed line in:\n{text}"))
        .to_owned()
}

#[test]
fn park_survives_kill_dash_nine_and_resumes() {
    let park_dir = temp_path("park9");
    let store_file = park_dir.join("park.cirstore");
    let _ = std::fs::remove_dir_all(&park_dir);
    let park_flags = ["--park-dir", park_dir.to_str().unwrap()];

    let (mut first, port) = start_server_with(&temp_path("park9-a.port"), &park_flags);
    let addr = format!("127.0.0.1:{port}");

    // Two sessions fed the identical head (the bench walker is seeded, so
    // both replays see the same records), both parked durably.
    let head = ["--bench", "gcc", "--len", "20000"];
    let token_crash = park_token(&replay_ok(
        &[&["--connect", &addr], &head[..], &["--park"]].concat(),
    ));
    let token_control = park_token(&replay_ok(
        &[&["--connect", &addr], &head[..], &["--park"]].concat(),
    ));

    // Control: resume on the SAME server process (no crash) and stream a
    // tail. Its per-batch totals are the no-crash reference.
    let tail = ["--bench", "jpeg", "--len", "8000"];
    let control = streamed_line(&replay_ok(
        &[&["--connect", &addr, "--resume", &token_control], &tail[..]].concat(),
    ));

    // kill -9: no drain, no flush, no goodbye.
    first.kill().expect("SIGKILL server");
    let _ = first.wait();

    // The store on disk still holds exactly the un-resumed session (the
    // control session's record was removed durably when it was taken).
    let out = cira(&["store", "inspect", store_file.to_str().unwrap(), "--decode"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("live records: 1"), "{text}");
    assert!(text.contains(&token_crash), "{text}");
    assert!(text.contains("20000 branches"), "{text}");

    // A fresh process on the same directory recovers the park index; the
    // resumed session must behave exactly like the un-crashed control.
    let (mut second, port) = start_server_with(&temp_path("park9-b.port"), &park_flags);
    let addr = format!("127.0.0.1:{port}");
    let crashed = streamed_line(&replay_ok(
        &[&["--connect", &addr, "--resume", &token_crash], &tail[..]].concat(),
    ));
    assert_eq!(
        crashed, control,
        "post-crash resume diverged from the no-crash control"
    );

    second.kill().expect("stop server");
    let _ = second.wait();
    let _ = std::fs::remove_dir_all(&park_dir);
}

#[test]
fn sweep_prints_operating_points() {
    let out = cira(&["sweep", "--bench", "jpeg", "--len", "10000", "--max", "4"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("threshold") && text.contains("PVN"), "{text}");
    // max=4 sweep: header + mechanism line + 6 threshold rows
    assert!(text.lines().count() >= 8);
}

#[test]
fn mix_interleaves_benchmarks() {
    let path = temp_path("mix.cirt");
    let out = cira(&[
        "mix",
        "--bench",
        "gcc",
        "--bench",
        "jpeg",
        "--len",
        "3000",
        "--quantum",
        "500",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote 6000 records"));
    let info = cira(&["info", path.to_str().unwrap()]);
    assert!(stdout(&info).contains("records:         6000"));
}

#[test]
fn mix_requires_two_benchmarks() {
    let out = cira(&["mix", "--bench", "gcc", "--out", "/tmp/x.cirt"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("two"));
}

#[test]
fn help_shows_usage() {
    let out = cira(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("USAGE: cira"));
    // Rev 1.5 flight-recorder surfaces must be discoverable from --help.
    assert!(text.contains("--trace]"), "{text}");
    assert!(text.contains("--trace-capacity"), "{text}");
    assert!(text.contains("trace dump"), "{text}");
}

#[test]
fn trace_dump_pulls_chrome_json_from_a_traced_server() {
    let (mut server, addr, metrics) =
        start_metrics_server(&["--trace", "--trace-capacity", "8192"]);

    // Drive a session through the full lifecycle so the recorder has
    // accept/parse/score/write events to dump.
    replay_ok(&["--connect", &addr, "--bench", "jpeg", "--len", "20000"]);

    let out_path = temp_path("dump.trace.json");
    let out = cira(&[
        "trace",
        "dump",
        "--metrics",
        &metrics,
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&out_path).unwrap();
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    assert!(json.contains("\"traceEvents\""), "{json}");
    for stage in ["accept", "parse", "score", "complete", "write_flush"] {
        assert!(
            json.contains(&format!("\"{stage}\"")),
            "missing {stage} in dump"
        );
    }

    // Without --out the JSON goes to stdout.
    let out = cira(&["trace", "dump", "--metrics", &metrics]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"traceEvents\""));

    server.kill().expect("stop server");
    let _ = server.wait();
}

#[test]
fn stats_prints_counters_and_batch_quantiles_from_the_metrics_listener() {
    let (mut server, addr, metrics) = start_metrics_server(&[]);
    // 20,000 records in batches of 4,096: five batches.
    replay_ok(&[
        "--connect",
        &addr,
        "--bench",
        "jpeg",
        "--len",
        "20000",
        "--batch",
        "4096",
    ]);

    let out = cira(&["stats", "--metrics", &metrics]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains(&format!("server counters ({metrics}):")),
        "{text}"
    );
    // A row's whitespace-separated columns, found by its first column.
    let row = |name: &str| -> Vec<&str> {
        text.lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.first() == Some(&name))
            .unwrap_or_else(|| panic!("no {name} row in:\n{text}"))
    };
    assert_eq!(row("cira_session_records_total")[1], "20000");
    assert_eq!(row("cira_session_batches_total")[1], "5");
    assert_eq!(row("cira_server_sessions_opened_total")[1], "1");
    assert_eq!(
        row("cira_server_protocol_errors_total{code=\"malformed\"}")[1],
        "0"
    );

    // The batch histograms: count, mean, then p50/p90/p99.
    assert_eq!(row("histogram")[3..], ["p50", "p90", "p99"]);
    for name in [
        "cira_session_batch_records",
        "cira_session_batch_service_us",
    ] {
        let cols = row(name);
        assert_eq!(cols.len(), 6, "{cols:?}");
        assert_eq!(cols[1], "5", "{cols:?}");
        let q: Vec<f64> = cols[3..].iter().map(|c| c.parse().unwrap()).collect();
        assert!(
            q[0] <= q[1] && q[1] <= q[2],
            "quantiles out of order: {cols:?}"
        );
    }
    let records_p99: f64 = row("cira_session_batch_records")[5].parse().unwrap();
    assert!(
        (2048.0..=4096.0).contains(&records_p99),
        "p99 {records_p99}"
    );

    // The session port does not speak HTTP: the flag names the listener.
    let out = cira(&["stats", "--metrics", &addr, "--timeout", "2"]);
    assert!(!out.status.success(), "{}", stdout(&out));

    server.kill().expect("stop server");
    let _ = server.wait();
}
