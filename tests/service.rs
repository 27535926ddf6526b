//! Workspace tests for the campaign service and the unified API: a
//! resubmitted campaign must be answered entirely from the journal
//! with a byte-identical report, concurrent identical submissions must
//! execute once, malformed requests must get typed error responses
//! without taking the server down, reports must carry the schema
//! version stamp that `helix diff` names on mismatch, and the runner
//! entry points must agree with the `api::execute` path over them. A
//! client that never reads must not hold up `Shutdown`, and connections
//! over the cap must get a typed "server busy" answer.

use helix_rc::api::{
    self, diff_reports, CampaignSource, Request, Response, RunOptions, SpecSource,
};
use helix_rc::campaign::run_campaign;
use helix_rc::experiment::ExperimentOptions;
use helix_rc::report::SCHEMA_VERSION;
use helix_rc::scenario::run_scenario;
use helix_rc::service::{
    serve, submit, ServeOptions, MAX_CONNECTIONS, MAX_REQUEST_LINE, WRITE_TIMEOUT,
};
use helix_rc::workloads::{builtin_spec, campaign_from_inline};
use helix_rc::{ErrorKind, HelixError};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A small two-cell campaign, carried inline so the service tests
/// exercise exactly the payload shape `helix submit` sends.
fn inline_campaign() -> (String, Vec<String>) {
    let campaign = "\
name = \"svc\"
description = \"service test campaign\"
scenarios = [\"inline\"]
scale = \"test\"
seed = 0

[grid]
cores = [8]
experiments = [\"generations\", \"coupled_vs_ring\"]
";
    let scenario = builtin_spec("900.chase")
        .expect("builtin 900.chase")
        .to_toml();
    (campaign.to_string(), vec![scenario])
}

fn campaign_request(options: RunOptions) -> Request {
    let (campaign, scenarios) = inline_campaign();
    Request::RunCampaign {
        source: CampaignSource::Inline {
            campaign,
            scenarios,
        },
        options,
    }
}

/// Start a service on a scratch socket and wait until it answers.
fn start_service(tag: &str, workers: usize) -> (PathBuf, std::thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!("helix-svc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("helix.sock");
    let options = ServeOptions {
        workers,
        ..ServeOptions::new(&socket)
    };
    let handle = std::thread::spawn(move || serve(&options).expect("serve runs"));
    let mut ready = false;
    for _ in 0..400 {
        if UnixStream::connect(&socket).is_ok() {
            ready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(ready, "service never bound {}", socket.display());
    (socket, handle)
}

fn shutdown_service(socket: &std::path::Path, handle: std::thread::JoinHandle<()>) {
    assert!(matches!(
        submit(socket, &Request::Shutdown).expect("shutdown submits"),
        Response::ShuttingDown
    ));
    handle.join().expect("service thread exits cleanly");
    let dir = socket.parent().unwrap().to_path_buf();
    let _ = std::fs::remove_dir_all(dir);
}

/// The tentpole acceptance property: a second identical submission is
/// answered entirely from the journal — zero cells simulated, the hit
/// counter in the response proves it — and the report is byte-identical
/// to the first.
#[test]
fn second_submission_is_fully_journal_answered_and_byte_identical() {
    let (socket, handle) = start_service("resubmit", 2);
    let request = campaign_request(RunOptions::new());

    let (first_json, first_stats) = match submit(&socket, &request).expect("first submission") {
        Response::Campaign { json, stats, .. } => (json, stats),
        other => panic!("expected Campaign, got {other:?}"),
    };
    assert_eq!(first_stats.cells, 2);
    assert_eq!(
        first_stats.simulated, 2,
        "cold journal: every cell simulates"
    );
    assert_eq!(first_stats.journal_hits, 0);
    assert_eq!(first_stats.failed, 0);
    assert!(!first_stats.fully_cached());

    let (second_json, second_stats) = match submit(&socket, &request).expect("second submission") {
        Response::Campaign { json, stats, .. } => (json, stats),
        other => panic!("expected Campaign, got {other:?}"),
    };
    assert_eq!(second_stats.journal_hits, second_stats.cells);
    assert_eq!(second_stats.simulated, 0, "warm journal: nothing simulates");
    assert_eq!(
        second_stats.derived_computed, 0,
        "derived rows journaled too"
    );
    assert!(second_stats.fully_cached());
    assert_eq!(first_json, second_json, "reports must be byte-identical");
    assert!(first_json.contains(&format!("\"schema_version\": {SCHEMA_VERSION},")));

    shutdown_service(&socket, handle);
}

/// N concurrent clients submitting the same campaign all receive
/// byte-identical reports, and the journal-hit counters prove the
/// campaign executed once: exactly one response simulated the cells,
/// the rest were answered from the journal the leader filled.
#[test]
fn concurrent_identical_submissions_execute_once() {
    let (socket, handle) = start_service("concurrent", 4);
    let results: Vec<(String, usize, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let socket = socket.clone();
                scope.spawn(move || {
                    match submit(&socket, &campaign_request(RunOptions::new()))
                        .expect("concurrent submission")
                    {
                        Response::Campaign { json, stats, .. } => {
                            (json, stats.simulated, stats.journal_hits)
                        }
                        other => panic!("expected Campaign, got {other:?}"),
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let cells = 2;
    for (json, _, _) in &results {
        assert_eq!(
            *json, results[0].0,
            "all concurrent clients must see byte-identical reports"
        );
    }
    let total_simulated: usize = results.iter().map(|(_, s, _)| s).sum();
    let total_hits: usize = results.iter().map(|(_, _, h)| h).sum();
    assert_eq!(
        total_simulated, cells,
        "single-flight: the campaign simulates exactly once"
    );
    assert_eq!(total_hits, cells * (results.len() - 1));

    shutdown_service(&socket, handle);
}

/// Malformed wire lines and semantically invalid payloads both get
/// typed error responses with stable codes, and the server keeps
/// answering afterwards.
#[test]
fn malformed_requests_get_typed_errors_and_server_stays_up() {
    let (socket, handle) = start_service("errors", 2);

    // Three bad lines on one raw connection: garbage, a bad protocol
    // version, and an unknown request type.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .write_all(
            b"{not json\n{\"v\": 99, \"type\": \"status\"}\n{\"v\": 1, \"type\": \"frobnicate\"}\n",
        )
        .expect("send");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for expected_fragment in ["invalid JSON", "unsupported protocol version", "frobnicate"] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("error response line");
        match api::decode_response(line.trim_end()).expect("decodable response") {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Protocol);
                assert_eq!(e.kind.code(), "E_PROTOCOL");
                assert!(
                    e.message.contains(expected_fragment),
                    "expected '{expected_fragment}' in '{}'",
                    e.message
                );
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }
    drop(reader);

    // A well-formed request with a semantically broken campaign gets a
    // typed spec error, not a dead connection.
    let broken = Request::RunCampaign {
        source: CampaignSource::Inline {
            campaign:
                "name = \"broken\"\nscenarios = [\"x\"]\n[grid]\ncores = []\nexperiments = []\n"
                    .into(),
            scenarios: vec!["name = 12\n".into()],
        },
        options: RunOptions::new(),
    };
    match submit(&socket, &broken).expect("submit broken campaign") {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Spec),
        other => panic!("expected Error, got {other:?}"),
    }

    // The server still answers real work after all of the above.
    match submit(&socket, &Request::Status).expect("status") {
        Response::Status(status) => assert!(status.requests >= 4),
        other => panic!("expected Status, got {other:?}"),
    }

    shutdown_service(&socket, handle);
}

/// A request line one byte over the cap, with no newline in sight, gets
/// one typed protocol error and its connection closed; the server keeps
/// answering new connections.
#[test]
fn overlong_request_line_is_rejected_and_server_stays_up() {
    let (socket, handle) = start_service("overlong", 1);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response line");
    match api::decode_response(line.trim_end()).expect("decodable response") {
        Response::Error(e) => {
            assert_eq!(e.kind.code(), "E_PROTOCOL");
            assert!(e.message.contains("exceeds"), "{}", e.message);
        }
        other => panic!("expected Error, got {other:?}"),
    }
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("read after error"),
        0,
        "the connection must be closed: {line}"
    );

    match submit(&socket, &Request::Status).expect("status") {
        Response::Status(status) => assert!(status.requests >= 1),
        other => panic!("expected Status, got {other:?}"),
    }

    shutdown_service(&socket, handle);
}

/// A client that pipelines requests and never reads its answers fills
/// the socket buffer, blocking the server's write to it. `Shutdown` from
/// another client must still end `serve` within the write timeout, with
/// the slow client still connected and no further client connecting.
#[test]
fn shutdown_returns_while_a_client_never_reads() {
    let (socket, handle) = start_service("slow-client", 1);

    let mut slow = UnixStream::connect(&socket).expect("connect");
    // Far more answers than a socket buffer holds. Once the server stops
    // reading, this send may stall too; the timeout ends it.
    slow.set_write_timeout(Some(Duration::from_secs(5)))
        .expect("client write timeout");
    let status = api::encode_request(&Request::Status).expect("encodable");
    let _ = slow.write_all(format!("{status}\n").repeat(4000).as_bytes());

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(handle.join().is_ok()));
    assert!(matches!(
        submit(&socket, &Request::Shutdown).expect("shutdown submits"),
        Response::ShuttingDown
    ));
    let deadline = WRITE_TIMEOUT + Duration::from_secs(10);
    match done_rx.recv_timeout(deadline) {
        Ok(joined) => assert!(joined, "service thread panicked"),
        Err(_) => panic!("serve still running {deadline:?} after Shutdown"),
    }
    assert!(!socket.exists(), "socket removed on shutdown");
    drop(slow);
    let _ = std::fs::remove_dir_all(socket.parent().unwrap());
}

/// With `MAX_CONNECTIONS` idle connections held open, the next client
/// gets one typed `E_IO` "server busy" answer instead of a thread; once
/// a held connection closes, requests are served again.
#[test]
fn connections_over_the_cap_are_refused_with_a_typed_error() {
    let (socket, handle) = start_service("cap", 1);

    let status = api::encode_request(&Request::Status).expect("encodable");
    let mut held: Vec<BufReader<UnixStream>> = (0..MAX_CONNECTIONS)
        .map(|i| {
            let mut stream = UnixStream::connect(&socket).expect("connect");
            stream
                .write_all(format!("{status}\n").as_bytes())
                .expect("send");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("status answer");
            assert!(
                matches!(
                    api::decode_response(line.trim_end()),
                    Ok(Response::Status(_))
                ),
                "held connection {i} must be served: {line}"
            );
            reader
        })
        .collect();

    match submit(&socket, &Request::Status).expect("an answer, not a dropped connection") {
        Response::Error(e) => {
            assert_eq!(e.kind.code(), "E_IO");
            assert!(
                e.message
                    .contains(&format!("server busy: {MAX_CONNECTIONS} connections open")),
                "{}",
                e.message
            );
        }
        other => panic!("expected a busy error, got {other:?}"),
    }

    // The slot frees when the closed connection's thread sees EOF.
    held.pop();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match submit(&socket, &Request::Status).expect("status") {
            Response::Status(_) => break,
            Response::Error(e) if e.kind == ErrorKind::Io && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("expected Status once a slot is free, got {other:?}"),
        }
    }

    drop(held);
    shutdown_service(&socket, handle);
}

/// Reports are stamped with the schema version, the constant is pinned
/// (bump it deliberately, with a migration note in docs/SERVICE.md),
/// and `diff` names a version mismatch instead of dumping a byte diff.
#[test]
fn schema_version_is_stamped_and_diff_names_mismatch() {
    assert_eq!(
        SCHEMA_VERSION, 1,
        "schema version changed: update docs/SERVICE.md and this pin deliberately"
    );

    let (campaign, scenarios) = inline_campaign();
    let (spec, specs) = campaign_from_inline(&campaign, &scenarios).expect("inline campaign");
    let (report, _) = run_campaign(
        &spec,
        &specs,
        &RunOptions::new(),
        &ExperimentOptions::default(),
    )
    .expect("campaign runs");
    let json = report.to_json();
    let stamp = format!("\"schema_version\": {SCHEMA_VERSION},");
    assert!(json.contains(&stamp), "campaign report missing {stamp}");

    let scenario = builtin_spec("900.chase").unwrap();
    let scenario_report = run_scenario(&scenario, &RunOptions::new()).expect("scenario runs");
    assert!(
        scenario_report.to_json().contains(&stamp),
        "scenario report missing {stamp}"
    );

    let bumped = json.replacen(&stamp, "\"schema_version\": 2,", 1);
    let (identical, detail) = diff_reports("current.json", &json, "future.json", &bumped);
    assert!(!identical);
    assert!(
        detail.contains("schema version mismatch"),
        "mismatch must be named: {detail}"
    );
    assert!(
        detail.contains("current.json has schema_version 1"),
        "{detail}"
    );
    assert!(
        detail.contains("future.json has schema_version 2"),
        "{detail}"
    );
    assert!(
        !detail.contains("--- <"),
        "a named mismatch must not fall through to the byte diff: {detail}"
    );
}

/// The runner entry points (`run_campaign`, `run_scenario`) and the
/// unified `api::execute` path over them must produce the same
/// reports, and `execute` must surface failures as typed responses with
/// the documented exit codes.
#[test]
fn legacy_wrappers_agree_with_execute_and_errors_are_typed() {
    let (campaign, scenarios) = inline_campaign();
    let (spec, specs) = campaign_from_inline(&campaign, &scenarios).expect("inline campaign");
    let (legacy, _) = run_campaign(
        &spec,
        &specs,
        &RunOptions::new(),
        &ExperimentOptions::default(),
    )
    .expect("runner entry point runs");

    let response = api::execute(campaign_request(RunOptions::new()));
    let Response::Campaign {
        json,
        stats,
        report,
        ..
    } = response
    else {
        panic!("expected Campaign response");
    };
    assert_eq!(json, legacy.to_json(), "runner and execute must agree");
    assert_eq!(report.as_deref(), Some(&legacy));
    assert_eq!(stats.cells, stats.simulated + stats.journal_hits);

    let scenario = builtin_spec("900.chase").unwrap();
    let legacy_fp = run_scenario(&scenario, &RunOptions::new())
        .expect("runner scenario run")
        .fingerprint();
    let Response::Scenario {
        report: Some(report),
        ..
    } = api::execute(Request::RunScenario {
        source: SpecSource::Inline(scenario.to_toml()),
        options: RunOptions::new(),
    })
    else {
        panic!("expected Scenario response");
    };
    assert_eq!(report.fingerprint(), legacy_fp);

    // Typed failure surface: a nonexistent campaign file is an I/O
    // error with exit code 1; usage errors map to exit code 2.
    let missing = api::execute(Request::RunCampaign {
        source: CampaignSource::Path(PathBuf::from("/no/such/campaign.toml")),
        options: RunOptions::new(),
    });
    match &missing {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Io),
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(missing.exit_code(), 1);
    let usage = Response::Error(HelixError::usage("--resume requires a journal"));
    assert_eq!(usage.exit_code(), 2);
}
