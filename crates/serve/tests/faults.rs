//! Deterministic fault-injection suite for the `oscar-serve` daemon.
//!
//! Each test spawns an in-process daemon on its own Unix socket and
//! scripts a failure scenario through `fault::RawClient` (malformed
//! bytes, abrupt drops, slow reads) or through ordinary clients under
//! hostile configurations (tiny queues, tight deadlines, mid-job
//! drain), then asserts the robustness contract: structured error
//! replies, bounded queues, server-side cancellation, and results
//! bit-identical to the library path.

use oscar_serve::daemon::{spawn_unix, ServeConfig};
use oscar_serve::fault::RawClient;
use oscar_serve::json::Json;
use oscar_serve::proto::{result_checksum, SubmitReq};
use oscar_serve::Client;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn sock(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oscar-serve-{}-{name}.sock", std::process::id()))
}

/// A millisecond-scale job.
fn quick(seed: u64) -> SubmitReq {
    SubmitReq::new(4, seed, 8, 10, 0.3)
}

/// A job that keeps one executor busy for well over the 30 ms deadline
/// the expiry test sets (about 0.14 s in a release build on 2 vCPUs).
fn blocker() -> SubmitReq {
    SubmitReq::new(12, 0, 40, 40, 0.2)
}

fn tight_config() -> ServeConfig {
    ServeConfig {
        concurrency: 1,
        tick: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn err_code(reply: &Json) -> Option<&str> {
    reply.get("error").and_then(Json::as_str)
}

fn submit_ok(client: &mut Client, req: &SubmitReq) -> u64 {
    let reply = client.submit(req).expect("submit io");
    assert!(
        is_ok(&reply),
        "submit rejected: {}",
        reply.to_string_compact()
    );
    reply.get("job").and_then(Json::as_u64).expect("job id")
}

fn status_of(client: &mut Client, job: u64) -> String {
    let reply = client.status(job).expect("status io");
    reply
        .get("status")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| err_code(&reply).expect("status or error").to_string())
}

/// Polls `stats` until the daemon reports the blocker running and the
/// queue empty, so subsequently submitted jobs are definitely queued.
fn wait_until_busy(client: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats io");
        let running = stats.get("running").and_then(Json::as_u64).unwrap_or(0);
        let pending = stats.get("pending").and_then(Json::as_u64).unwrap_or(0);
        if running >= 1 && pending == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "blocker never started running");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn poll_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let path = sock("malformed");
    let config = ServeConfig {
        max_line_bytes: 256,
        ..tight_config()
    };
    let daemon = spawn_unix(&path, config).expect("spawn");
    let mut raw = RawClient::connect_unix(&path).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let exchange = |raw: &mut RawClient, line: &str| -> Json {
        raw.send_line(line).expect("send");
        let reply = raw.read_line().expect("read").expect("reply line");
        oscar_serve::json::parse(&reply).expect("reply parses")
    };

    // Not JSON at all.
    let reply = exchange(&mut raw, "this is not json {{{");
    assert_eq!(err_code(&reply), Some("bad-json"));
    // Valid JSON, unknown verb.
    let reply = exchange(&mut raw, r#"{"verb":"reboot"}"#);
    assert_eq!(err_code(&reply), Some("unknown-verb"));
    // Known verb, missing field.
    let reply = exchange(&mut raw, r#"{"verb":"cancel"}"#);
    assert_eq!(err_code(&reply), Some("bad-request"));
    // Out-of-range submit.
    let reply = exchange(
        &mut raw,
        r#"{"verb":"submit","qubits":99,"seed":1,"rows":8,"cols":8,"fraction":0.3}"#,
    );
    assert_eq!(err_code(&reply), Some("bad-request"));
    // A line past the byte bound.
    let giant = format!("{{\"verb\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(600));
    let reply = exchange(&mut raw, &giant);
    assert_eq!(err_code(&reply), Some("line-too-long"));
    // A request split across writes still parses once the newline lands.
    raw.send_bytes(b"{\"verb\":\"st").expect("partial");
    std::thread::sleep(Duration::from_millis(30));
    raw.send_bytes(b"ats\"}\n").expect("rest");
    let reply = oscar_serve::json::parse(&raw.read_line().unwrap().unwrap()).unwrap();
    assert!(is_ok(&reply), "connection must survive all of the above");
    assert!(
        reply.get("bad_requests").and_then(Json::as_u64).unwrap() >= 3,
        "protocol errors are counted"
    );
    drop(daemon);
}

#[test]
fn dropped_connection_cancels_its_queued_jobs_only() {
    let path = sock("disconnect");
    let daemon = spawn_unix(&path, tight_config()).expect("spawn");
    let mut observer = Client::connect_unix(&path).expect("connect observer");

    // Keep the single executor busy so everything else queues.
    let blocker_id = submit_ok(&mut observer, &blocker());
    wait_until_busy(&mut observer);
    let survivor_id = submit_ok(&mut observer, &quick(11));

    // The doomed client queues a job of its own, then vanishes.
    let mut doomed = Client::connect_unix(&path).expect("connect doomed");
    let doomed_id = submit_ok(&mut doomed, &quick(12));
    drop(doomed);

    poll_until("disconnect cancellation", || {
        status_of(&mut observer, doomed_id) == "cancelled"
    });
    // The observer's own jobs are untouched by the other client's death.
    let reply = observer.wait(survivor_id, Some(30_000), false).unwrap();
    assert!(is_ok(&reply), "{}", reply.to_string_compact());
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("done"));
    let reply = observer.wait(blocker_id, Some(30_000), false).unwrap();
    assert!(is_ok(&reply));
    let stats = observer.stats().unwrap();
    assert_eq!(
        stats.get("disconnect_cancelled").and_then(Json::as_u64),
        Some(1)
    );
    drop(daemon);
}

#[test]
fn slow_reader_does_not_stall_other_clients() {
    let path = sock("slowread");
    let daemon = spawn_unix(&path, ServeConfig::default()).expect("spawn");

    let slow_path = path.clone();
    let slow = std::thread::spawn(move || {
        let mut raw = RawClient::connect_unix(&slow_path).expect("connect slow");
        raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        raw.send_line(r#"{"verb":"stats"}"#).expect("send");
        // Drain the (long) stats reply two milliseconds per byte.
        raw.read_line_slowly(Duration::from_millis(2))
            .expect("slow read")
            .expect("reply")
    });

    // While the slow reader crawls, a normal client stays snappy.
    let mut fast = Client::connect_unix(&path).expect("connect fast");
    fast.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..5 {
        let started = Instant::now();
        let reply = fast.stats().expect("fast stats");
        assert!(is_ok(&reply));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fast client stalled behind a slow reader"
        );
    }
    let reply = slow.join().expect("slow thread");
    assert!(is_ok(&oscar_serve::json::parse(&reply).unwrap()));
    drop(daemon);
}

#[test]
fn overflow_storm_gets_structured_rejects_and_a_bounded_queue() {
    let path = sock("overflow");
    let config = ServeConfig {
        max_pending: 2,
        per_client_quota: 64,
        ..tight_config()
    };
    let daemon = spawn_unix(&path, config).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");

    submit_ok(&mut client, &blocker());
    wait_until_busy(&mut client);
    let mut accepted = vec![
        submit_ok(&mut client, &quick(21)),
        submit_ok(&mut client, &quick(22)),
    ];

    // The storm: every further submit must be rejected, structurally.
    for seed in 0..10 {
        let reply = client.submit(&quick(100 + seed)).expect("submit io");
        assert!(!is_ok(&reply), "queue must be bounded");
        assert_eq!(err_code(&reply), Some("overloaded"));
        let retry = reply
            .get("retry_after_ms")
            .and_then(Json::as_f64)
            .expect("reject carries retry_after_ms");
        assert!(retry > 0.0 && retry <= 60_000.0, "retry hint sane: {retry}");
        let stats = client.stats().expect("stats io");
        assert!(
            stats.get("pending").and_then(Json::as_u64).unwrap() <= 2,
            "pending queue never exceeds the bound"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("rejected_overload").and_then(Json::as_u64),
        Some(10)
    );

    // Everything that was admitted completes normally.
    for id in accepted.drain(..) {
        let reply = client.wait(id, Some(30_000), false).expect("wait io");
        assert!(is_ok(&reply), "{}", reply.to_string_compact());
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("done"));
    }
    drop(daemon);
}

#[test]
fn quota_rejects_with_retry_hint_and_frees_on_cancel() {
    let path = sock("quota");
    let config = ServeConfig {
        per_client_quota: 2,
        ..tight_config()
    };
    let daemon = spawn_unix(&path, config).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");

    submit_ok(&mut client, &blocker());
    wait_until_busy(&mut client);
    let queued = submit_ok(&mut client, &quick(31));
    let reply = client.submit(&quick(32)).expect("submit io");
    assert_eq!(err_code(&reply), Some("quota-exceeded"));
    assert!(reply.get("retry_after_ms").and_then(Json::as_f64).is_some());

    // Cancelling a queued job frees its quota slot immediately.
    let reply = client.cancel(queued).expect("cancel io");
    assert_eq!(reply.get("cancelled").and_then(Json::as_bool), Some(true));
    submit_ok(&mut client, &quick(33));
    drop(daemon);
}

#[test]
fn expired_deadline_is_reported_as_expired_server_side() {
    let path = sock("deadline");
    let daemon = spawn_unix(&path, tight_config()).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");

    submit_ok(&mut client, &blocker());
    wait_until_busy(&mut client);
    let mut doomed = quick(41);
    doomed.deadline_ms = Some(30);
    let id = submit_ok(&mut client, &doomed);

    // The periodic sweep cancels it without anyone waiting on it.
    poll_until("deadline expiry", || {
        status_of(&mut client, id) == "expired"
    });
    let reply = client.wait(id, Some(1_000), false).unwrap();
    assert!(!is_ok(&reply));
    assert_eq!(err_code(&reply), Some("expired"));
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("expired").and_then(Json::as_u64), Some(1));
    drop(daemon);
}

#[test]
fn served_results_are_bit_identical_to_the_library_path() {
    let path = sock("bitident");
    let config = ServeConfig {
        concurrency: 2,
        ..ServeConfig::default()
    };
    let daemon = spawn_unix(&path, config).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");

    for seed in [1u64, 2, 3] {
        let req = quick(seed);
        let id = submit_ok(&mut client, &req);
        let reply = client.wait(id, Some(30_000), true).expect("wait io");
        assert!(is_ok(&reply), "{}", reply.to_string_compact());
        let result = reply.get("result").expect("result object");

        let local = oscar_runtime::job::run_job(&req.to_spec().unwrap(), None);
        assert_eq!(
            result.get("checksum").and_then(Json::as_str).unwrap(),
            format!("{:016x}", result_checksum(&local)),
            "served checksum differs from the library path (seed {seed})"
        );
        // And not just the checksum: every value round-trips bit-exactly.
        let served = result.get("values").and_then(Json::as_arr).unwrap();
        let expected = local.reconstruction.values();
        assert_eq!(served.len(), expected.len());
        for (i, (s, e)) in served.iter().zip(expected).enumerate() {
            assert_eq!(
                s.as_f64().unwrap().to_bits(),
                e.to_bits(),
                "value {i} differs (seed {seed})"
            );
        }
        assert_eq!(
            result
                .get("nrmse")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            local.nrmse.to_bits()
        );
    }
    drop(daemon);
}

#[test]
fn malformed_nd_submits_get_structured_rejects_and_the_connection_survives() {
    let path = sock("nd-malformed");
    let daemon = spawn_unix(&path, tight_config()).expect("spawn");
    let mut raw = RawClient::connect_unix(&path).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let exchange = |raw: &mut RawClient, line: &str| -> Json {
        raw.send_line(line).expect("send");
        let reply = raw.read_line().expect("read").expect("reply line");
        oscar_serve::json::parse(&reply).expect("reply parses")
    };

    // Every malformed N-D submit maps to a structured bad-request.
    for line in [
        // Unknown problem family.
        r#"{"verb":"submit","problem":"ising-3d","qubits":6,"seed":1,"rows":8,"cols":8,"fraction":0.3}"#,
        // Deep QAOA whose shape disagrees with its depth.
        r#"{"verb":"submit","problem":"sk","qubits":6,"depth":2,"shape":[5,5,5],"seed":1,"fraction":0.3}"#,
        // Molecular job smuggling in 2-D grid fields.
        r#"{"verb":"submit","problem":"h2","rows":8,"cols":8,"seed":1,"fraction":0.3}"#,
        // Shape blowing past the landscape point cap.
        r#"{"verb":"submit","problem":"lih","shape":[60,60,60,60,60,60,60,60],"seed":1,"fraction":0.3}"#,
    ] {
        let reply = exchange(&mut raw, line);
        assert_eq!(err_code(&reply), Some("bad-request"), "for line {line}");
    }

    // The connection survives, and a well-formed N-D submit on the
    // same connection is admitted and runs to completion.
    let req = SubmitReq::deep_qaoa(
        oscar_problems::workload::ProblemKind::MaxCut,
        6,
        2,
        7,
        vec![4, 4, 5, 5],
        0.4,
    );
    let reply = exchange(&mut raw, &req.to_json().to_string_compact());
    assert!(is_ok(&reply), "{}", reply.to_string_compact());
    let id = reply.get("job").and_then(Json::as_u64).expect("job id");
    let reply = exchange(
        &mut raw,
        &format!("{{\"verb\":\"wait\",\"job\":{id},\"timeout_ms\":30000}}"),
    );
    assert!(is_ok(&reply), "{}", reply.to_string_compact());
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("done"));
    drop(daemon);
}

#[test]
fn served_nd_results_are_bit_identical_to_the_library_path() {
    let path = sock("nd-bitident");
    let daemon = spawn_unix(&path, tight_config()).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");

    // One 4-D depth-2 QAOA job and one molecular VQE scan, each
    // checked value-for-value against the in-process library path.
    let mut vqe = SubmitReq::vqe(oscar_problems::workload::Molecule::H2, 3, 0.5);
    vqe.device = Some("ibm perth".into());
    for req in [
        SubmitReq::deep_qaoa(
            oscar_problems::workload::ProblemKind::SkModel,
            6,
            2,
            9,
            vec![4, 5, 4, 5],
            0.4,
        ),
        vqe,
    ] {
        let id = submit_ok(&mut client, &req);
        let reply = client.wait(id, Some(30_000), true).expect("wait io");
        assert!(is_ok(&reply), "{}", reply.to_string_compact());
        let result = reply.get("result").expect("result object");

        let local = oscar_runtime::job::run_job(&req.to_spec().unwrap(), None);
        assert_eq!(
            result.get("checksum").and_then(Json::as_str).unwrap(),
            format!("{:016x}", result_checksum(&local)),
            "served checksum differs from the library path"
        );
        let dims: Vec<u64> = result
            .get("dims")
            .and_then(Json::as_arr)
            .expect("dims array")
            .iter()
            .map(|d| d.as_u64().unwrap())
            .collect();
        let expected_dims: Vec<u64> = local
            .reconstruction
            .dims()
            .iter()
            .map(|&n| n as u64)
            .collect();
        assert_eq!(dims, expected_dims);
        let served = result.get("values").and_then(Json::as_arr).unwrap();
        let expected = local.reconstruction.values();
        assert_eq!(served.len(), expected.len());
        for (i, (s, e)) in served.iter().zip(expected).enumerate() {
            assert_eq!(
                s.as_f64().unwrap().to_bits(),
                e.to_bits(),
                "value {i} differs"
            );
        }
        let best: Vec<u64> = result
            .get("best_point")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_f64().unwrap().to_bits())
            .collect();
        let expected_best: Vec<u64> = local.best_point.iter().map(|c| c.to_bits()).collect();
        assert_eq!(best, expected_best);
    }
    drop(daemon);
}

#[test]
fn mid_job_drain_finishes_admitted_work_then_shuts_down() {
    let path = sock("drain");
    let daemon = spawn_unix(&path, tight_config()).expect("spawn");
    let mut submitter = Client::connect_unix(&path).expect("connect submitter");

    submit_ok(&mut submitter, &blocker());
    wait_until_busy(&mut submitter);
    submit_ok(&mut submitter, &quick(51));

    // Drain arrives from another connection while the blocker runs.
    let mut drainer = Client::connect_unix(&path).expect("connect drainer");
    let reply = drainer.drain().expect("drain io");
    assert!(is_ok(&reply));
    assert_eq!(reply.get("drained").and_then(Json::as_bool), Some(true));
    // Both admitted jobs ran to completion before the reply — nothing
    // was abandoned mid-flight.
    assert_eq!(reply.get("completed").and_then(Json::as_u64), Some(2));
    assert!(daemon.state().is_shut_down());

    // The drained daemon serves nobody: the submitter's connection
    // closes rather than accepting new work.
    submitter
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match submitter.submit(&quick(52)) {
            Err(_) => break,
            Ok(reply) => {
                // A line already in flight may still get a draining
                // reject; new work is never admitted.
                assert!(!is_ok(&reply));
            }
        }
        assert!(Instant::now() < deadline, "connection never closed");
    }
    daemon.join();
}

#[test]
fn registry_eviction_bounds_memory_and_forgets_oldest_settled() {
    let path = sock("evict");
    let config = ServeConfig {
        registry_capacity: 1,
        ..tight_config()
    };
    let daemon = spawn_unix(&path, config).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");

    let first = submit_ok(&mut client, &quick(61));
    let reply = client.wait(first, Some(30_000), false).unwrap();
    assert!(is_ok(&reply));
    let second = submit_ok(&mut client, &quick(62));
    let reply = client.wait(second, Some(30_000), false).unwrap();
    assert!(is_ok(&reply));

    // With two settled entries over a capacity of one, the sweep
    // evicts the oldest; its id stops resolving.
    poll_until("registry eviction", || {
        status_of(&mut client, first) == "unknown-job"
    });
    drop(daemon);
}

#[test]
fn connection_stats_count_open_and_lifetime_connections() {
    let path = sock("connstats");
    let daemon = spawn_unix(&path, tight_config()).expect("spawn");
    let counts = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        let field = |name: &str| stats.get(name).and_then(Json::as_u64).expect(name);
        (field("connections_open"), field("connections_total"))
    };
    let mut observer = Client::connect_unix(&path).expect("connect observer");
    observer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (open0, total0) = counts(&mut observer);

    // Two short-lived clients, each served (a reply proves the daemon
    // accepted it) and then closed.
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client::connect_unix(&path).expect("connect"))
        .collect();
    for client in &mut clients {
        assert!(is_ok(&client.stats().expect("stats")));
    }
    assert_eq!(counts(&mut observer), (open0 + 2, total0 + 2));
    drop(clients);

    // The daemon notices a close on its next read; the open count
    // returns to its baseline while the lifetime count keeps both.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (open, total) = counts(&mut observer);
        assert_eq!(total - total0, 2, "lifetime count must not drop on close");
        if open == open0 {
            break;
        }
        assert!(Instant::now() < deadline, "open count stuck at {open}");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(daemon);
}
