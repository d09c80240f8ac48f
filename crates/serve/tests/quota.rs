//! A client's quota counts its jobs that have not settled, read from
//! the jobs' handles at submit time: a job that finished frees its
//! slot at once, with no `status`/`wait` poll and no daemon tick
//! settling it first.

use oscar_serve::daemon::{spawn_unix, ServeConfig};
use oscar_serve::json::Json;
use oscar_serve::proto::SubmitReq;
use oscar_serve::Client;
use std::time::{Duration, Instant};

#[test]
fn a_finished_job_frees_its_quota_slot_without_a_poll() {
    let path = std::env::temp_dir().join(format!(
        "oscar-serve-{}-quota-unpolled.sock",
        std::process::id()
    ));
    let config = ServeConfig {
        concurrency: 1,
        per_client_quota: 1,
        // A tick far longer than the test's own steps: no periodic
        // sweep runs between the first job finishing and the second
        // submit.
        tick: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let daemon = spawn_unix(&path, config).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let submit = |client: &mut Client, seed| {
        client
            .submit(&SubmitReq::new(4, seed, 8, 10, 0.3))
            .expect("submit io")
    };

    let reply = submit(&mut client, 1);
    assert!(reply.get("job").is_some(), "{}", reply.to_string_compact());
    // Watch the daemon's counters, never the job itself. An executor
    // leaves the running count only after the job's handle settled.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats io");
        let count = |field| stats.get(field).and_then(Json::as_u64);
        if count("completed") == Some(1) && count("running") == Some(0) {
            break;
        }
        assert!(Instant::now() < deadline, "first job never completed");
        std::thread::sleep(Duration::from_millis(2));
    }

    let reply = submit(&mut client, 2);
    assert!(
        reply.get("job").is_some(),
        "a finished job must not hold its client's quota slot: {}",
        reply.to_string_compact()
    );
    let stats = client.stats().expect("stats io");
    assert_eq!(stats.get("rejected_quota").and_then(Json::as_u64), Some(0));
    drop(client);
    drop(daemon);
}
