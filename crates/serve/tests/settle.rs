//! Regression: a job that finished is never reported lost.
//!
//! Taking a result out of a job handle leaves the handle disconnected.
//! If the daemon settled the job only after releasing the handle lock,
//! a `status` or `wait` poller that grabbed the handle in between saw
//! the disconnect and settled the job as lost first: the client got
//! `job-lost` (or status `failed`) for a job that completed. Here many
//! quick jobs finish while `status` pollers and `wait` callers race the
//! daemon's tick (set to 1 ms so it polls constantly); every job must
//! come back done. The interleaving cannot be forced from outside the
//! daemon, so the test relies on volume: several hundred settles, each
//! contested by the tick and every poller.

use oscar_serve::daemon::{spawn_unix, ServeConfig};
use oscar_serve::json::Json;
use oscar_serve::proto::SubmitReq;
use oscar_serve::Client;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const JOBS: u64 = 400;
const STATUS_POLLERS: usize = 3;
const WAITERS: usize = 2;

fn connect(path: &std::path::Path) -> Client {
    let client = Client::connect_unix(path).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    client
}

#[test]
fn finished_jobs_are_never_reported_lost_under_racing_pollers() {
    let path = std::env::temp_dir().join(format!(
        "oscar-serve-{}-settle-race.sock",
        std::process::id()
    ));
    let config = ServeConfig {
        concurrency: 2,
        max_pending: 10_000,
        per_client_quota: 10_000,
        tick: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let daemon = spawn_unix(&path, config).expect("spawn");

    let mut submitter = connect(&path);
    let ids: Vec<u64> = (0..JOBS)
        .map(|seed| {
            let reply = submitter
                .submit(&SubmitReq::new(4, seed, 8, 10, 0.3))
                .expect("submit io");
            reply
                .get("job")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("submit rejected: {}", reply.to_string_compact()))
        })
        .collect();

    let lost = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..STATUS_POLLERS {
            scope.spawn(|| {
                let mut client = connect(&path);
                let mut open: BTreeSet<u64> = ids.iter().copied().collect();
                while !open.is_empty() {
                    open.retain(|&id| {
                        let reply = client.status(id).expect("status io");
                        match reply.get("status").and_then(Json::as_str) {
                            Some("queued" | "running") => true,
                            Some("done") => false,
                            other => {
                                eprintln!("job {id}: status {other:?}");
                                lost.fetch_add(1, Ordering::Relaxed);
                                false
                            }
                        }
                    });
                }
            });
        }
        for w in 0..WAITERS {
            let (ids, lost, done, path) = (&ids, &lost, &done, &path);
            scope.spawn(move || {
                let mut client = connect(path);
                for &id in ids.iter().skip(w).step_by(WAITERS) {
                    let reply = client.wait(id, Some(60_000), false).expect("wait io");
                    if reply.get("status").and_then(Json::as_str) == Some("done") {
                        done.fetch_add(1, Ordering::Relaxed);
                    } else {
                        eprintln!("job {id}: {}", reply.to_string_compact());
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        lost.load(Ordering::Relaxed),
        0,
        "finished jobs were reported lost"
    );
    assert_eq!(done.load(Ordering::Relaxed), JOBS as usize);
    let stats = submitter.stats().expect("stats io");
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    assert!(submitter.drain().expect("drain io").get("ok").is_some());
    daemon.join();
}
