//! Million-request scale replay (beyond-paper): the sharded simulation
//! core at 10⁶ requests across 8 pools, swept over worker-thread counts
//! with telemetry off and on.
//!
//! One scenario, one shard layout (8 shards, one pool each), three
//! thread budgets, two telemetry modes. Every run must produce the same
//! [`ScaleReport::digest`] — threads buy wall-clock time and telemetry
//! buys observability, never a different answer — the max-thread run
//! must clear 100k simulated requests per second, and the telemetry-on
//! runs must agree on [`ScaleReport::stream_digest`] for every thread
//! budget (the export is thread-count invariant). CI gates on all three.
//!
//! When `CRITERION_JSON` names a file, a record per run is appended
//! there (same growing-array document the vendored criterion shim
//! writes ns/iter records into) so CI can jq-gate the throughput floor,
//! the 1-thread ≡ N-thread digest, the telemetry overhead ceiling, and
//! the stream-digest invariance. When `TELEMETRY_JSONL` names a file,
//! the max-thread run's merged event stream is exported there as JSONL.

use std::time::Instant;

use spotserve::{ScaleReport, ShardedSystem, SystemOptions};
use spotserve_bench::{append_json_record, criterion_json_path, header, scale_replay_scenario};

const POOLS: usize = 8;
const REQUESTS: usize = 1_000_000;
const SEED: u64 = 8;

fn total_events(report: &ScaleReport) -> u64 {
    report.epochs.iter().flat_map(|e| &e.events).sum()
}

fn main() {
    header(&format!(
        "Million-request replay: {REQUESTS} requests, {POOLS} pools, OPT-6.7B, sharded x{POOLS}"
    ));
    let json_path = criterion_json_path();
    let jsonl_path = std::env::var_os("TELEMETRY_JSONL").map(std::path::PathBuf::from);
    let scenario = scale_replay_scenario(POOLS, REQUESTS, SEED);

    println!(
        "{:<14} {:>9} {:>14} {:>9} {:>7} {:>12} {:>18}",
        "Run", "wall s", "sim req/s", "events", "unfin", "completed", "digest"
    );
    let mut first_digest = None;
    let mut first_stream_digest = None;
    for telemetry in [false, true] {
        for threads in [1usize, 4, POOLS] {
            let opts = if telemetry {
                SystemOptions::spotserve().with_telemetry()
            } else {
                SystemOptions::spotserve()
            };
            let sys = ShardedSystem::new(opts, scenario.clone(), POOLS).with_threads(threads);
            let t0 = Instant::now();
            let report = sys.run();
            let wall = t0.elapsed().as_secs_f64();
            let digest = report.digest();
            let stream_digest = report.stream_digest();
            let sim_req_per_s = REQUESTS as f64 / wall;
            let bench = if telemetry {
                format!("replay_{threads}t_tel")
            } else {
                format!("replay_{threads}t")
            };
            println!(
                "{bench:<14} {wall:>9.2} {sim_req_per_s:>14.0} {:>9} {:>7} {:>12} {digest:#018x}",
                total_events(&report),
                report.unfinished,
                report.completed,
            );
            match first_digest {
                None => first_digest = Some(digest),
                Some(d) => assert_eq!(
                    d, digest,
                    "thread count or telemetry changed the canonical output — determinism broken"
                ),
            }
            if telemetry {
                let sd = stream_digest.expect("telemetry-on run carries a stream");
                match first_stream_digest {
                    None => first_stream_digest = Some(sd),
                    Some(d) => assert_eq!(
                        d, sd,
                        "thread count changed the telemetry stream — export not invariant"
                    ),
                }
                if threads == POOLS {
                    if let (Some(path), Some(stream)) = (&jsonl_path, &report.telemetry) {
                        match stream.write_jsonl_file(path) {
                            Ok(()) => println!(
                                "    exported {} telemetry records to {}",
                                stream.len(),
                                path.display()
                            ),
                            Err(e) => {
                                eprintln!("fig_scale: cannot write {}: {e}", path.display())
                            }
                        }
                    }
                }
            }
            if let Some(path) = &json_path {
                append_json_record(
                    path,
                    &format!(
                        concat!(
                            r#"{{"group":"fig_scale","bench":"{bench}","threads":{threads},"#,
                            r#""telemetry":"{tel}","requests":{req},"pools":{pools},"#,
                            r#""shards":{pools},"wall_s":{wall:.3},"sim_req_per_s":{rps:.0},"#,
                            r#""events":{events},"completed":{completed},"#,
                            r#""unfinished":{unfin},"digest":"{digest:016x}","#,
                            r#""stream_digest":"{sd}","stream_len":{slen}}}"#
                        ),
                        bench = bench,
                        threads = threads,
                        tel = if telemetry { "on" } else { "off" },
                        req = REQUESTS,
                        pools = POOLS,
                        wall = wall,
                        rps = sim_req_per_s,
                        events = total_events(&report),
                        completed = report.completed,
                        unfin = report.unfinished,
                        digest = digest,
                        sd = stream_digest
                            .map(|d| format!("{d:016x}"))
                            .unwrap_or_default(),
                        slen = report.telemetry.as_ref().map_or(0, |s| s.len()),
                    ),
                );
            }
        }
    }
    println!();
    println!("Shards share nothing and each runs to completion, so the digest is");
    println!("identical for every thread budget; threads only buy wall-clock time.");
    println!("Telemetry-on runs replay the same bytes and merge per-shard streams by");
    println!("(time, shard, seq), so the JSONL export never depends on thread count.");
}
