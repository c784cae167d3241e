//! One timed repetition of a workload, solo or fleet.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use netmeter_sentinel::fleet::{run_fleet, DayCloseObserver, FleetConfig, FleetOptions, ShardSpec};
use netmeter_sentinel::obs::{NoopRecorder, Recorder};
use netmeter_sentinel::serve::{SharedRegistry, TelemetryServer};
use netmeter_sentinel::sim::{LongTermRunResult, Parallelism, SupervisedOptions, SupervisedRun};
use netmeter_sentinel::types::{FleetHealth, StorageFaultCounts};

use crate::inputs::{Inputs, Shard};
use crate::BoxError;

/// What one repetition measured and produced.
pub struct Rep {
    /// Start to a ready runner (solo), or to the first day close (fleet).
    pub setup_s: f64,
    /// Wall time of each detection-day close after set-up.
    pub day_close_s: Vec<f64>,
    /// Start to the last result.
    pub run_s: f64,
    pub results: Vec<LongTermRunResult>,
    /// Shard-day closes attempted, and ladder events (retries, resumes,
    /// quarantines) among them.
    pub attempted: usize,
    pub failed: usize,
    /// Bytes of every journal the repetition wrote.
    pub journal_bytes: u64,
    /// Telemetry plane, fleet only: per day close, seconds spent in the
    /// publisher and seconds one `/metrics` scrape took.
    pub publish_s: Vec<f64>,
    pub scrape_s: Vec<f64>,
    /// Every scrape served exactly the published snapshot.
    pub scrapes_ok: bool,
    /// Fleet only: wall time of each fleet day, the first measured from
    /// the start of `run_fleet`.
    pub fleet_day_wall_s: Vec<f64>,
}

/// One repetition with the production plumbing: no recorder in the
/// shards, and for the fleet the `SharedRegistry` behind its server.
pub fn untraced(inputs: &Inputs, dir: &Path) -> Result<Rep, BoxError> {
    if inputs.fleet_workers == 0 {
        solo(&inputs.shards[0], dir, Arc::new(NoopRecorder))
    } else {
        let registry = SharedRegistry::new();
        fleet(
            inputs,
            dir,
            Arc::new(NoopRecorder),
            Arc::new(registry.clone()),
            &registry,
        )
    }
}

/// Drives one community through `SupervisedRun`, journaling to `dir`.
pub fn solo(shard: &Shard, dir: &Path, recorder: Arc<dyn Recorder>) -> Result<Rep, BoxError> {
    let journal = fresh_path(dir, "solo.jsonl")?;
    let start = Instant::now();
    let mut run = SupervisedRun::with_options(
        &shard.scenario,
        &shard.config,
        shard.seed,
        &journal,
        SupervisedOptions {
            recorder,
            ..SupervisedOptions::default()
        },
    )?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut day_close_s = Vec::new();
    while !run.is_finished() {
        let day = Instant::now();
        run.step_day()?;
        day_close_s.push(day.elapsed().as_secs_f64());
    }
    let result = run.finish()?;
    let run_s = start.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        attempted: day_close_s.len(),
        day_close_s,
        run_s,
        results: vec![result],
        failed: 0,
        journal_bytes: std::fs::metadata(&journal)?.len(),
        publish_s: Vec::new(),
        scrape_s: Vec::new(),
        scrapes_ok: true,
        fleet_day_wall_s: Vec::new(),
    })
}

/// What the day-close observer saw at one fleet day close.
struct DayClose {
    at: Instant,
    publish_s: f64,
    scrape_s: f64,
    served_ok: bool,
}

/// Drives every community through `run_fleet` behind the production
/// telemetry plane: `registry` is the fleet recorder's registry, published
/// at each day close to a `TelemetryServer` that is then scraped once.
pub fn fleet(
    inputs: &Inputs,
    dir: &Path,
    shard_recorder: Arc<dyn Recorder>,
    fleet_recorder: Arc<dyn Recorder>,
    registry: &SharedRegistry,
) -> Result<Rep, BoxError> {
    let mut specs = Vec::new();
    for (index, shard) in inputs.shards.iter().enumerate() {
        specs.push(ShardSpec {
            community: format!("community-{index}"),
            scenario: shard.scenario.clone(),
            config: shard.config.clone(),
            seed: shard.seed,
            journal_path: fresh_path(dir, &format!("shard-{index}.jsonl"))?,
        });
    }
    let journals: Vec<PathBuf> = specs.iter().map(|spec| spec.journal_path.clone()).collect();
    let shard_options: Vec<SupervisedOptions> = specs
        .iter()
        .map(|_| SupervisedOptions {
            recorder: Arc::clone(&shard_recorder),
            ..SupervisedOptions::default()
        })
        .collect();
    let ledgers: Vec<_> = shard_options
        .iter()
        .map(|options| options.storage.clone())
        .collect();

    let server = TelemetryServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr();
    let closes: Arc<Mutex<Vec<DayClose>>> = Arc::default();
    let observer: DayCloseObserver = {
        let publisher = server.publisher();
        let registry = registry.clone();
        let closes = Arc::clone(&closes);
        Arc::new(move |day: usize, health: &FleetHealth| {
            let at = Instant::now();
            let mut storage = StorageFaultCounts::default();
            for ledger in &ledgers {
                storage.merge(&ledger.snapshot());
            }
            publisher.publish_shared(&registry);
            publisher.publish_health(Some(day), health, storage);
            let published = Instant::now();
            let served = scrape_metrics(addr);
            let scrape_s = published.elapsed().as_secs_f64();
            let served_ok = served.is_ok_and(|body| {
                body == publisher.metrics_text() && body.contains("nms_fleet_days_closed")
            });
            closes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(DayClose {
                    at,
                    publish_s: (published - at).as_secs_f64(),
                    scrape_s,
                    served_ok,
                });
        })
    };
    let config = FleetConfig {
        parallelism: Parallelism::new(inputs.fleet_workers),
        ..FleetConfig::default()
    };
    let options = FleetOptions {
        shard_options,
        recorder: fleet_recorder,
        on_day_close: Some(observer),
        ..FleetOptions::default()
    };

    let start = Instant::now();
    let report = run_fleet(specs, &config, options)?;
    let run_s = start.elapsed().as_secs_f64();
    server.shutdown();

    let closes = std::mem::take(&mut *closes.lock().unwrap_or_else(PoisonError::into_inner));
    let mut fleet_day_wall_s = Vec::with_capacity(closes.len());
    let mut previous = start;
    for close in &closes {
        fleet_day_wall_s.push((close.at - previous).as_secs_f64());
        previous = close.at;
    }
    let setup_s = *fleet_day_wall_s.first().ok_or("the fleet closed no day")?;
    let health = &report.health;
    let failed = health.day_retries() + health.restarts() + health.quarantined();
    let days: usize = inputs
        .shards
        .iter()
        .map(|shard| shard.config.detection_days)
        .sum();
    let results = report
        .shards
        .into_iter()
        .map(|shard| {
            shard
                .result
                .ok_or_else(|| format!("shard {} produced no result", shard.shard))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut journal_bytes = 0;
    for journal in &journals {
        journal_bytes += std::fs::metadata(journal)?.len();
    }
    Ok(Rep {
        setup_s,
        day_close_s: fleet_day_wall_s[1..].to_vec(),
        run_s,
        results,
        attempted: days,
        failed,
        journal_bytes,
        publish_s: closes.iter().map(|close| close.publish_s).collect(),
        scrape_s: closes.iter().map(|close| close.scrape_s).collect(),
        scrapes_ok: closes.iter().all(|close| close.served_ok),
        fleet_day_wall_s,
    })
}

/// `dir/name`, with any journal an earlier repetition left there removed
/// (a journal present at start would be resumed, not re-simulated).
fn fresh_path(dir: &Path, name: &str) -> Result<PathBuf, BoxError> {
    let path = dir.join(name);
    match std::fs::remove_file(&path) {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
        Err(err) => return Err(err.into()),
    }
    Ok(path)
}

/// One `GET /metrics` over one HTTP/1.0 connection; returns the body.
fn scrape_metrics(addr: SocketAddr) -> Result<String, BoxError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    if !response.starts_with("HTTP/1.0 200") {
        return Err(format!("/metrics answered {:?}", response.lines().next()).into());
    }
    let (_, body) = response
        .split_once("\r\n\r\n")
        .ok_or("no body in the /metrics response")?;
    Ok(body.to_string())
}
