//! `fleet-sweep`: `FleetRunner::sweep` over the 3 dynamic-reconfiguration
//! and 5 platoon families × 3 strategies × 1 seed (24 jobs) on `nproc`
//! workers, into a fresh, empty on-disk `ResultCache`. This is the batch
//! path: shard executor, cache writes, MCC renegotiation, platoon/V2V
//! co-simulation and stats aggregation. The families are disjoint from
//! `solo-stepped`'s.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use saav_core::{
    job_key, CacheStats, FleetColumns, FleetOutcome, FleetRunner, FleetStats, GroupBy,
    ResponseStrategy, ResultCache, Scenario, ScenarioFamily,
};
use saav_sim::rng::derive_seed;

use crate::bench::{Pass, Traced, Workload};
use crate::common::{self, median_rep_ns, Ctx};
use crate::digest::Canon;
use crate::spans::Name;

const CONTROL_PERIOD_NS: u64 = 10_000_000;
/// Repetitions of each per-call probe in the traced pass.
const PROBE_REPS: usize = 200;
/// Repetitions of the probes that touch the disk.
const DISK_PROBE_REPS: usize = 25;

pub struct Fleet;

fn families() -> Vec<ScenarioFamily> {
    ScenarioFamily::DYNAMIC
        .into_iter()
        .chain(ScenarioFamily::PLATOON)
        .collect()
}

/// The sweep's jobs exactly as `FleetRunner` seeds them: built with seed
/// 0, then given `derive_seed(master, job_index)`.
fn jobs(seed: u64) -> Vec<Scenario> {
    let mut jobs = Vec::new();
    for family in families() {
        for strategy in ResponseStrategy::ALL {
            let mut s = family.build(strategy, 0);
            s.seed = derive_seed(seed, jobs.len() as u64);
            jobs.push(s);
        }
    }
    jobs
}

fn vehicle_ticks(job: &Scenario) -> u64 {
    let vehicles = job.platoon.as_ref().map_or(1, |p| p.members) as u64;
    job.duration.as_nanos() / CONTROL_PERIOD_NS * vehicles
}

fn canon(outcome: &FleetOutcome) -> Canon {
    let mut c = Canon::new();
    c.fleet(outcome);
    c
}

fn fresh_dir(dir: &Path) -> std::io::Result<ResultCache> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    ResultCache::with_disk(dir)
}

pub struct Setup {
    /// The sweep's jobs, for counting vehicle-ticks and for the cache
    /// probes; the runner builds its own copies inside the sweep.
    jobs: Vec<Scenario>,
    runner: FleetRunner,
    cache: ResultCache,
    dir: CacheDir,
}

/// The sweep's cache directory, removed when the set-up (or the pass that
/// consumed it) ends.
struct CacheDir(PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Fleet {
    fn cache_dir(ctx: &Ctx) -> PathBuf {
        ctx.work_dir
            .join(format!("fleet-cache-{}", std::process::id()))
    }
}

impl Workload for Fleet {
    const NAME: &'static str = "fleet-sweep";
    const RECORDED_DIGEST: u64 = 0x8d05_3063_7f3d_04e6;
    type Setup = Setup;

    fn width(&self, ctx: &Ctx) -> usize {
        ctx.width
    }

    /// Empties the sweep's cache directory. Removing and creating a
    /// directory costs a few tens of µs, as much as the rest of the
    /// set-up, and swings threefold with the file system's journal and
    /// write-back state, so it stays out of `setup_s`; the set-up opens
    /// the cache on the empty directory.
    fn prepare(&self, ctx: &Ctx) {
        fresh_dir(&Fleet::cache_dir(ctx)).expect("the cache directory can be created");
    }

    fn setup(&self, ctx: &Ctx, traced: Option<&mut Traced>) -> Setup {
        let jobs = jobs(ctx.seed);
        let dir = Fleet::cache_dir(ctx);
        let cache = ResultCache::with_disk(&dir).expect("the cache directory exists");
        let mut runner = FleetRunner::new(ctx.seed)
            .with_threads(ctx.width)
            .with_cache(cache.clone());
        if let Some(tr) = traced {
            runner = runner.with_telemetry(tr.sink.clone());
        }
        Setup {
            jobs,
            runner,
            cache,
            dir: CacheDir(dir),
        }
    }

    fn timed(&self, ctx: &Ctx, setup: Setup, mut traced: Option<&mut Traced>) -> Pass {
        let Setup {
            jobs,
            runner,
            cache,
            dir,
        } = setup;
        let dir = &dir.0;
        let families = families();
        let sweep = |r: &FleetRunner| {
            catch_unwind(AssertUnwindSafe(|| {
                r.sweep(&families, &ResponseStrategy::ALL, 1)
            }))
            .ok()
        };
        let mut pass = Pass {
            attempted: jobs.len() as u64,
            ..Pass::default()
        };
        let cpu0 = common::cpu_s();
        let t0 = Instant::now();
        let cold = sweep(&runner);
        pass.wall = t0.elapsed();
        pass.cpu_s = common::cpu_s() - cpu0;
        if let Some(tr) = traced.as_deref_mut() {
            tr.spans
                .record(Name::SweepCold, tr.root, t0, t0 + pass.wall);
        }
        let Some(cold) = cold else {
            // The executor re-raises a job's panic: the batch is lost.
            pass.failed = pass.attempted;
            pass.canon.str("panicked");
            return pass;
        };
        pass.vehicle_ticks = jobs.iter().map(vehicle_ticks).sum();
        pass.canon = canon(&cold);
        let n = jobs.len() as u64;
        pass.check(
            "cold sweep returns one record per job",
            cold.records.len() == jobs.len(),
        );
        let cold_stats = cache.stats();
        pass.check(
            "cold cache: 24 misses, 24 insertions, no hits",
            cold_stats
                == CacheStats {
                    hits: 0,
                    misses: n,
                    disk_hits: 0,
                    insertions: n,
                },
        );

        let w0 = Instant::now();
        let warm = sweep(&runner);
        let w1 = Instant::now();
        pass.check(
            "warm re-sweep equals cold",
            warm.as_ref().is_some_and(|w| canon(w) == pass.canon),
        );
        let warm_stats = cache.stats();
        pass.check(
            "warm cache: 24 hits from memory",
            warm_stats.hits - cold_stats.hits == n && warm_stats.disk_hits == 0,
        );

        let disk_cache = ResultCache::with_disk(dir).expect("the cache directory exists");
        let mut disk_runner = FleetRunner::new(ctx.seed)
            .with_threads(ctx.width)
            .with_cache(disk_cache.clone());
        if let Some(tr) = traced.as_deref() {
            disk_runner = disk_runner.with_telemetry(tr.sink.clone());
        }
        let d0 = Instant::now();
        let disk = sweep(&disk_runner);
        let d1 = Instant::now();
        pass.check(
            "re-sweep through a fresh disk handle equals cold",
            disk.as_ref().is_some_and(|d| canon(d) == pass.canon),
        );
        let disk_stats = disk_cache.stats();
        pass.check(
            "fresh disk handle: 24 hits, all from disk",
            disk_stats
                == CacheStats {
                    hits: n,
                    misses: 0,
                    disk_hits: n,
                    insertions: 0,
                },
        );

        let cols = FleetColumns::from_records(&cold.records);
        let bytes = cols.to_bytes();
        let decoded = FleetColumns::from_bytes(&bytes).ok();
        pass.check(
            "colstore from_bytes(to_bytes) reproduces the records",
            decoded.as_ref().is_some_and(|d| {
                let mut a = Canon::new();
                a.records(&d.to_records());
                let mut b = Canon::new();
                b.records(&cold.records);
                a == b
            }),
        );
        pass.check(
            "colstore stats() equals the sweep's stats",
            decoded.as_ref().is_some_and(|d| {
                let mut a = Canon::new();
                a.stats(&d.stats());
                let mut b = Canon::new();
                b.stats(&cold.stats);
                a == b
            }),
        );
        if pass.checks.iter().any(|(_, ok)| !ok) {
            pass.failed = pass.attempted;
        }

        if let Some(tr) = traced {
            tr.spans.record(Name::SweepWarm, tr.root, w0, w1);
            tr.spans.record(Name::SweepDisk, tr.root, d0, d1);
            tr.layers.set("fleet.cold_sweep_s", pass.wall.as_secs_f64());
            tr.layers
                .set("fleet.warm_sweep_us", (w1 - w0).as_secs_f64() * 1e6);
            tr.layers.set("executor.steals", tr.sink.steals() as f64);
            tr.layers
                .set("cache.hits", (warm_stats.hits + disk_stats.hits) as f64);
            tr.layers.set(
                "cache.misses",
                (warm_stats.misses + disk_stats.misses) as f64,
            );
            tr.layers.set(
                "cache.disk_hits",
                (warm_stats.disk_hits + disk_stats.disk_hits) as f64,
            );
            tr.layers.set(
                "cache.insertions",
                (warm_stats.insertions + disk_stats.insertions) as f64,
            );
            probe_layers(tr, ctx, &jobs, &cold, dir, &cols, &bytes);
        }
        pass
    }
}

/// Per-call costs of the cache, stats and colstore layers, each the
/// median of repeated timings over the sweep's 24 jobs.
fn probe_layers(
    tr: &mut Traced,
    ctx: &Ctx,
    jobs: &[Scenario],
    cold: &FleetOutcome,
    dir: &Path,
    cols: &FleetColumns,
    bytes: &[u8],
) {
    let n = jobs.len() as f64;
    let rows = cold.records.len().max(1) as f64;
    let root = tr.root;
    let spans = &mut tr.spans;
    let keys: Vec<_> = jobs.iter().map(job_key).collect();

    let key_ns = median_rep_ns(PROBE_REPS, spans, Name::CacheKey, root, || {
        for job in jobs {
            std::hint::black_box(job_key(std::hint::black_box(job)));
        }
    }) / n;
    let warm = ResultCache::with_disk(dir).expect("the cache directory exists");
    for &k in &keys {
        warm.get(k);
    }
    let get_ns = median_rep_ns(PROBE_REPS, spans, Name::CacheGet, root, || {
        for &k in &keys {
            std::hint::black_box(warm.get(k));
        }
    }) / n;
    let mut disk_times = Vec::with_capacity(DISK_PROBE_REPS);
    for _ in 0..DISK_PROBE_REPS {
        let handle = ResultCache::with_disk(dir).expect("the cache directory exists");
        disk_times.push(median_rep_ns(1, spans, Name::CacheDiskGet, root, || {
            for &k in &keys {
                std::hint::black_box(handle.get(k));
            }
        }));
    }
    let disk_get_ns = common::median(&disk_times) / n;
    let insert_dir = ctx
        .work_dir
        .join(format!("fleet-insert-{}", std::process::id()));
    let insert_ns = match fresh_dir(&insert_dir) {
        Ok(target) => {
            median_rep_ns(DISK_PROBE_REPS, spans, Name::CacheInsert, root, || {
                for (k, r) in keys.iter().zip(&cold.records) {
                    target.insert(*k, r.summary.clone());
                }
            }) / n
        }
        Err(_) => 0.0,
    };
    let _ = std::fs::remove_dir_all(&insert_dir);
    let entry_bytes: Vec<f64> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len() as f64)
                .collect()
        })
        .unwrap_or_default();

    let stats_us = median_rep_ns(PROBE_REPS, spans, Name::FleetStats, root, || {
        std::hint::black_box(FleetStats::from_records(&cold.records));
    }) / 1e3;
    let encode_ns = median_rep_ns(PROBE_REPS, spans, Name::ColstoreEncode, root, || {
        std::hint::black_box(FleetColumns::from_records(&cold.records).to_bytes());
    }) / rows;
    let decode_ns = median_rep_ns(PROBE_REPS, spans, Name::ColstoreDecode, root, || {
        let cols = FleetColumns::from_bytes(std::hint::black_box(bytes));
        std::hint::black_box(cols.map(|c| c.to_records()).ok());
    }) / rows;
    let col_stats_us = median_rep_ns(PROBE_REPS, spans, Name::ColstoreStats, root, || {
        std::hint::black_box(cols.stats());
    }) / 1e3;
    let pct_us = median_rep_ns(PROBE_REPS, spans, Name::ColstorePercentiles, root, || {
        std::hint::black_box(cols.latency_percentiles(GroupBy::Family));
    }) / 1e3;

    let l = &mut tr.layers;
    l.set("cache.key_ns", key_ns);
    l.set("cache.get_ns", get_ns);
    l.set("cache.disk_get_ns", disk_get_ns);
    l.set("cache.insert_ns", insert_ns);
    l.set(
        "cache.entry_bytes",
        entry_bytes.iter().sum::<f64>() / entry_bytes.len().max(1) as f64,
    );
    l.set("fleet.stats_us", stats_us);
    l.set("colstore.encode_ns_per_row", encode_ns);
    l.set("colstore.decode_ns_per_row", decode_ns);
    l.set("colstore.bytes_per_row", bytes.len() as f64 / rows);
    l.set("colstore.stats_us", col_stats_us);
    l.set("colstore.percentiles_us", pct_us);
    l.detail(
        "fleet_probes",
        format!(
            "{{\"reps\": {PROBE_REPS}, \"disk_reps\": {DISK_PROBE_REPS}, \"calls_per_rep\": {}, \"rows\": {}, \"cache_entries\": {}, \"cache_counts\": \"cold + warm on one handle, then a fresh disk handle\"}}",
            jobs.len(),
            cold.records.len(),
            entry_bytes.len()
        ),
    );
}
