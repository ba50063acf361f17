//! What every workload shares: the run settings, the pass schedule, the
//! timed tick loop, percentiles and the process readings from `/proc`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::report::Report;
use crate::spans::{Name, Spans};

/// The seed whose digests are pinned in each workload.
pub const DEFAULT_SEED: u64 = 1;

/// Share of each untraced pass's wall time spent right after it timing
/// set-ups for `setup_s`; each such window yields the mean of its set-ups,
/// and `setup_s` is the median over the run's windows, as
/// `vehicle_ticks_per_s` is over its passes. On a shared host a set-up
/// runs about 1.5 times slower while a neighbour loads the core, so single
/// set-up times fall into two clusters, and a median over them jumps from
/// one to the other as that load crosses half the time; a window's mean
/// moves in proportion to the load, as a pass's rate does. Windows after
/// every pass spread over the whole run, and they run on the warm
/// allocator the pass left, so the process's first allocations (about
/// twice as slow) stay out of the figure.
pub const SETUP_SHARE: f64 = 0.05;

/// The fewest set-ups timed after a pass, however short its window.
pub const SETUP_MIN_SAMPLES: usize = 5;

/// The settings of one benchmark run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Thread width of the parallel layers (fleet workers, city pool).
    pub width: usize,
    /// Directory for the benchmark's own files (cache store, spans).
    pub work_dir: PathBuf,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub report: Report,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Decides how many passes fit in the run: at least one (one of each kind
/// when traced), then another only while it is expected to end within
/// the budget. Traced runs alternate untraced and traced passes so the
/// two are measured under the same conditions.
pub struct Schedule {
    start: Instant,
    budget: Duration,
    longest: Duration,
    done: usize,
    trace: bool,
}

impl Schedule {
    pub fn new(ctx: &Ctx) -> Self {
        Schedule {
            start: Instant::now(),
            budget: Duration::from_secs_f64(ctx.seconds),
            longest: Duration::ZERO,
            done: 0,
            trace: ctx.trace,
        }
    }

    /// `Some(traced)` for the next pass, or `None` when the run is over.
    pub fn next(&mut self) -> Option<bool> {
        let minimum = if self.trace { 2 } else { 1 };
        if self.done >= minimum && self.start.elapsed() + self.longest > self.budget {
            return None;
        }
        Some(self.trace && self.done % 2 == 1)
    }

    /// Records how long the pass just run took.
    pub fn finished(&mut self, took: Duration) {
        self.longest = self.longest.max(took);
        self.done += 1;
    }
}

/// Steps a run to its end, appending each tick's host time (ns) to
/// `samples`. With `spans`, each tick is also recorded as a span under
/// `parent`. Returns the number of ticks.
pub fn tick_loop<R>(
    run: &mut R,
    done: fn(&R) -> bool,
    tick: fn(&mut R),
    samples: &mut Vec<u32>,
    mut spans: Option<(&mut Spans, u32)>,
) -> u64 {
    let mut ticks = 0;
    let mut t0 = Instant::now();
    while !done(run) {
        tick(run);
        let t1 = Instant::now();
        samples.push(u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX));
        if let Some((spans, parent)) = spans.as_mut() {
            spans.record(Name::Tick, *parent, t0, t1);
        }
        t0 = t1;
        ticks += 1;
    }
    ticks
}

/// The 1-based rank of percentile `p` (0..=1) among `n` samples: the
/// first sample with more than `p * n` samples at or below it.
///
/// Where `p * n` is whole this is one rank above the nearest-rank
/// convention. That matters for `city-dense`: its 1 Hz tier pass makes
/// exactly 1% of ticks slow, so with nearest rank the p99 sits on the
/// boundary between the two kinds of tick and reads the single slowest
/// ordinary tick, a preemption outlier; one rank up it reads the fastest
/// tier-pass tick. The slack keeps a product that is whole in exact
/// arithmetic whole in floating point.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 + 1e-9).floor() as usize + 1).clamp(1, n.max(1))
}

/// Percentile (`p` in 0..=1) of sorted samples, by [`rank`].
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1].into()
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of p99.99 / p99.9 / p99 / p90 / p50 that has at least ten
/// samples beyond it: `(percent, value)`.
pub fn tail<T: Copy + Into<f64>>(sorted: &[T]) -> (f64, f64) {
    let n = sorted.len();
    for pct in [99.99, 99.9, 99.0, 90.0] {
        if n >= rank(n, pct / 100.0) + 10 {
            return (pct, percentile(sorted, pct / 100.0));
        }
    }
    (50.0, percentile(sorted, 0.5))
}

/// Times `reps` repetitions of `op` and returns the median repetition in
/// ns, recording each repetition as a span under `parent`.
pub fn median_rep_ns(
    reps: usize,
    spans: &mut Spans,
    name: Name,
    parent: u32,
    mut op: impl FnMut(),
) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        op();
        let t1 = Instant::now();
        spans.record(name, parent, t0, t1);
        times.push((t1 - t0).as_nanos() as f64);
    }
    median(&times)
}

/// The process's resident-memory high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process, all threads included
/// (`/proc/self/stat`, in 1/100 s ticks).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Sets a layer's tick metrics from its tick samples (ns): p50, p99, the
/// highest percentile with ten samples beyond it, and the sample count.
pub fn tick_layer_metrics(layers: &mut Report, layer: &str, samples: &[u32]) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let (pct, value) = tail(&sorted);
    layers.set(
        format!("{layer}.tick_p50_us"),
        percentile(&sorted, 0.5) / 1e3,
    );
    layers.set(
        format!("{layer}.tick_p99_us"),
        percentile(&sorted, 0.99) / 1e3,
    );
    layers.set(format!("{layer}.tick_tail_us"), value / 1e3);
    layers.set(format!("{layer}.tick_tail_pct"), pct);
    layers.set(format!("{layer}.tick_samples"), sorted.len() as f64);
}

/// Sorts tick samples and reports the pass's tick percentiles in µs.
pub fn tick_percentiles_us(samples: &mut [u32]) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile(samples, 0.5) / 1e3,
        percentile(samples, 0.99) / 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_rank_above_whole_products() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.985), 99.0);
        // 1% slow ticks: the p99 reads the fastest of them.
        let mut ticks = vec![400u32; 9_900];
        ticks.extend((0..100).map(|i| 1_000 + i));
        assert_eq!(percentile(&ticks, 0.99), 1_000.0);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1_000).collect();
        assert_eq!(tail(&v), (90.0, 901.0));
        let v: Vec<u32> = (1..=1_100).collect();
        assert_eq!(tail(&v), (99.0, 1_090.0));
        let v: Vec<u32> = (1..=100_000).collect();
        assert_eq!(tail(&v), (99.9, 99_901.0));
        let v: Vec<u32> = (1..=200_000).collect();
        assert_eq!(tail(&v), (99.99, 199_981.0));
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_s() >= 0.0);
    }
}
