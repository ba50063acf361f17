//! What runs every workload: the pass schedule, set-up sampling, the
//! untraced and traced passes, the output checks and the metrics.

use std::time::{Duration, Instant};

use saav_core::{Counter, Stage, Telemetry, TelemetryConfig, TelemetrySnapshot};

use crate::common::{
    self, median, tick_percentiles_us, Ctx, Outcome, Schedule, DEFAULT_SEED, SETUP_MIN_SAMPLES,
    SETUP_SHARE,
};
use crate::digest::Canon;
use crate::report::{self, json_str, Report};
use crate::spans::{Name, Spans, ROOT};

/// What one pass measured and produced.
#[derive(Default)]
pub struct Pass {
    /// Host time of the timed phase.
    pub wall: Duration,
    /// Process CPU seconds over the timed phase.
    pub cpu_s: f64,
    /// Vehicle-ticks simulated in the timed phase.
    pub vehicle_ticks: u64,
    /// Host ns per tick sample; freed by [`Pass::summarise_ticks`].
    pub samples: Vec<u32>,
    pub tick_samples: usize,
    /// The pass's tick p50 and p99 in µs.
    pub tick_us: (f64, f64),
    /// The simulated outputs of the pass.
    pub canon: Canon,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks of the pass: `(name, passed)`.
    pub checks: Vec<(String, bool)>,
}

impl Pass {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Reduces the tick samples to the pass's percentiles and frees them,
    /// so the benchmark's own memory does not grow with the number of
    /// passes and inflate `peak_rss_mb`.
    fn summarise_ticks(&mut self) {
        self.tick_samples = self.samples.len();
        self.tick_us = tick_percentiles_us(&mut self.samples);
        self.samples = Vec::new();
    }
}

/// The tracing state of a traced pass: spans in the benchmark's own code,
/// the program's mounted wall-clock telemetry, and the per-layer metrics
/// the workload reads from both.
pub struct Traced {
    pub spans: Spans,
    pub sink: Telemetry,
    /// The pass's root span.
    pub root: u32,
    pub layers: Report,
}

pub trait Workload {
    const NAME: &'static str;
    /// The digest of the default seed's outputs, recorded at the commit
    /// that introduced the benchmark.
    const RECORDED_DIGEST: u64;
    /// What the set-up phase hands to the timed phase.
    type Setup;

    /// The thread width the workload runs at.
    fn width(&self, ctx: &Ctx) -> usize;
    /// Untimed preparation before each set-up: the fixtures on disk that
    /// the set-up opens. Nothing by default.
    fn prepare(&self, _ctx: &Ctx) {}
    /// Everything before the first timed call.
    fn setup(&self, ctx: &Ctx, traced: Option<&mut Traced>) -> Self::Setup;
    /// The timed phase and its output checks.
    fn timed(&self, ctx: &Ctx, setup: Self::Setup, traced: Option<&mut Traced>) -> Pass;
}

/// Runs one workload for the budget and assembles its result.
pub fn drive<W: Workload>(ctx: &Ctx, w: &W) -> Outcome {
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut first_trace: Option<Traced> = None;
    // Mean set-up time of each sampling window, and the set-ups timed.
    let mut setup_means: Vec<f64> = Vec::new();
    let mut setups_timed = 0;
    let mut schedule = Schedule::new(ctx);
    while let Some(trace) = schedule.next() {
        let t0 = Instant::now();
        if trace {
            let mut tr = Traced {
                spans: Spans::new(ctx.seed ^ (traced.len() as u64) << 56, 1 << 20),
                sink: Telemetry::new(TelemetryConfig::wall_profiler()),
                root: 0,
                layers: Report::default(),
            };
            tr.root = tr.spans.open(Name::Workload, ROOT);
            w.prepare(ctx);
            let s = w.setup(ctx, Some(&mut tr));
            let mut pass = w.timed(ctx, s, Some(&mut tr));
            tr.spans.close(tr.root);
            pass.summarise_ticks();
            traced.push(pass);
            first_trace.get_or_insert(tr);
        } else {
            w.prepare(ctx);
            let s = w.setup(ctx, None);
            let mut pass = w.timed(ctx, s, None);
            pass.summarise_ticks();
            if !ctx.trace {
                let (mean, n) = sample_setups(ctx, w, pass.wall.mul_f64(SETUP_SHARE));
                setup_means.push(mean);
                setups_timed += n;
            }
            untraced.push(pass);
        }
        schedule.finished(t0.elapsed());
    }

    let mut report = Report::default();
    let mut correct = true;
    let mut checks: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let reference = untraced[0].canon.digest();
    for (kind, passes) in [("untraced", &untraced), ("traced", &traced)] {
        for (i, p) in passes.iter().enumerate() {
            attempted += p.attempted;
            let mut pass_ok = p.failed == 0;
            for (name, ok) in &p.checks {
                checks.push(format!(
                    "{{\"pass\": \"{kind}{i}\", \"check\": {}, \"ok\": {ok}}}",
                    json_str(name)
                ));
                pass_ok &= ok;
            }
            // Every pass of a run simulates the same inputs, traced or not:
            // telemetry only observes.
            let same = p.canon.digest() == reference;
            checks.push(format!("{{\"pass\": \"{kind}{i}\", \"check\": \"digest equals untraced0\", \"ok\": {same}}}"));
            pass_ok &= same;
            // A failed pass-level check fails every run of the pass.
            failed += if pass_ok { p.failed } else { p.attempted };
            correct &= pass_ok;
        }
    }
    if ctx.seed == DEFAULT_SEED {
        let pinned = reference == W::RECORDED_DIGEST;
        checks.push(format!(
            "{{\"check\": \"default-seed digest equals recorded {:016x}\", \"ok\": {pinned}}}",
            W::RECORDED_DIGEST
        ));
        if !pinned {
            correct = false;
            failed = attempted;
        }
    }
    report.detail("checks", format!("[{}]", checks.join(", ")));
    report.detail_str("digest", &format!("{reference:016x}"));
    report.detail("failed_runs", failed.to_string());
    report.detail("attempted_runs", attempted.to_string());
    report.detail("width", w.width(ctx).to_string());
    report.detail(
        "passes",
        format!(
            "{{\"untraced\": {}, \"traced\": {}}}",
            untraced.len(),
            traced.len()
        ),
    );

    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>());
    if let Some(mut tr) = first_trace {
        let overhead = walls(&traced) / walls(&untraced) - 1.0;
        tr.layers.set("trace.overhead_frac", overhead);
        tr.layers.detail("trace.overhead_bound", "0.05".into());
        let first = &traced[0];
        tr.layers.set(
            "process.cpu_util",
            first.cpu_s / (first.wall.as_secs_f64() * w.width(ctx) as f64),
        );
        telemetry_metrics(&mut tr.layers, &tr.sink.snapshot());
        for (group, ns) in tr.spans.self_ns_by_group() {
            let name = format!("span.{group}.self_ms");
            if report::per_layer().iter().any(|(n, _)| *n == name) {
                tr.layers.set(name, ns as f64 / 1e6);
            }
        }
        let path = ctx
            .work_dir
            .join(format!("spans-{}-seed{}.csv", W::NAME, ctx.seed));
        match tr.spans.write_csv(&path) {
            Ok(()) => tr
                .layers
                .detail_str("spans_file", &path.display().to_string()),
            Err(e) => tr
                .layers
                .detail_str("spans_file", &format!("not written: {e}")),
        }
        tr.layers.detail("spans", tr.spans.len().to_string());
        report.absorb(tr.layers);
    } else {
        let per_pass = |f: fn(&Pass) -> f64| untraced.iter().map(f).collect::<Vec<f64>>();
        let pass_walls = per_pass(|p| p.wall.as_secs_f64());
        let rates = per_pass(|p| p.vehicle_ticks as f64 / p.wall.as_secs_f64());
        let samples: usize = untraced.iter().map(|p| p.tick_samples).sum();
        // Per-pass tick percentiles, for the record only (not gated).
        let pass_ticks = if samples == 0 {
            String::new()
        } else {
            format!(
                ", \"pass_tick_p50_us\": {:?}, \"pass_tick_p99_us\": {:?}",
                per_pass(|p| p.tick_us.0),
                per_pass(|p| p.tick_us.1)
            )
        };
        let ticks: u64 = untraced.iter().map(|p| p.vehicle_ticks).sum();
        report.set("setup_s", median(&setup_means));
        report.set("vehicle_ticks_per_s", median(&rates));
        report.set("peak_rss_mb", common::peak_rss_mb());
        report.set(
            "ok_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );
        report.detail(
            "setup_s",
            format!(
                "{{\"window_mean_s\": {setup_means:?}, \"setups\": {setups_timed}, \"window\": \"{SETUP_SHARE} of each untraced pass, right after it\", \"statistic\": \"median of window means\"}}"
            ),
        );
        report.detail(
            "samples",
            format!(
                "{{\"setup_s\": {setups_timed}, \"tick\": {samples}, \"passes\": {}, \"vehicle_ticks\": {ticks}, \"pass_wall_s\": {pass_walls:?}{}, \"vehicle_ticks_per_s\": \"median of per-pass rates\"}}",
                untraced.len(),
                pass_ticks,
            ),
        );
        report.detail_str(
            "ok_frac_base",
            &format!("{} ok of {attempted} attempted", attempted - failed),
        );
    }
    Outcome {
        report,
        correct,
        attempted,
        failed,
    }
}

/// Times whole set-ups, each prepared untimed and dropped before the
/// next, for at least `window` and at least [`SETUP_MIN_SAMPLES`] of them.
/// Returns their mean time in seconds and their number.
fn sample_setups<W: Workload>(ctx: &Ctx, w: &W, window: Duration) -> (f64, usize) {
    let start = Instant::now();
    let mut total = Duration::ZERO;
    let mut n = 0;
    while n < SETUP_MIN_SAMPLES || start.elapsed() < window {
        w.prepare(ctx);
        let t0 = Instant::now();
        let s = w.setup(ctx, None);
        total += t0.elapsed();
        drop(s);
        n += 1;
    }
    (total.as_secs_f64() / n as f64, n)
}

/// The per-layer metrics read from the mounted telemetry snapshot.
fn telemetry_metrics(r: &mut Report, snap: &TelemetrySnapshot) {
    let per_call = |stage: Stage| {
        let calls = snap.stage_calls_of(stage);
        if calls == 0 {
            0.0
        } else {
            snap.stage_nanos_of(stage) as f64 / calls as f64
        }
    };
    let ratio = |num: u64, base: u64| {
        if base == 0 {
            0.0
        } else {
            num as f64 / base as f64
        }
    };
    let c = |counter: Counter| snap.counter(counter);
    r.set("monitor.ns_per_call", per_call(Stage::Monitor));
    r.set(
        "monitor.tick_share",
        ratio(
            snap.stage_nanos_of(Stage::Monitor),
            snap.stage_nanos_of(Stage::Runner),
        ),
    );
    r.set(
        "monitor.anomalies_raised",
        c(Counter::AnomaliesRaised) as f64,
    );
    r.set(
        "coordinator.escalations_routed",
        c(Counter::EscalationsRouted) as f64,
    );
    r.set(
        "coordinator.resolved_ratio",
        ratio(
            c(Counter::EscalationsResolved),
            c(Counter::EscalationsRouted),
        ),
    );
    r.set("rte.deadline_misses", c(Counter::DeadlineMisses) as f64);
    r.set("mcc.switches_admitted", c(Counter::ContractSwitches) as f64);
    r.set(
        "mcc.switches_rejected",
        c(Counter::ContractSwitchesRejected) as f64,
    );
    r.set(
        "mcc.switches_rolled_back",
        c(Counter::ContractSwitchesRolledBack) as f64,
    );
    r.set("platoon.ns_per_round", per_call(Stage::Platoon));
    r.set("platoon.ejections", c(Counter::PlatoonEjections) as f64);
    r.set("can.v2v_sent", c(Counter::V2vSent) as f64);
    r.set("can.v2v_dropped", c(Counter::V2vDropped) as f64);
    r.set("can.v2v_delayed", c(Counter::V2vDelayed) as f64);
    r.detail(
        "telemetry",
        format!(
            "{{\"stage_calls\": {{\"runner\": {}, \"monitor\": {}, \"platoon\": {}, \"surrogate\": {}}}, \"bases\": {{\"monitor.tick_share\": \"monitor ns / runner ns\", \"coordinator.resolved_ratio\": \"{} resolved / {} routed\"}}, \"events_recorded\": {}, \"events_evicted\": {}}}",
            snap.stage_calls_of(Stage::Runner),
            snap.stage_calls_of(Stage::Monitor),
            snap.stage_calls_of(Stage::Platoon),
            snap.stage_calls_of(Stage::Surrogate),
            c(Counter::EscalationsResolved),
            c(Counter::EscalationsRouted),
            snap.events_recorded,
            snap.events_evicted,
        ),
    );
}
