//! `solo-stepped`: the 9 legacy single-vehicle families × 3 strategies
//! (27 runs, 378,000 ticks), each stepped tick by tick through
//! `SteppedRun` on one thread. This is the per-vehicle stack (hw, rte,
//! can, monitor, coordinator, skills) with no executor, cache or city:
//! nominal cells set the tick median, the degraded single-layer `thermal`
//! and `thermal+fog` cells set the tail through the RTE backlog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use saav_core::runner::SteppedRun;
use saav_core::{ResponseStrategy, Scenario, ScenarioFamily};
use saav_sim::rng::derive_seed;

use crate::bench::{Pass, Traced, Workload};
use crate::common::{self, tick_loop, Ctx};
use crate::report::cell_metric;
use crate::spans::Name;

const CONTROL_PERIOD_NS: u64 = 10_000_000;

pub struct Solo;

/// One cell's run, readied but not yet stepped.
pub struct Cell {
    family: ScenarioFamily,
    strategy: ResponseStrategy,
    label: String,
    expected_ticks: u64,
    run: SteppedRun,
}

impl Workload for Solo {
    const NAME: &'static str = "solo-stepped";
    const RECORDED_DIGEST: u64 = 0x8be5_a687_074d_ede2;
    type Setup = Vec<Cell>;

    fn width(&self, _ctx: &Ctx) -> usize {
        1
    }

    fn setup(&self, ctx: &Ctx, mut traced: Option<&mut Traced>) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(27);
        let mut i = 0;
        for family in ScenarioFamily::ALL {
            for strategy in ResponseStrategy::ALL {
                let t0 = Instant::now();
                let scenario: Scenario = family.build(strategy, derive_seed(ctx.seed, i));
                let t1 = Instant::now();
                let run = match traced.as_deref_mut() {
                    Some(tr) => SteppedRun::with_telemetry(&scenario, &tr.sink),
                    None => SteppedRun::new(&scenario),
                };
                if let Some(tr) = traced.as_deref_mut() {
                    let t2 = Instant::now();
                    tr.spans.record(Name::ScenarioBuild, tr.root, t0, t1);
                    tr.spans.record(Name::RunnerNew, tr.root, t1, t2);
                }
                cells.push(Cell {
                    family,
                    strategy,
                    label: scenario.label.clone(),
                    expected_ticks: scenario.duration.as_nanos() / CONTROL_PERIOD_NS,
                    run,
                });
                i += 1;
            }
        }
        cells
    }

    fn timed(&self, _ctx: &Ctx, cells: Vec<Cell>, mut traced: Option<&mut Traced>) -> Pass {
        let mut pass = Pass {
            samples: Vec::with_capacity(400_000),
            ..Pass::default()
        };
        let mut cell_ns: Vec<(String, u64, u64)> = Vec::new();
        let cpu0 = common::cpu_s();
        let t0 = Instant::now();
        for cell in cells {
            pass.attempted += 1;
            let Cell {
                family,
                strategy,
                label,
                expected_ticks,
                mut run,
            } = cell;
            let first_sample = pass.samples.len();
            let run_span = traced
                .as_deref_mut()
                .map(|tr| tr.spans.open(Name::Run, tr.root));
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                let spans = traced
                    .as_deref_mut()
                    .zip(run_span)
                    .map(|(tr, span)| (&mut tr.spans, span));
                let ticks = tick_loop(
                    &mut run,
                    SteppedRun::done,
                    SteppedRun::tick,
                    &mut pass.samples,
                    spans,
                );
                let f0 = Instant::now();
                let out = run.finish();
                if let (Some(tr), Some(span)) = (traced.as_deref_mut(), run_span) {
                    tr.spans
                        .record(Name::RunnerFinish, span, f0, Instant::now());
                }
                (ticks, out.summary())
            }));
            if let (Some(tr), Some(span)) = (traced.as_deref_mut(), run_span) {
                tr.spans.close(span);
            }
            pass.canon.str(&label);
            match stepped {
                Ok((ticks, summary)) => {
                    pass.vehicle_ticks += ticks;
                    pass.canon.u64(ticks);
                    pass.canon.summary(&summary);
                    let whole = ticks == expected_ticks;
                    if !whole {
                        pass.failed += 1;
                        pass.check(&format!("{label}: {ticks} ticks = duration / 10 ms"), false);
                    }
                }
                Err(_) => {
                    pass.failed += 1;
                    pass.canon.str("panicked");
                }
            }
            let ns: u64 = pass.samples[first_sample..].iter().map(|&s| s as u64).sum();
            let n = (pass.samples.len() - first_sample) as u64;
            cell_ns.push((cell_metric(family, strategy), ns, n));
        }
        pass.wall = t0.elapsed();
        pass.cpu_s = common::cpu_s() - cpu0;
        pass.check(
            "every run's tick count equals its duration / 10 ms",
            pass.failed == 0,
        );
        if let Some(tr) = traced {
            for (name, ns, n) in cell_ns {
                tr.layers
                    .set(name, if n == 0 { 0.0 } else { ns as f64 / n as f64 });
            }
            let mean_us = |name: Name| {
                let (n, ns) = tr.spans.totals(name);
                if n == 0 {
                    0.0
                } else {
                    ns as f64 / n as f64 / 1e3
                }
            };
            tr.layers
                .set("scenario.build_us", mean_us(Name::ScenarioBuild));
            tr.layers.set("runner.new_us", mean_us(Name::RunnerNew));
            tr.layers
                .set("runner.finish_us", mean_us(Name::RunnerFinish));
            common::tick_layer_metrics(&mut tr.layers, "runner", &pass.samples);
        }
        pass
    }
}
