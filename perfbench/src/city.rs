//! `city-dense`: one `CityRun` of 49,984 surrogate and 16 focal vehicles
//! over 120 s (12,000 ticks) at intra-run width `nproc`, with the chain
//! front following the `stop-and-go` family's scripted lead. This is the
//! city engine: the surrogate IDM store (~2 MB of lanes), `TickPool`
//! barriers and cluster-parallel focal stepping. The RTE backlog, the
//! executor, the cache and the platoon do no work here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use saav_core::{CityRun, CitySpec, ResponseStrategy, Scenario, ScenarioFamily};
use saav_core::{Counter, Stage};
use saav_sim::time::Duration;

use crate::bench::{Pass, Traced, Workload};
use crate::common::{self, tick_loop, Ctx};
use crate::spans::Name;

const BACKGROUND: usize = 49_984;
const FOCAL: usize = 16;
const HORIZON_S: u64 = 120;
const TICKS: u64 = HORIZON_S * 100;

pub struct City;

fn scenario(ctx: &Ctx) -> Scenario {
    let mut s = ScenarioFamily::StopAndGo.build(ResponseStrategy::CrossLayer, ctx.seed);
    s.label = "city-dense".into();
    s.duration = Duration::from_secs(HORIZON_S);
    s.city = Some(CitySpec::new(BACKGROUND, FOCAL).with_threads(ctx.width));
    s
}

impl Workload for City {
    const NAME: &'static str = "city-dense";
    const RECORDED_DIGEST: u64 = 0x747a_0b40_450d_6a4e;
    type Setup = CityRun;

    fn width(&self, ctx: &Ctx) -> usize {
        ctx.width
    }

    fn setup(&self, ctx: &Ctx, traced: Option<&mut Traced>) -> CityRun {
        let t0 = Instant::now();
        let s = scenario(ctx);
        let t1 = Instant::now();
        match traced {
            Some(tr) => {
                let run = CityRun::with_telemetry(&s, &tr.sink);
                tr.spans.record(Name::ScenarioBuild, tr.root, t0, t1);
                tr.spans.record(Name::CityNew, tr.root, t1, Instant::now());
                run
            }
            None => CityRun::new(&s),
        }
    }

    fn timed(&self, _ctx: &Ctx, mut run: CityRun, mut traced: Option<&mut Traced>) -> Pass {
        let mut pass = Pass {
            samples: Vec::with_capacity(TICKS as usize),
            attempted: 1,
            ..Pass::default()
        };
        let cpu0 = common::cpu_s();
        let t0 = Instant::now();
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
                CityRun::done,
                CityRun::tick,
                &mut pass.samples,
                spans,
            );
            let f0 = Instant::now();
            let out = run.finish();
            if let (Some(tr), Some(span)) = (traced.as_deref_mut(), run_span) {
                tr.spans.record(Name::CityFinish, span, f0, Instant::now());
            }
            (ticks, out)
        }));
        if let (Some(tr), Some(span)) = (traced.as_deref_mut(), run_span) {
            tr.spans.close(span);
        }
        pass.wall = t0.elapsed();
        pass.cpu_s = common::cpu_s() - cpu0;
        let (ticks, out) = match stepped {
            Ok(done) => done,
            Err(_) => {
                pass.failed = 1;
                pass.canon.str("panicked");
                return pass;
            }
        };
        let Some(c) = out.city.as_ref() else {
            pass.failed = 1;
            pass.check("the outcome carries city statistics", false);
            return pass;
        };
        pass.canon.u64(ticks);
        pass.canon.city(c);
        pass.canon.summary(&out.summary());
        let vehicle_ticks = c.surrogate_vehicle_ticks + c.full_vehicle_ticks;
        pass.vehicle_ticks = vehicle_ticks;
        let tiers_ok = vehicle_ticks == c.vehicles as u64 * c.ticks;
        let ticks_ok = c.ticks == TICKS && ticks == TICKS;
        let size_ok = c.vehicles == BACKGROUND + FOCAL && c.focal == FOCAL;
        pass.check("surrogate + full-tier ticks = vehicles x ticks", tiers_ok);
        pass.check("ticks = horizon / 10 ms", ticks_ok);
        pass.check("chain holds 49,984 surrogate + 16 focal vehicles", size_ok);
        if !(tiers_ok && ticks_ok && size_ok) {
            pass.failed = 1;
        }
        if let Some(tr) = traced {
            let snap = tr.sink.snapshot();
            let (news, new_ns) = tr.spans.totals(Name::CityNew);
            tr.layers
                .set("city.new_ms", new_ns as f64 / news.max(1) as f64 / 1e6);
            let tick_ns: u64 = pass.samples.iter().map(|&s| s as u64).sum();
            tr.layers.set(
                "city.tick_mean_us",
                tick_ns as f64 / ticks.max(1) as f64 / 1e3,
            );
            common::tick_layer_metrics(&mut tr.layers, "city", &pass.samples);
            let runner_calls = snap.stage_calls_of(Stage::Runner).max(1);
            tr.layers.set(
                "city.focal_ns_per_vehicle_tick",
                snap.stage_nanos_of(Stage::Runner) as f64 / runner_calls as f64,
            );
            tr.layers.set(
                "city.full_tier_share",
                c.full_vehicle_ticks as f64 / (c.vehicles as u64 * c.ticks).max(1) as f64,
            );
            tr.layers.set("city.promotions", c.promotions as f64);
            tr.layers.set("city.demotions", c.demotions as f64);
            tr.layers.set("city.max_full_tier", c.max_full_tier as f64);
            tr.layers.set(
                "surrogate.ns_per_vehicle_tick",
                snap.stage_nanos_of(Stage::Surrogate) as f64
                    / c.surrogate_vehicle_ticks.max(1) as f64,
            );
            tr.layers.set(
                "pool.barriers_per_tick",
                snap.counter(Counter::TickBarriers) as f64 / ticks.max(1) as f64,
            );
            tr.layers.detail(
                "city_bases",
                format!(
                    "{{\"city.full_tier_share\": \"{} full-tier of {} vehicle-ticks\", \"surrogate.ns_per_vehicle_tick\": \"per {} surrogate vehicle-ticks\", \"city.focal_ns_per_vehicle_tick\": \"per {} full-tier vehicle-ticks\", \"pool.barriers_per_tick\": \"per {} ticks\"}}",
                    c.full_vehicle_ticks,
                    vehicle_ticks,
                    c.surrogate_vehicle_ticks,
                    runner_calls,
                    ticks
                ),
            );
        }
        pass
    }
}
