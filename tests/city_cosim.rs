//! End-to-end determinism pins for the city-scale tiered-fidelity engine.
//!
//! The city engine's contract is that focal outcomes are a pure function
//! of `(scenario, seed)`: bit-identical across repeat runs, across
//! [`FleetRunner`] worker-thread counts, and under surrogate-store
//! capacity changes. The legacy single-vehicle and platoon families are
//! pinned the same way so the new engine's scheduling work cannot
//! silently perturb the E1–E13 reproduction.

use proptest::prelude::*;

use saav::core::fleet::FleetRunner;
use saav::core::runner::{self, Run};
use saav::core::scenario::{CitySpec, ResponseStrategy, Scenario, ScenarioEvent, ScenarioFamily};
use saav::core::telemetry::{Counter, Telemetry};
use saav::sim::time::{Duration, Time};
use saav::vehicle::{IdmParams, SurrogateTraffic};

/// A small city batch spanning the interesting corners: no background,
/// dense background, one to three focal stacks, with a scripted intrusion
/// mid-run.
fn city_jobs() -> Vec<Scenario> {
    [(0usize, 2usize), (5, 1), (20, 2), (60, 3)]
        .iter()
        .map(|&(background, focal)| {
            Scenario::builder(format!("city/{background}b{focal}f"))
                .duration(Duration::from_secs(8))
                .at(Time::from_secs(3), ScenarioEvent::CompromiseRearBrake)
                .city(CitySpec::new(background, focal))
                .build()
        })
        .collect()
}

/// City batches are bit-identical regardless of how many fleet workers
/// execute them: the runner owns seeding per job index, and the engine
/// itself shares no state across jobs.
#[test]
fn city_fleet_is_bit_identical_across_thread_counts() {
    let base = FleetRunner::new(0xC17)
        .with_threads(1)
        .run_scenarios(city_jobs());
    assert!(
        base.records.iter().all(|r| r.summary.city.is_some()),
        "every record must carry a city summary"
    );
    assert!(
        base.records
            .iter()
            .any(|r| r.summary.first_detection.is_some()),
        "the scripted intrusion must be detected by some focal vehicle"
    );
    for threads in [2usize, 4, 8] {
        let other = FleetRunner::new(0xC17)
            .with_threads(threads)
            .run_scenarios(city_jobs());
        assert_eq!(
            base, other,
            "{threads}-thread batch diverged from the single-thread batch"
        );
    }
}

/// The legacy experiment families (the E1–E13 substrate) stay bit-identical
/// across worker counts too — the city engine rides the same dispatcher,
/// so this pins that nothing about the new path leaks into the old ones.
#[test]
fn legacy_families_are_bit_identical_across_thread_counts() {
    let jobs = || -> Vec<Scenario> {
        ScenarioFamily::ALL
            .iter()
            .chain(&ScenarioFamily::PLATOON)
            .map(|&family| {
                let mut s = family.build(ResponseStrategy::CrossLayer, 0);
                s.duration = Duration::from_secs(6);
                s
            })
            .collect()
    };
    let single = FleetRunner::new(0xE1).with_threads(1).run_scenarios(jobs());
    let pooled = FleetRunner::new(0xE1).with_threads(4).run_scenarios(jobs());
    assert_eq!(
        single, pooled,
        "legacy family outcomes depend on the fleet thread count"
    );
}

/// A mounted telemetry sink sees the *same* deterministic run content at
/// every intra-run width: trace events and registry snapshot are
/// bit-identical across thread counts and surrogate chunk sizes, with
/// only the scheduling side channels (steal and barrier counters) masked
/// — those describe how the work was carved up, not what the run did.
#[test]
fn mounted_city_traces_are_invariant_to_intra_run_parallelism() {
    let observe = |threads: usize, chunk: usize| {
        let sink = Telemetry::default();
        let s = Scenario::builder("obs/city-par")
            .seed(0xC17)
            .duration(Duration::from_secs(6))
            .at(Time::from_secs(3), ScenarioEvent::CompromiseRearBrake)
            .city(
                CitySpec::new(20, 2)
                    .with_threads(threads)
                    .with_surrogate_chunk(chunk),
            )
            .build();
        Run::with_telemetry(&s, &sink).run_to_end();
        let mut snap = sink.snapshot();
        snap.counters[Counter::ShardSteals as usize] = 0;
        snap.counters[Counter::TickBarriers as usize] = 0;
        (sink.events(), snap)
    };
    let (base_events, base_snap) = observe(1, 1_024);
    assert!(!base_events.is_empty(), "run must record trace events");
    for (threads, chunk) in [(2, 5), (2, 1_024), (3, 16), (4, 1), (4, 7)] {
        let (events, snap) = observe(threads, chunk);
        assert_eq!(
            base_events, events,
            "trace diverged at {threads} threads, chunk {chunk}"
        );
        assert_eq!(
            base_snap, snap,
            "registry diverged at {threads} threads, chunk {chunk}"
        );
    }
}

proptest! {
    /// Running the same city scenario twice gives the same outcome, down
    /// to the last bit of every focal metric — across the whole
    /// (density, focal count, seed) space, not just the curated corners.
    #[test]
    fn city_runs_are_reproducible(
        background in 0usize..16,
        focal in 1usize..3,
        seed in any::<u64>(),
    ) {
        let scenario = |label: &str| {
            Scenario::builder(format!("prop/{label}"))
                .seed(seed)
                .duration(Duration::from_secs(2))
                .city(CitySpec::new(background, focal))
                .build()
        };
        let a = runner::run(scenario("a"));
        let b = runner::run(scenario("b"));
        prop_assert_eq!(a.city.as_ref(), b.city.as_ref());
        prop_assert_eq!(a.summary().city, b.summary().city);
        prop_assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
        prop_assert_eq!(a.first_detection, b.first_detection);
    }

    /// The tentpole contract of the parallel city engine: the outcome is
    /// a pure function of `(scenario, seed)` — any intra-run thread
    /// count, any surrogate chunk size, and repeat runs at the same
    /// width all produce the bit-identical CityOutcome the sequential
    /// engine produces.
    #[test]
    fn city_outcome_is_invariant_to_intra_run_parallelism(
        background in 0usize..24,
        focal in 1usize..4,
        seed in any::<u64>(),
        threads in 2usize..5,
        chunk in 1usize..48,
    ) {
        let scenario = |threads: usize, chunk: usize| {
            Scenario::builder(format!("prop/par-{threads}t{chunk}c"))
                .seed(seed)
                .duration(Duration::from_secs(2))
                .at(Time::from_secs(1), ScenarioEvent::CompromiseRearBrake)
                .city(
                    CitySpec::new(background, focal)
                        .with_threads(threads)
                        .with_surrogate_chunk(chunk),
                )
                .build()
        };
        let base = runner::run(scenario(1, 1_024));
        let par = runner::run(scenario(threads, chunk));
        let repeat = runner::run(scenario(threads, chunk));
        prop_assert_eq!(base.city.as_ref(), par.city.as_ref());
        prop_assert_eq!(base.distance_m.to_bits(), par.distance_m.to_bits());
        prop_assert_eq!(base.min_gap_m.to_bits(), par.min_gap_m.to_bits());
        prop_assert_eq!(base.first_detection, par.first_detection);
        prop_assert_eq!(par.city.as_ref(), repeat.city.as_ref());
        prop_assert_eq!(par.distance_m.to_bits(), repeat.distance_m.to_bits());
    }

    /// The surrogate tier's trajectory is a function of the chain alone:
    /// pre-reserving any capacity (or none) must not change a single bit
    /// of any vehicle's state at any step.
    #[test]
    fn surrogate_trajectory_is_invariant_to_store_capacity(
        n in 1usize..40,
        speed in 0.0f64..30.0,
        gap in 5.0f64..60.0,
        capacity in 0usize..5_000,
        steps in 1usize..150,
    ) {
        let mut lean = SurrogateTraffic::new(IdmParams::default());
        let mut roomy = SurrogateTraffic::with_capacity(IdmParams::default(), capacity);
        for i in 0..n {
            lean.push_vehicle(-(i as f64) * gap, speed);
            roomy.push_vehicle(-(i as f64) * gap, speed);
        }
        let dt = Duration::from_millis(10);
        for step in 0..steps {
            lean.step(dt);
            roomy.step(dt);
            for i in 0..n {
                prop_assert_eq!(
                    lean.position_m(i).to_bits(),
                    roomy.position_m(i).to_bits(),
                    "position diverged at step {} vehicle {}", step, i
                );
                prop_assert_eq!(
                    lean.speed_mps(i).to_bits(),
                    roomy.speed_mps(i).to_bits(),
                    "speed diverged at step {} vehicle {}", step, i
                );
            }
        }
        prop_assert_eq!(lean.min_gap_m().to_bits(), roomy.min_gap_m().to_bits());
        prop_assert_eq!(lean.collision(), roomy.collision());
    }
}
