//! Criterion benches for the cross-layer core (E10 mechanism cost): the
//! coordinator's resolution loop and a short closed-loop assembly run.

use criterion::{criterion_group, criterion_main, Criterion};

use saav_bench::exp_propagation::campaign;
use saav_core::coordinator::EscalationPolicy;
use saav_core::runner;
use saav_core::scenario::Scenario;
use saav_sim::time::Duration;

fn bench_campaign(c: &mut Criterion) {
    c.bench_function("cross_layer/100_problem_campaign", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            campaign(EscalationPolicy::LocalFirst, 100, seed)
        })
    });
}

fn bench_assembly_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("cross_layer/assembly_10s");
    group.sample_size(10);
    group.bench_function("baseline", |b| {
        b.iter(|| {
            let scenario = Scenario::builder("bench")
                .seed(1)
                .duration(Duration::from_secs(10))
                .build();
            runner::run(scenario)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_campaign, bench_assembly_step);
criterion_main!(benches);
