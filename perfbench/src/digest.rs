//! Canonical byte encoding of simulated outputs, and its digest.
//!
//! Only simulated fields are encoded: every [`Summary`], [`CityOutcome`]
//! and [`FleetStats`] field, with `f64` values written as their bit
//! patterns. Host-dependent values (wall times, executor steals, tick
//! barriers, trace-ring evictions, the telemetry snapshot) are never part
//! of it, so two runs agree exactly when their simulations agree exactly.

use saav_core::fleet::{LatencyStats, StrategyStats};
use saav_core::{
    CityOutcome, CitySummary, FleetOutcome, FleetRecord, FleetStats, PlatoonSummary,
    ResponseStrategy, Summary,
};
use saav_sim::time::Time;
use saav_skills::decision::DrivingMode;

/// An append-only canonical encoding of simulated values.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Canon {
    bytes: Vec<u8>,
}

impl Canon {
    pub fn new() -> Self {
        Canon::default()
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.bytes.push(v as u8);
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
    }

    pub fn time(&mut self, t: Time) {
        self.u64(t.as_nanos());
    }

    fn opt<T>(&mut self, v: Option<T>, mut some: impl FnMut(&mut Self, T)) {
        match v {
            None => self.bool(false),
            Some(v) => {
                self.bool(true);
                some(self, v);
            }
        }
    }

    pub fn opt_time(&mut self, t: Option<Time>) {
        self.opt(t, Canon::time);
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.opt(v, Canon::f64);
    }

    pub fn strategy(&mut self, s: ResponseStrategy) {
        self.bytes.push(match s {
            ResponseStrategy::SingleLayer => 0,
            ResponseStrategy::CrossLayer => 1,
            ResponseStrategy::ObjectiveStop => 2,
        });
    }

    pub fn mode(&mut self, m: DrivingMode) {
        match m {
            DrivingMode::Normal => self.bytes.push(0),
            DrivingMode::Reduced { speed_cap_mps } => {
                self.bytes.push(1);
                self.f64(speed_cap_mps);
            }
            DrivingMode::SafeStop => self.bytes.push(2),
        }
    }

    pub fn summary(&mut self, s: &Summary) {
        self.str(&s.label);
        self.bool(s.collision);
        self.f64(s.distance_m);
        self.f64(s.min_ttc_s);
        self.opt_time(s.first_detection);
        self.opt_time(s.first_model_deviation);
        self.opt_time(s.mitigated_at);
        self.mode(s.final_mode);
        self.opt(s.platoon.as_ref(), Canon::platoon);
        self.opt(s.city.as_ref(), Canon::city_summary);
    }

    fn platoon(&mut self, p: &PlatoonSummary) {
        self.usize(p.members);
        self.usize(p.member_collisions);
        self.opt_time(p.converged_at);
        self.opt_time(p.first_ejection);
        self.usize(p.ejected.len());
        for &m in &p.ejected {
            self.usize(m);
        }
        self.opt_f64(p.final_agreed_mps);
    }

    fn city_summary(&mut self, c: &CitySummary) {
        self.usize(c.vehicles);
        self.usize(c.focal);
        self.u64(c.promotions);
        self.u64(c.demotions);
        self.usize(c.focal_collisions);
        self.opt_time(c.first_focal_detection);
    }

    pub fn city(&mut self, c: &CityOutcome) {
        self.usize(c.vehicles);
        self.usize(c.focal);
        self.u64(c.ticks);
        self.u64(c.surrogate_vehicle_ticks);
        self.u64(c.full_vehicle_ticks);
        self.u64(c.promotions);
        self.u64(c.demotions);
        self.usize(c.max_full_tier);
        self.f64(c.chain_min_gap_m);
        self.bool(c.chain_collision);
        self.usize(c.focal_first_detection.len());
        for &t in &c.focal_first_detection {
            self.opt_time(t);
        }
        self.usize(c.focal_collisions.len());
        for &b in &c.focal_collisions {
            self.bool(b);
        }
    }

    pub fn record(&mut self, r: &FleetRecord) {
        self.strategy(r.strategy);
        self.u64(r.seed);
        self.opt_time(r.injected_at);
        self.summary(&r.summary);
    }

    pub fn records(&mut self, records: &[FleetRecord]) {
        self.usize(records.len());
        for r in records {
            self.record(r);
        }
    }

    fn latency(&mut self, l: &LatencyStats) {
        self.usize(l.detected);
        self.f64(l.mean_s);
        self.f64(l.p50_s);
        self.f64(l.p95_s);
    }

    fn strategy_stats(&mut self, s: &StrategyStats) {
        self.strategy(s.strategy);
        self.usize(s.runs);
        self.f64(s.collision_rate);
        self.f64(s.mean_distance_m);
        self.f64(s.availability);
    }

    /// Every simulated aggregate; the `telemetry` snapshot is host
    /// observation, not simulation, and is left out.
    pub fn stats(&mut self, s: &FleetStats) {
        self.usize(s.runs);
        self.usize(s.collisions);
        self.f64(s.collision_rate);
        self.latency(&s.detection);
        self.latency(&s.model_detection);
        self.usize(s.peer_collisions);
        self.usize(s.ejections);
        self.usize(s.per_strategy.len());
        for p in &s.per_strategy {
            self.strategy_stats(p);
        }
    }

    pub fn fleet(&mut self, o: &FleetOutcome) {
        self.records(&o.records);
        self.stats(&o.stats);
    }

    /// FNV-1a over the encoded bytes: a short, stable fingerprint to
    /// print and to pin.
    pub fn digest(&self) -> u64 {
        self.bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saav_core::fleet::StrategyStats;
    use std::sync::Arc;

    fn summary() -> Summary {
        Summary {
            label: "thermal/CrossLayer".into(),
            collision: false,
            distance_m: 2_500.25,
            min_ttc_s: 4.5,
            first_detection: Some(Time::from_secs(12)),
            first_model_deviation: None,
            mitigated_at: Some(Time::from_secs(13)),
            final_mode: DrivingMode::Reduced {
                speed_cap_mps: 15.0,
            },
            platoon: Some(PlatoonSummary {
                members: 5,
                member_collisions: 0,
                converged_at: Some(Time::from_secs(3)),
                first_ejection: Some(Time::from_secs(9)),
                ejected: vec![2],
                final_agreed_mps: Some(21.5),
            }),
            city: Some(CitySummary {
                vehicles: 100,
                focal: 4,
                promotions: 7,
                demotions: 1,
                focal_collisions: 0,
                first_focal_detection: Some(Time::from_secs(30)),
            }),
        }
    }

    fn city() -> CityOutcome {
        CityOutcome {
            vehicles: 100,
            focal: 4,
            ticks: 12_000,
            surrogate_vehicle_ticks: 1_100_000,
            full_vehicle_ticks: 100_000,
            promotions: 7,
            demotions: 1,
            max_full_tier: 9,
            chain_min_gap_m: 8.75,
            chain_collision: false,
            focal_first_detection: vec![None, Some(Time::from_secs(40))],
            focal_collisions: vec![false, false],
        }
    }

    fn stats() -> FleetStats {
        let latency = LatencyStats {
            detected: 3,
            mean_s: 1.5,
            p50_s: 1.25,
            p95_s: 2.75,
        };
        FleetStats {
            runs: 24,
            collisions: 1,
            collision_rate: 1.0 / 24.0,
            detection: latency.clone(),
            model_detection: latency,
            peer_collisions: 2,
            ejections: 3,
            per_strategy: vec![StrategyStats {
                strategy: ResponseStrategy::CrossLayer,
                runs: 8,
                collision_rate: 0.125,
                mean_distance_m: 1_800.5,
                availability: 0.875,
            }],
            telemetry: None,
        }
    }

    fn digest_of(f: impl FnOnce(&mut Canon)) -> u64 {
        let mut c = Canon::new();
        f(&mut c);
        c.digest()
    }

    /// A field name and an edit that changes only that field.
    type Perturbation<T> = (&'static str, fn(&mut T));

    /// Applies each perturbation to a fresh copy of `base` and asserts
    /// that every one moves the digest away from the base digest.
    fn assert_each_field_moves<T: Clone>(
        base: &T,
        encode: fn(&mut Canon, &T),
        perturbations: &[Perturbation<T>],
    ) {
        let reference = digest_of(|c| encode(c, base));
        for (field, perturb) in perturbations {
            let mut changed = base.clone();
            perturb(&mut changed);
            assert_ne!(
                digest_of(|c| encode(c, &changed)),
                reference,
                "perturbing `{field}` left the digest unchanged"
            );
        }
    }

    #[test]
    fn every_summary_field_moves_the_digest() {
        assert_each_field_moves(
            &summary(),
            Canon::summary,
            &[
                ("label", |s| s.label.push('x')),
                ("collision", |s| s.collision = true),
                ("distance_m", |s| {
                    s.distance_m = f64::from_bits(s.distance_m.to_bits() + 1)
                }),
                ("min_ttc_s", |s| s.min_ttc_s = -s.min_ttc_s),
                ("first_detection", |s| s.first_detection = None),
                ("first_model_deviation", |s| {
                    s.first_model_deviation = Some(Time::ZERO)
                }),
                ("mitigated_at", |s| {
                    s.mitigated_at = Some(Time::from_nanos(1))
                }),
                ("final_mode.kind", |s| s.final_mode = DrivingMode::SafeStop),
                ("final_mode.cap", |s| {
                    s.final_mode = DrivingMode::Reduced {
                        speed_cap_mps: 15.5,
                    }
                }),
                ("platoon", |s| s.platoon = None),
                ("platoon.members", |s| {
                    s.platoon.as_mut().unwrap().members += 1
                }),
                ("platoon.member_collisions", |s| {
                    s.platoon.as_mut().unwrap().member_collisions += 1
                }),
                ("platoon.converged_at", |s| {
                    s.platoon.as_mut().unwrap().converged_at = None
                }),
                ("platoon.first_ejection", |s| {
                    s.platoon.as_mut().unwrap().first_ejection = Some(Time::from_secs(10))
                }),
                ("platoon.ejected", |s| {
                    s.platoon.as_mut().unwrap().ejected.push(4)
                }),
                ("platoon.final_agreed_mps", |s| {
                    s.platoon.as_mut().unwrap().final_agreed_mps = Some(21.0)
                }),
                ("city", |s| s.city = None),
                ("city.vehicles", |s| s.city.as_mut().unwrap().vehicles += 1),
                ("city.focal", |s| s.city.as_mut().unwrap().focal += 1),
                ("city.promotions", |s| {
                    s.city.as_mut().unwrap().promotions += 1
                }),
                ("city.demotions", |s| {
                    s.city.as_mut().unwrap().demotions += 1
                }),
                ("city.focal_collisions", |s| {
                    s.city.as_mut().unwrap().focal_collisions += 1
                }),
                ("city.first_focal_detection", |s| {
                    s.city.as_mut().unwrap().first_focal_detection = None
                }),
            ],
        );
    }

    #[test]
    fn every_city_outcome_field_moves_the_digest() {
        assert_each_field_moves(
            &city(),
            Canon::city,
            &[
                ("vehicles", |c| c.vehicles += 1),
                ("focal", |c| c.focal += 1),
                ("ticks", |c| c.ticks += 1),
                ("surrogate_vehicle_ticks", |c| {
                    c.surrogate_vehicle_ticks += 1
                }),
                ("full_vehicle_ticks", |c| c.full_vehicle_ticks += 1),
                ("promotions", |c| c.promotions += 1),
                ("demotions", |c| c.demotions += 1),
                ("max_full_tier", |c| c.max_full_tier += 1),
                ("chain_min_gap_m", |c| c.chain_min_gap_m = 8.5),
                ("chain_collision", |c| c.chain_collision = true),
                ("focal_first_detection", |c| {
                    c.focal_first_detection[0] = Some(Time::ZERO)
                }),
                ("focal_collisions", |c| c.focal_collisions[1] = true),
            ],
        );
    }

    #[test]
    fn every_fleet_stats_field_moves_the_digest() {
        assert_each_field_moves(
            &stats(),
            Canon::stats,
            &[
                ("runs", |s| s.runs += 1),
                ("collisions", |s| s.collisions += 1),
                ("collision_rate", |s| s.collision_rate = 0.0),
                ("detection.detected", |s| s.detection.detected += 1),
                ("detection.mean_s", |s| s.detection.mean_s = 1.0),
                ("detection.p50_s", |s| s.detection.p50_s = 1.0),
                ("detection.p95_s", |s| s.detection.p95_s = 1.0),
                ("model_detection.detected", |s| {
                    s.model_detection.detected = 0
                }),
                ("model_detection.mean_s", |s| s.model_detection.mean_s = 0.0),
                ("peer_collisions", |s| s.peer_collisions += 1),
                ("ejections", |s| s.ejections += 1),
                ("per_strategy", |s| s.per_strategy.clear()),
                ("per_strategy.strategy", |s| {
                    s.per_strategy[0].strategy = ResponseStrategy::SingleLayer
                }),
                ("per_strategy.runs", |s| s.per_strategy[0].runs += 1),
                ("per_strategy.collision_rate", |s| {
                    s.per_strategy[0].collision_rate = 0.0
                }),
                ("per_strategy.mean_distance_m", |s| {
                    s.per_strategy[0].mean_distance_m = 0.0
                }),
                ("per_strategy.availability", |s| {
                    s.per_strategy[0].availability = 1.0
                }),
            ],
        );
    }

    #[test]
    fn every_record_field_moves_the_digest() {
        let record = FleetRecord {
            strategy: ResponseStrategy::ObjectiveStop,
            seed: 99,
            injected_at: Some(Time::from_secs(5)),
            summary: Arc::new(summary()),
        };
        assert_each_field_moves(
            &record,
            Canon::record,
            &[
                ("strategy", |r| r.strategy = ResponseStrategy::CrossLayer),
                ("seed", |r| r.seed += 1),
                ("injected_at", |r| r.injected_at = None),
                ("summary", |r| {
                    Arc::make_mut(&mut r.summary).distance_m += 1.0
                }),
            ],
        );
    }

    #[test]
    fn float_fields_compare_by_bit_pattern() {
        let zero = digest_of(|c| c.f64(0.0));
        assert_ne!(zero, digest_of(|c| c.f64(-0.0)));
        assert_eq!(
            digest_of(|c| c.f64(f64::NAN)),
            digest_of(|c| c.f64(f64::NAN))
        );
    }
}
