//! City-scale tiered-fidelity co-simulation: hundreds of background
//! vehicles in a struct-of-arrays surrogate store, a handful of *focal*
//! vehicles carrying the full self-awareness stack, and promotion /
//! demotion across the tiers as neighborhoods change.
//!
//! The scene is one single-lane chain (front is slot 0). Background
//! vehicles live in a [`SurrogateTraffic`] store and advance with one
//! batched IDM update per tick — contiguous `Vec<f64>` lanes, no
//! per-vehicle heap objects, roughly two orders of magnitude cheaper than
//! a full [`crate::vehicle::SelfAwareVehicle`] tick. Focal vehicles are
//! complete `RunContext`s (the same construction and `tick` code the solo
//! runner and the platoon engine use) occupying *mirrored* slots of the
//! store: each tick their true state is pushed back into the lanes, so
//! surrogate followers react to focal physics and focal radars see
//! surrogate leaders — the identical `push_lead_state` coupling contract
//! the platoon engine uses, with the store standing in for the peer
//! vehicle.
//!
//! Once per simulated second the engine re-evaluates neighborhoods:
//! background vehicles within the spec's promotion radius of a focal
//! vehicle are **promoted** to full fidelity (a `RunContext` seeded
//! deterministically from the scenario seed and the slot, initialized
//! from the surrogate state), and promoted vehicles that drift out of
//! every focal neighborhood are **demoted** back — the store resumes
//! integrating from their last mirrored state. Promotion cost is paid at
//! the (rare) tier transitions; the steady-state tick path allocates
//! nothing.
//!
//! # Intra-run parallelism
//!
//! A single city run scales with cores while staying bit-identical to
//! the sequential engine (`CitySpec::threads` / `SAAV_THREADS`; the
//! fleet runner divides its thread budget across concurrent jobs so the
//! two layers compose without oversubscription). Three mechanisms, all
//! determinism-preserving by construction:
//!
//! * **Chunked surrogate passes** — the store's lane passes split into
//!   contiguous chunks on a persistent
//!   [`TickPool`], with the min-gap /
//!   collision fold reduced per chunk and merged in ascending slot order
//!   ([`SurrogateTraffic::step_chunked`]).
//! * **Cluster-parallel focal stepping** — the full-fidelity vehicles
//!   partition into maximal runs of *adjacent* slots. A cluster head's
//!   leader is always a surrogate slot (frozen during the phase), and
//!   in-cluster followers read their predecessor's freshly-ticked state
//!   in the exact Gauss–Seidel order the sequential loop uses — so
//!   clusters are mutually independent and step in parallel, and the
//!   slot-ordered mirror pass afterwards publishes states in a fixed
//!   order.
//! * **Forked telemetry scratches** — each cluster records into its own
//!   scratch [`RunTelemetry`], folded back in ascending cluster order,
//!   which reassigns trace sequence numbers exactly as the sequential
//!   engine would have issued them. Pool steal/barrier activity surfaces
//!   only through the registry side channels
//!   ([`Counter::ShardSteals`](crate::telemetry::Counter) /
//!   [`Counter::TickBarriers`](crate::telemetry::Counter)), never the
//!   trace.
//!
//! With one thread the engine is the original pure inline loop: no pool
//! dispatch, no scratches, zero steady-state allocations (pinned by
//! `tests/zero_alloc.rs` through the steppable [`crate::runner::Run`]).
//!
//! [`SurrogateTraffic`]: saav_vehicle::surrogate::SurrogateTraffic

use saav_learn::SelfAwarenessModel;
use saav_sim::pool::SendPtr;
use saav_sim::rng::derive_seed;
use saav_sim::time::Time;
use saav_vehicle::surrogate::SurrogateTraffic;
use saav_vehicle::traffic::LeadVehicle;

use crate::executor::TickPool;
use crate::outcome::{CityOutcome, Outcome};
use crate::runner::{compose, RunContext};
use crate::scenario::{CitySpec, Scenario};
use crate::telemetry::{RunTelemetry, Stage, TelemetryEvent};
use crate::vehicle::CONTROL_PERIOD;

/// Seed-space offset separating promoted background vehicles from focal
/// vehicles (which derive from their focal index), so a focal vehicle's
/// noise streams never depend on how many background vehicles surround it.
const PROMOTED_SEED_BASE: u64 = 1 << 32;

/// One full-fidelity vehicle of the chain: a focal vehicle (permanent,
/// with its focal index) or a promoted background vehicle (temporary).
struct FullVehicle {
    /// Chain slot this vehicle mirrors into.
    slot: usize,
    /// `Some(k)` for focal vehicle `k`; `None` for promoted background.
    focal_index: Option<usize>,
    ctx: RunContext,
}

// The parallel cluster phase hands `FullVehicle`s and telemetry
// scratches to pool workers through raw pointers, which bypasses the
// auto-trait checks — assert them at compile time instead.
fn _assert_parallel_tick_state_is_send()
where
    FullVehicle: Send,
    RunTelemetry: Send,
    SurrogateTraffic: Sync,
{
}

/// Whether `pos` lies within `radius` of any focal position, given the
/// focal positions sorted ascending ([`f64::total_cmp`] order). A
/// binary-search window prefilter — bounds widened by a few ulps to
/// absorb the rounding of `pos ± radius` — feeds the *original* exact
/// predicate `(pos - f).abs() <= radius`, so decisions are bit-identical
/// to the linear scan it replaces (pinned against
/// `near_focal_linear` below) at O(log f + hits) instead of O(f).
fn near_focal_window(focal_sorted: &[f64], pos: f64, radius: f64) -> bool {
    let slack = (pos.abs() + radius) * (4.0 * f64::EPSILON);
    let lo = pos - radius - slack;
    let hi = pos + radius + slack;
    let start = focal_sorted.partition_point(|&f| f < lo);
    focal_sorted[start..]
        .iter()
        .take_while(|&&f| f <= hi)
        .any(|&f| (pos - f).abs() <= radius)
}

/// The original O(focal) promotion scan, kept as the decision oracle for
/// [`near_focal_window`].
#[cfg(test)]
fn near_focal_linear(focal_pos: &[f64], pos: f64, radius: f64) -> bool {
    focal_pos.iter().any(|&f| (pos - f).abs() <= radius)
}

/// The city engine's live state: the chain, the full-fidelity tier, the
/// intra-run tick pool and the running tier statistics.
pub(crate) struct CityEngine {
    /// The scenario, owned: promotions build new stacks from it mid-run.
    scenario: Scenario,
    spec: CitySpec,
    store: SurrogateTraffic,
    /// Full-fidelity vehicles, ascending by slot.
    full: Vec<FullVehicle>,
    /// The persistent intra-run worker pool (inline loop at 1 thread).
    pool: TickPool,
    /// Chunk size of the parallel surrogate passes.
    chunk: usize,
    /// Maximal runs of adjacent slots in `full`, as index ranges —
    /// mutually independent within one tick, recomputed only when the
    /// tier membership changes (1 Hz at most).
    clusters: Vec<(usize, usize)>,
    /// One telemetry scratch per cluster (mounted parallel runs only),
    /// reused tick after tick.
    scratch_tel: Vec<RunTelemetry>,
    /// Focal positions sorted ascending, for the window promotion scan.
    focal_sorted: Vec<f64>,
    now: Time,
    end: Time,
    total: usize,
    ticks: u64,
    surrogate_vehicle_ticks: u64,
    full_vehicle_ticks: u64,
    promotions: u64,
    demotions: u64,
    max_full_tier: usize,
}

impl CityEngine {
    /// Builds the chain and the focal stacks. `model` is mounted on the
    /// focal stacks; promoted background vehicles deliberately run
    /// without learned monitors.
    ///
    /// # Panics
    /// Panics if the scenario carries no [`CitySpec`], the chain is empty,
    /// or the initial gap is not positive.
    pub(crate) fn new(scenario: &Scenario, model: Option<&SelfAwarenessModel>) -> Self {
        let spec = scenario.city.clone().expect("city scenario");
        let total = spec.total();
        assert!(total >= 1, "city chain needs at least one vehicle");
        assert!(
            spec.initial_gap_m > 0.0,
            "initial gap must be positive, got {}",
            spec.initial_gap_m
        );
        // Explicit spec width wins; otherwise `SAAV_THREADS` / the host
        // core count (the fleet runner pre-resolves its composition rule
        // into the spec before the scenario reaches this point).
        let threads = spec
            .threads
            .unwrap_or_else(crate::fleet::default_threads)
            .max(1);
        let chunk = spec.surrogate_chunk.max(1);

        // --- the chain: every vehicle starts in the surrogate store -----
        let mut store = SurrogateTraffic::with_capacity(spec.idm, total);
        for slot in 0..total {
            store.push_vehicle(-(slot as f64) * spec.initial_gap_m, spec.cruise_mps);
        }

        // --- focal vehicles: full stacks on mirrored slots --------------
        // Seeds derive from the *focal index*, not the slot, so a focal
        // vehicle's noise streams are identical at any background density
        // — the E14 invariance property.
        let full: Vec<FullVehicle> = (0..spec.focal)
            .map(|k| {
                let slot = spec.focal_slot(k);
                let mut ctx = RunContext::for_member(
                    scenario,
                    format!("{}#f{k}", scenario.label),
                    derive_seed(scenario.seed, k as u64),
                    spec.cruise_mps,
                    chain_lead(scenario, &spec, slot),
                    model,
                );
                ctx.v
                    .world
                    .set_road_offset_m(-(slot as f64) * spec.initial_gap_m);
                store.set_mirrored(slot, true);
                FullVehicle {
                    slot,
                    focal_index: Some(k),
                    ctx,
                }
            })
            .collect();
        debug_assert!(full.windows(2).all(|w| w[0].slot < w[1].slot));

        let end = Time::ZERO + scenario.duration;
        let max_full_tier = full.len();
        let mut engine = CityEngine {
            scenario: scenario.clone(),
            spec,
            store,
            full,
            pool: TickPool::new(threads),
            chunk,
            clusters: Vec::new(),
            scratch_tel: Vec::new(),
            focal_sorted: Vec::new(),
            now: Time::ZERO,
            end,
            total,
            ticks: 0,
            surrogate_vehicle_ticks: 0,
            full_vehicle_ticks: 0,
            promotions: 0,
            demotions: 0,
            max_full_tier,
        };
        engine.recompute_clusters();
        engine
    }

    /// Whether the scenario's time horizon has been reached.
    pub(crate) fn done(&self) -> bool {
        self.now >= self.end
    }

    /// Simulated time since run start.
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Rebuilds the cluster ranges: maximal runs of adjacent slots in
    /// `full`. Called only when tier membership changes, so the per-tick
    /// path never allocates.
    fn recompute_clusters(&mut self) {
        self.clusters.clear();
        let mut i = 0;
        while i < self.full.len() {
            let start = i;
            while i + 1 < self.full.len() && self.full[i + 1].slot == self.full[i].slot + 1 {
                i += 1;
            }
            i += 1;
            self.clusters.push((start, i));
        }
    }

    /// Advances the city by one control period (10 ms). With telemetry
    /// mounted, the batched surrogate update charges the surrogate stage,
    /// focal ticks charge the runner/monitor stages, and tier transitions
    /// become trace events.
    pub(crate) fn tick(&mut self, mut tel: Option<&mut RunTelemetry>) {
        self.now += CONTROL_PERIOD;
        self.ticks += 1;
        let mut par_steals: u64 = 0;
        let mut barriers: u64 = 0;
        // 1. One batched surrogate update: mirrored slots are read as
        //    leaders (at their last mirrored state — the standard one-tick
        //    co-simulation delay) but never written.
        let surrogate_t0 = tel.as_deref().and_then(|t| t.stage_enter());
        if self.pool.threads() > 1 {
            if let Some(stolen) =
                self.store
                    .step_chunked(CONTROL_PERIOD, &mut self.pool, self.chunk)
            {
                par_steals += stolen;
                barriers += 3;
            }
        } else {
            self.store.step(CONTROL_PERIOD);
        }
        if let Some(t) = tel.as_deref_mut() {
            t.stage_exit(Stage::Surrogate, surrogate_t0);
        }
        self.surrogate_vehicle_ticks += self.store.surrogate_count() as u64;
        self.full_vehicle_ticks += self.full.len() as u64;
        // 2. Full-fidelity vehicles, front to back (Gauss–Seidel: a full
        //    vehicle behind another reads its already-mirrored fresh
        //    state): couple to the slot ahead, tick, mirror back.
        let clusters_n = self.clusters.len();
        if self.pool.threads() == 1 || clusters_n <= 1 {
            // The sequential engine, verbatim: a pure inline loop.
            for fv in &mut self.full {
                let slot = fv.slot;
                if slot > 0 {
                    fv.ctx.v.world.push_lead_state(
                        self.store.position_m(slot - 1),
                        self.store.speed_mps(slot - 1),
                    );
                }
                fv.ctx.tick(tel.as_deref_mut());
                self.store.push_state(
                    slot,
                    fv.ctx.v.world.abs_position_m(),
                    fv.ctx.v.world.ego.speed_mps(),
                );
            }
        } else {
            // Parallel cluster phase. A cluster head's leader (slot - 1)
            // is never full-fidelity — it would be in the same cluster —
            // so heads read the store's frozen surrogate lanes; in-cluster
            // followers read their predecessor's freshly-ticked context
            // state, clamped exactly like `push_state` would publish it.
            // The store is read-only for the whole dispatch; mirroring
            // happens in the slot-ordered pass below.
            if let Some(t) = tel.as_deref() {
                while self.scratch_tel.len() < clusters_n {
                    self.scratch_tel.push(t.fork());
                }
            }
            let mounted = tel.is_some();
            let full_ptr = SendPtr(self.full.as_mut_ptr());
            let scratch_ptr = SendPtr(self.scratch_tel.as_mut_ptr());
            let store = &self.store;
            let clusters = &self.clusters;
            let stolen = self.pool.run(clusters_n, &move |c| {
                let (start, end) = clusters[c];
                // SAFETY: cluster `c` exclusively owns scratch slot `c`
                // and the `full[start..end]` range; ranges are disjoint
                // across jobs and the store is frozen for the dispatch.
                let mut scratch = mounted.then(|| unsafe { &mut *scratch_ptr.get().add(c) });
                for idx in start..end {
                    let fv = unsafe { &mut *full_ptr.get().add(idx) };
                    if idx == start {
                        if fv.slot > 0 {
                            fv.ctx.v.world.push_lead_state(
                                store.position_m(fv.slot - 1),
                                store.speed_mps(fv.slot - 1),
                            );
                        }
                    } else {
                        let pred = unsafe { &*full_ptr.get().add(idx - 1) };
                        fv.ctx.v.world.push_lead_state(
                            pred.ctx.v.world.abs_position_m(),
                            pred.ctx.v.world.ego.speed_mps().max(0.0),
                        );
                    }
                    fv.ctx.tick(scratch.as_deref_mut());
                }
            });
            par_steals += stolen;
            barriers += 1;
            // Slot-ordered mirror pass: fixed publish order, so the lanes
            // are bit-identical to the sequential engine's.
            for fv in &self.full {
                self.store.push_state(
                    fv.slot,
                    fv.ctx.v.world.abs_position_m(),
                    fv.ctx.v.world.ego.speed_mps(),
                );
            }
            // Fold the scratches back in ascending cluster (= slot)
            // order: sequence numbers land exactly as the sequential
            // engine would have issued them.
            if let Some(t) = tel.as_deref_mut() {
                for part in self.scratch_tel[..clusters_n].iter_mut() {
                    t.absorb_ordered(part);
                }
            }
        }
        if let Some(t) = tel.as_deref_mut() {
            if par_steals > 0 {
                t.count_par_steals(par_steals);
            }
            if barriers > 0 {
                t.count_tick_barriers(barriers);
            }
        }
        // 3. Neighborhood re-evaluation at 1 Hz: promote background
        //    vehicles that entered a focal neighborhood, demote promoted
        //    vehicles that left every focal neighborhood.
        if self.now.as_millis().is_multiple_of(1_000) && self.spec.focal > 0 {
            self.reevaluate(tel);
        }
    }

    /// The 1 Hz promotion/demotion pass, using the sorted-window focal
    /// scan.
    fn reevaluate(&mut self, mut tel: Option<&mut RunTelemetry>) {
        self.focal_sorted.clear();
        self.focal_sorted.extend(
            self.full
                .iter()
                .filter(|fv| fv.focal_index.is_some())
                .map(|fv| self.store.position_m(fv.slot)),
        );
        self.focal_sorted.sort_unstable_by(f64::total_cmp);
        let radius = self.spec.promotion_radius_m;
        let promotions_before = self.promotions;
        let demotions_before = self.demotions;
        {
            let store = &mut self.store;
            let demotions = &mut self.demotions;
            let focal_sorted = &self.focal_sorted;
            let now = self.now;
            self.full.retain(|fv| {
                if fv.focal_index.is_some()
                    || near_focal_window(focal_sorted, store.position_m(fv.slot), radius)
                {
                    true
                } else {
                    store.set_mirrored(fv.slot, false);
                    *demotions += 1;
                    if let Some(t) = tel.as_deref_mut() {
                        t.record(
                            now,
                            TelemetryEvent::TierDemotion {
                                slot: fv.slot as u32,
                            },
                        );
                    }
                    false
                }
            });
        }
        for slot in 0..self.total {
            if self.store.is_mirrored(slot)
                || !near_focal_window(&self.focal_sorted, self.store.position_m(slot), radius)
            {
                continue;
            }
            self.promotions += 1;
            if let Some(t) = tel.as_deref_mut() {
                t.record(
                    self.now,
                    TelemetryEvent::TierPromotion { slot: slot as u32 },
                );
            }
            let speed = self.store.speed_mps(slot);
            let lead = if slot == 0 {
                self.scenario.lead.clone()
            } else {
                LeadVehicle::external(self.store.gap_m(slot), self.store.speed_mps(slot - 1))
            };
            let mut ctx = RunContext::for_member(
                &self.scenario,
                format!("{}#bg{slot}", self.scenario.label),
                derive_seed(self.scenario.seed, PROMOTED_SEED_BASE + slot as u64),
                speed,
                lead,
                // Promoted background keeps the hand-written monitors
                // only; learned monitors stay a focal concern.
                None,
            );
            ctx.v.world.set_road_offset_m(self.store.position_m(slot));
            self.store.set_mirrored(slot, true);
            let at = self
                .full
                .binary_search_by_key(&slot, |fv| fv.slot)
                .expect_err("slot is not yet full-fidelity");
            self.full.insert(
                at,
                FullVehicle {
                    slot,
                    focal_index: None,
                    ctx,
                },
            );
        }
        self.max_full_tier = self.max_full_tier.max(self.full.len());
        // Membership can churn without the count changing (a balanced
        // promote+demote pass as the focal neighborhood drifts along the
        // chain); stale (start,end) ranges would then mis-couple leaders
        // in the parallel cluster phase, so recompute on any churn.
        if self.promotions != promotions_before || self.demotions != demotions_before {
            self.recompute_clusters();
        }
    }

    /// Closes the run: composes the focal outcomes (lead focal first)
    /// with the chain's own gap and collision, plus the tier record.
    pub(crate) fn finish(self) -> Outcome {
        let focal: Vec<RunContext> = self
            .full
            .into_iter()
            .filter(|fv| fv.focal_index.is_some())
            .map(|fv| fv.ctx)
            .collect();
        let pure_surrogate = focal.is_empty();
        let mut focal_first_detection = Vec::with_capacity(focal.len());
        let mut focal_collisions = Vec::with_capacity(focal.len());
        let mut out = compose(
            self.scenario.label,
            focal,
            self.store.min_gap_m(),
            self.store.collision(),
            |o| {
                focal_first_detection.push(o.first_detection);
                focal_collisions.push(o.collision);
            },
        );
        if pure_surrogate {
            // No self-awareness stack ran: the chain front stands in.
            out.distance_m = self.store.position_m(0);
        }
        out.city = Some(CityOutcome {
            vehicles: self.spec.total(),
            focal: self.spec.focal,
            ticks: self.ticks,
            surrogate_vehicle_ticks: self.surrogate_vehicle_ticks,
            full_vehicle_ticks: self.full_vehicle_ticks,
            promotions: self.promotions,
            demotions: self.demotions,
            max_full_tier: self.max_full_tier,
            chain_min_gap_m: self.store.min_gap_m(),
            chain_collision: self.store.collision(),
            focal_first_detection,
            focal_collisions,
        });
        out
    }
}

/// A city run stepped one control period at a time: an alias of
/// [`crate::runner::Run`], which steps every scenario kind. The intra-run
/// thread count comes from the scenario's [`CitySpec::threads`] (or
/// `SAAV_THREADS` / the host core count when unset).
pub type CityRun = crate::runner::Run;

/// The lead coupling of a full-fidelity vehicle at `slot`: the front of
/// the chain follows the scenario's scripted lead (like the platoon
/// leader); everyone else follows an externally-driven participant fed
/// from the slot ahead each tick.
fn chain_lead(scenario: &Scenario, spec: &CitySpec, slot: usize) -> LeadVehicle {
    if slot == 0 {
        scenario.lead.clone()
    } else {
        LeadVehicle::external(spec.initial_gap_m, spec.cruise_mps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioEvent;
    use saav_sim::time::Duration;

    fn short_city(background: usize, focal: usize, seed: u64) -> Scenario {
        Scenario::builder("city-test")
            .seed(seed)
            .duration(Duration::from_secs(10))
            .city(CitySpec::new(background, focal))
            .build()
    }

    #[test]
    fn focal_vehicles_hold_formation_in_traffic() {
        let out = crate::runner::run(short_city(20, 2, 7));
        let c = out.city.as_ref().expect("city outcome");
        assert_eq!(c.vehicles, 22);
        assert_eq!(c.focal, 2);
        assert_eq!(c.ticks, 1_000);
        assert!(!out.collision, "chain min gap {}", c.chain_min_gap_m);
        assert_eq!(c.focal_collisions, vec![false, false]);
        assert!(c.chain_min_gap_m > 0.0);
        // Both tiers actually ran, and the surrogate tier dominated the
        // vehicle-tick count.
        assert!(c.surrogate_vehicle_ticks > c.full_vehicle_ticks);
        assert!(out.distance_m > 150.0, "distance {}", out.distance_m);
    }

    #[test]
    fn neighbors_promote_and_demote() {
        let out = crate::runner::run(short_city(20, 2, 3));
        let c = out.city.as_ref().unwrap();
        // With 30 m gaps and a 45 m radius, each focal vehicle promotes
        // its immediate neighbors at the first 1 Hz re-evaluation.
        assert!(c.promotions >= 2, "promotions {}", c.promotions);
        assert!(c.max_full_tier > c.focal, "max tier {}", c.max_full_tier);
        assert!(c.max_full_tier < c.vehicles, "tiering must stay partial");
    }

    #[test]
    fn pure_surrogate_city_runs_without_focal_stack() {
        let out = crate::runner::run(short_city(50, 0, 1));
        let c = out.city.as_ref().unwrap();
        assert_eq!(c.focal, 0);
        assert_eq!(c.full_vehicle_ticks, 0);
        assert_eq!(c.surrogate_vehicle_ticks, 50 * 1_000);
        assert!(!out.collision);
        assert!(out.distance_m > 0.0, "front vehicle moved");
        assert!(out.speed.is_empty(), "no focal series");
    }

    #[test]
    fn city_is_deterministic_per_seed() {
        let a = crate::runner::run(short_city(30, 2, 5));
        let b = crate::runner::run(short_city(30, 2, 5));
        assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
        assert_eq!(a.city.as_ref().unwrap(), b.city.as_ref().unwrap());
    }

    #[test]
    fn intra_thread_count_and_chunk_size_are_behaviour_neutral() {
        // The tentpole contract in miniature: outcomes are bit-identical
        // for any intra-run thread count and surrogate chunk size (the
        // full grid is property-tested in tests/city_cosim.rs).
        let run = |threads: usize, chunk: usize| {
            let mut s = short_city(30, 2, 5);
            s.city = s
                .city
                .map(|c| c.with_threads(threads).with_surrogate_chunk(chunk));
            crate::runner::run(s)
        };
        let base = run(1, 1024);
        for (threads, chunk) in [(2, 7), (3, 16), (4, 1)] {
            let par = run(threads, chunk);
            assert_eq!(
                base.distance_m.to_bits(),
                par.distance_m.to_bits(),
                "{threads} threads, chunk {chunk}"
            );
            assert_eq!(base.min_gap_m.to_bits(), par.min_gap_m.to_bits());
            assert_eq!(base.city.as_ref().unwrap(), par.city.as_ref().unwrap());
        }
    }

    #[test]
    fn steppable_city_run_matches_run() {
        let scenario = {
            let mut s = short_city(20, 2, 11);
            s.city = s.city.map(|c| c.with_threads(2));
            s
        };
        let direct = crate::runner::run(scenario.clone());
        let mut stepped = crate::runner::Run::new(&scenario);
        assert!(!stepped.done());
        while !stepped.done() {
            stepped.tick();
        }
        assert_eq!(stepped.now_millis(), 10_000);
        let out = stepped.finish();
        assert_eq!(out.distance_m.to_bits(), direct.distance_m.to_bits());
        assert_eq!(out.city.as_ref().unwrap(), direct.city.as_ref().unwrap());
    }

    /// The maximal adjacent-slot runs of `full`, recomputed from scratch
    /// — the oracle the engine's incremental `clusters` must match.
    fn fresh_clusters(full: &[FullVehicle]) -> Vec<(usize, usize)> {
        let mut expected = Vec::new();
        let mut i = 0;
        while i < full.len() {
            let start = i;
            while i + 1 < full.len() && full[i + 1].slot == full[i].slot + 1 {
                i += 1;
            }
            i += 1;
            expected.push((start, i));
        }
        expected
    }

    #[test]
    fn clusters_stay_fresh_under_balanced_promotion_churn() {
        // Regression: clusters used to be recomputed only when the
        // full-tier *count* changed, so a 1 Hz pass demoting and
        // promoting an equal number of vehicles left stale (start,end)
        // ranges behind, and the parallel cluster phase coupled followers
        // to the wrong leader. Engineer exactly that: nudge one focal's
        // mirrored position so its window swallows one more background
        // vehicle, and teleport a promoted vehicle out of the other
        // focal's neighborhood — a balanced pass that changes the
        // cluster structure from (3,3) to (4,2).
        let mut engine = CityEngine::new(&short_city(20, 2, 17), None);
        let f0 = engine.spec.focal_slot(0);
        let f1 = engine.spec.focal_slot(1);
        engine.reevaluate(None);
        let before: Vec<usize> = engine.full.iter().map(|fv| fv.slot).collect();
        assert_eq!(
            before,
            vec![f0 - 1, f0, f0 + 1, f1 - 1, f1, f1 + 1],
            "each focal promotes its 30 m neighbors inside the 45 m radius"
        );
        assert_eq!(engine.clusters, vec![(0, 3), (3, 6)]);

        // +15 m keeps f0±1 (45 m, boundary-inclusive) and reaches f0-2
        // (45 m): one promotion.
        let speed = engine.store.speed_mps(f0);
        let pos = engine.store.position_m(f0);
        engine.store.push_state(f0, pos + 15.0, speed);
        // 60 m back puts f1+1 90 m behind f1: one demotion.
        let speed = engine.store.speed_mps(f1 + 1);
        let pos = engine.store.position_m(f1 + 1);
        engine.store.push_state(f1 + 1, pos - 60.0, speed);

        let (promos, demos) = (engine.promotions, engine.demotions);
        engine.reevaluate(None);
        assert_eq!(
            (engine.promotions - promos, engine.demotions - demos),
            (1, 1),
            "the pass must be exactly balanced to regress the count check"
        );
        let after: Vec<usize> = engine.full.iter().map(|fv| fv.slot).collect();
        assert_eq!(after, vec![f0 - 2, f0 - 1, f0, f0 + 1, f1 - 1, f1]);
        assert_eq!(after.len(), before.len(), "count unchanged");
        assert_eq!(
            engine.clusters,
            fresh_clusters(&engine.full),
            "stale clusters after a balanced promote+demote pass"
        );
        assert_eq!(engine.clusters, vec![(0, 4), (4, 6)]);
    }

    #[test]
    fn window_scan_matches_linear_oracle() {
        // Exact-boundary cases included: probes sitting precisely at
        // focal ± radius must promote under both scans.
        let radius = 45.0;
        let focal: Vec<f64> = vec![-317.5, -60.25, 0.0, 88.125, 88.125, 451.75];
        let mut sorted = focal.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let mut probes: Vec<f64> = Vec::new();
        let mut p = -500.0;
        while p <= 600.0 {
            probes.push(p);
            p += 0.73;
        }
        for &f in &focal {
            for nudge in [-f64::EPSILON, 0.0, f64::EPSILON] {
                probes.push(f - radius + nudge * f.abs().max(1.0));
                probes.push(f + radius + nudge * f.abs().max(1.0));
            }
        }
        for &pos in &probes {
            assert_eq!(
                near_focal_window(&sorted, pos, radius),
                near_focal_linear(&focal, pos, radius),
                "scan divergence at pos {pos}"
            );
        }
    }

    #[test]
    fn focal_detection_is_invariant_to_background_density() {
        // The E14 property in miniature: an intrusion on board a focal
        // vehicle is detected at the same instant whether the chain holds
        // 5 or 50 background vehicles.
        let run = |background: usize| {
            let out = crate::runner::run(
                Scenario::builder("city-intrusion")
                    .seed(9)
                    .duration(Duration::from_secs(12))
                    .at(Time::from_secs(5), ScenarioEvent::CompromiseRearBrake)
                    .city(CitySpec::new(background, 2))
                    .build(),
            );
            out.city.unwrap().focal_first_detection
        };
        let sparse = run(5);
        let dense = run(50);
        assert!(sparse.iter().all(Option::is_some), "{sparse:?}");
        assert_eq!(sparse, dense, "detection latency must not drift");
    }

    #[test]
    fn chain_slots_place_focal_vehicles_evenly() {
        let spec = CitySpec::new(8, 2);
        assert_eq!(spec.focal_slot(0), 3);
        assert_eq!(spec.focal_slot(1), 6);
        // Degenerate: an all-focal chain occupies slots 0..n.
        let all_focal = CitySpec::new(0, 3);
        let slots: Vec<usize> = (0..3).map(|k| all_focal.focal_slot(k)).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }
}
