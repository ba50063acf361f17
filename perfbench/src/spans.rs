//! In-memory spans recorded by the traced run around each call into the
//! program, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span names: one per kind of call the benchmark makes into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Workload,
    Run,
    ScenarioBuild,
    RunnerNew,
    Tick,
    RunnerFinish,
    CityNew,
    CityFinish,
    SweepCold,
    SweepWarm,
    SweepDisk,
    FleetStats,
    CacheKey,
    CacheGet,
    CacheDiskGet,
    CacheInsert,
    ColstoreEncode,
    ColstoreDecode,
    ColstoreStats,
    ColstorePercentiles,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Workload => "workload",
            Name::Run => "run",
            Name::ScenarioBuild => "scenario.build",
            Name::RunnerNew => "runner.new",
            Name::Tick => "tick",
            Name::RunnerFinish => "runner.finish",
            Name::CityNew => "city.new",
            Name::CityFinish => "city.finish",
            Name::SweepCold => "sweep.cold",
            Name::SweepWarm => "sweep.warm",
            Name::SweepDisk => "sweep.disk",
            Name::FleetStats => "fleet.stats",
            Name::CacheKey => "cache.key",
            Name::CacheGet => "cache.get",
            Name::CacheDiskGet => "cache.disk_get",
            Name::CacheInsert => "cache.insert",
            Name::ColstoreEncode => "colstore.encode",
            Name::ColstoreDecode => "colstore.decode",
            Name::ColstoreStats => "colstore.stats",
            Name::ColstorePercentiles => "colstore.percentiles",
        }
    }

    /// The group a span's self time is reported under
    /// (`span.<group>.self_ms`): the text before the first `.`.
    pub fn group(self) -> &'static str {
        let s = self.as_str();
        &s[..s.find('.').unwrap_or(s.len())]
    }
}

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The spans of one traced pass. Every span shares the recorder's run id.
pub struct Spans {
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(run_id: u64, capacity: usize) -> Self {
        Spans {
            epoch: Instant::now(),
            run_id,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a completed span and returns its index.
    pub fn record(&mut self, name: Name, parent: u32, start: Instant, end: Instant) -> u32 {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span that [`Spans::close`] ends; its children may be
    /// recorded in between.
    pub fn open(&mut self, name: Name, parent: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Per name: (count, total ns).
    pub fn totals(&self, name: Name) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns)))
    }

    /// Self time per group in ns: each span's duration minus the time its
    /// children cover.
    pub fn self_ns_by_group(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut groups: Vec<(&'static str, u64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            let group = s.name.group();
            match groups.iter_mut().find(|(g, _)| *g == group) {
                Some((_, total)) => *total += own,
                None => groups.push((group, own)),
            }
        }
        groups
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as CSV: `id,parent,run,name,start_ns,end_ns`
    /// (parent is empty for root spans).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,run,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{:016x},{},{},{}",
                self.run_id,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(1, 4);
        let t0 = spans.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = spans.record(Name::Workload, ROOT, at(0), at(100));
        let run = spans.record(Name::Run, root, at(10), at(90));
        spans.record(Name::Tick, run, at(20), at(30));
        spans.record(Name::Tick, run, at(30), at(50));
        let groups = spans.self_ns_by_group();
        let of = |g: &str| groups.iter().find(|(n, _)| *n == g).unwrap().1;
        assert_eq!(of("workload"), 20_000);
        assert_eq!(of("run"), 50_000);
        assert_eq!(of("tick"), 30_000);
        assert_eq!(spans.totals(Name::Tick), (2, 30_000));
    }
}
