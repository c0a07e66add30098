//! Lifeline reduction: the program's NetLogger events turned into per-layer
//! spans, percentiles with their sample counts, the seam closure and self
//! time.
//!
//! Every function here is pure over an [`EventLog`] or plain numbers, so the
//! arithmetic is unit-tested on hand-built logs.

use std::collections::BTreeMap;
use visapult::netlogger::{tags, Event, EventLog};

/// Split the campaign's merged log back into stages, with timestamps on the
/// round clock.
///
/// The pipeline shifts stage `i`'s events by `offsets[i]` (the summed farm
/// times of the stages before it) when it merges them.  Because every stage
/// logs on the one round clock (see [`crate::seams`]), stage `i`'s events lie
/// in `[starts[i], starts[i + 1])` before the shift, and the shifted windows
/// stay disjoint and ordered — so an event belongs to the last stage whose
/// shifted start it has reached.
pub fn split_stages(log: &EventLog, starts: &[f64], offsets: &[f64]) -> Vec<Vec<Event>> {
    assert_eq!(starts.len(), offsets.len(), "one offset per stage");
    let mut stages = vec![Vec::new(); starts.len()];
    for event in log.events() {
        let Some(i) = (0..starts.len())
            .rev()
            .find(|&i| event.timestamp >= starts[i] + offsets[i])
        else {
            continue;
        };
        let mut e = event.clone();
        e.timestamp -= offsets[i];
        stages[i].push(e);
    }
    stages
}

/// One lifeline span: a `(host, program, frame)` between a start and an end
/// tag.
#[derive(Debug, Clone, PartialEq)]
pub struct LifeSpan {
    /// Emitting host (`pe-<rank>` on the back end).
    pub host: String,
    /// Emitting program (`backend-worker-<rank>`, `viewer-worker-<pe>`).
    pub program: String,
    /// Frame index.
    pub frame: i64,
    /// Earliest start event.
    pub start: f64,
    /// Latest end event.
    pub end: f64,
}

impl LifeSpan {
    /// Span length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Pair start and end tags per `(host, program, frame)`, taking the earliest
/// start and the latest end as the program's own latency fold does.
/// Unpaired halves are dropped.  Output is in key order.
pub fn pair(events: &[Event], start_tag: &str, end_tag: &str) -> Vec<LifeSpan> {
    let mut open: BTreeMap<(&str, &str, i64), (f64, f64)> = BTreeMap::new();
    for e in events {
        let Some(frame) = e.frame() else { continue };
        let key = (e.host.as_str(), e.program.as_str(), frame);
        if e.tag == start_tag {
            let entry = open.entry(key).or_insert((f64::INFINITY, f64::NEG_INFINITY));
            entry.0 = entry.0.min(e.timestamp);
        } else if e.tag == end_tag {
            let entry = open.entry(key).or_insert((f64::INFINITY, f64::NEG_INFINITY));
            entry.1 = entry.1.max(e.timestamp);
        }
    }
    open.into_iter()
        .filter(|(_, (s, e))| s.is_finite() && e.is_finite() && e >= s)
        .map(|((host, program, frame), (start, end))| LifeSpan {
            host: host.to_string(),
            program: program.to_string(),
            frame,
            start,
            end,
        })
        .collect()
}

/// Per-PE gaps from `BE_FRAME_END(f)` to `BE_FRAME_START(f + 1)`: time a
/// PE waited on its reader or the frame barrier, in seconds.
pub fn wait_gaps(events: &[Event]) -> Vec<f64> {
    let frames = pair(events, tags::BE_FRAME_START, tags::BE_FRAME_END);
    let mut gaps = Vec::new();
    for w in frames.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if a.host == b.host && a.program == b.program && b.frame == a.frame + 1 {
            gaps.push((b.start - a.end).max(0.0));
        }
    }
    gaps
}

/// Per-frame latency: from the earliest `BE_FRAME_START` of a frame across
/// PEs to its latest `V_FRAME_END`, in seconds, in frame order.
pub fn frame_latencies(events: &[Event]) -> Vec<f64> {
    let mut frames: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
    for e in events {
        let Some(frame) = e.frame() else { continue };
        if e.tag == tags::BE_FRAME_START {
            let entry = frames.entry(frame).or_insert((f64::INFINITY, f64::NEG_INFINITY));
            entry.0 = entry.0.min(e.timestamp);
        } else if e.tag == tags::V_FRAME_END {
            let entry = frames.entry(frame).or_insert((f64::INFINITY, f64::NEG_INFINITY));
            entry.1 = entry.1.max(e.timestamp);
        }
    }
    frames
        .into_values()
        .filter(|(s, e)| s.is_finite() && e.is_finite() && e >= s)
        .map(|(s, e)| e - s)
        .collect()
}

/// Median and 90th percentile (nearest rank) with the sample count behind
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Quantiles {
    /// Reduce a sample set (any order; empty gives zeros).
    pub fn of(samples: &[f64]) -> Quantiles {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Quantiles {
            count: sorted.len(),
            p50: nearest_rank(&sorted, 0.5),
            p90: nearest_rank(&sorted, 0.9),
        }
    }

    /// Samples strictly beyond the 90th percentile's rank: the p90 is only
    /// trusted with at least ten of them.
    pub fn beyond_p90(&self) -> usize {
        self.count - rank(self.count, 0.9).min(self.count)
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).max(1)
}

/// Nearest-rank quantile of sorted samples (0 when empty).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q).min(sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts; 0
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Length of the union of `children` clipped to `parent`.
pub fn covered(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    (parent.1 - parent.0) - covered(parent, children)
}

/// The seam ledger of one stage (or a sum of stages): wall time, the time
/// the seam spans account for, and the residual no seam claims.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Closure {
    /// Stage wall time.
    pub wall: f64,
    /// Summed seam spans.
    pub seams: f64,
    /// `wall - seams`.
    pub unattributed: f64,
}

impl Closure {
    /// Close a ledger: the residual is whatever the seams do not cover.
    pub fn new(wall: f64, seams: f64) -> Closure {
        Closure {
            wall,
            seams,
            unattributed: wall - seams,
        }
    }

    /// Add another stage's ledger.
    pub fn add(&mut self, other: &Closure) {
        self.wall += other.wall;
        self.seams += other.seams;
        self.unattributed += other.unattributed;
    }

    /// Check that the ledger closes: seams plus residual equal the wall,
    /// the residual is not negative (the seams cannot overlap or outrun the
    /// stage), and it stays within `max_share` of the wall.
    pub fn check(&self, max_share: f64) -> Result<(), String> {
        let tolerance = 1e-9 * self.wall.max(1.0);
        if (self.seams + self.unattributed - self.wall).abs() > tolerance {
            return Err(format!(
                "seams {} + unattributed {} != wall {}",
                self.seams, self.unattributed, self.wall
            ));
        }
        if self.unattributed < -tolerance {
            return Err(format!("seams {} exceed the stage wall {}", self.seams, self.wall));
        }
        if self.wall > 0.0 && self.unattributed / self.wall > max_share {
            return Err(format!(
                "unattributed {:.6} s is {:.1}% of the {:.6} s wall (bound {:.0}%)",
                self.unattributed,
                100.0 * self.unattributed / self.wall,
                self.wall,
                100.0 * max_share
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visapult::netlogger::FieldValue;

    fn ev(t: f64, host: &str, program: &str, tag: &str, frame: i64) -> Event {
        Event::new(t, host, program, tag).with_field(tags::FIELD_FRAME, FieldValue::Int(frame))
    }

    /// Two PEs, two frames: PE 1 starts each frame later and renders longer.
    fn two_pe_log() -> Vec<Event> {
        let mut v = Vec::new();
        for (pe, lag) in [(0, 0.0), (1, 0.5)] {
            let host = format!("pe-{pe}");
            let prog = format!("backend-worker-{pe}");
            for frame in 0..2 {
                let base = frame as f64 * 10.0 + lag;
                v.push(ev(base, &host, &prog, tags::BE_FRAME_START, frame));
                v.push(ev(base + 1.0, &host, &prog, tags::BE_RENDER_START, frame));
                v.push(ev(base + 3.0 + lag, &host, &prog, tags::BE_RENDER_END, frame));
                v.push(ev(base + 6.0, &host, &prog, tags::BE_FRAME_END, frame));
            }
            let vprog = format!("viewer-worker-{pe}");
            for frame in 0..2 {
                let base = frame as f64 * 10.0 + lag;
                v.push(ev(base + 4.0, "desktop", &vprog, tags::V_FRAME_START, frame));
                v.push(ev(base + 7.0, "desktop", &vprog, tags::V_FRAME_END, frame));
            }
        }
        v
    }

    #[test]
    fn pairing_matches_start_and_end_per_source_and_frame() {
        let spans = pair(&two_pe_log(), tags::BE_RENDER_START, tags::BE_RENDER_END);
        assert_eq!(spans.len(), 4);
        let durations: Vec<f64> = spans.iter().map(LifeSpan::duration).collect();
        assert_eq!(durations, vec![2.0, 2.0, 2.5, 2.5]);
        assert_eq!(spans[2].host, "pe-1");
        assert_eq!(spans[3].frame, 1);
    }

    #[test]
    fn pairing_drops_unpaired_halves_and_keeps_the_widest_span() {
        let log = vec![
            ev(1.0, "h", "p", tags::BE_LOAD_START, 0),
            ev(0.5, "h", "p", tags::BE_LOAD_START, 0),
            ev(2.0, "h", "p", tags::BE_LOAD_END, 0),
            ev(3.0, "h", "p", tags::BE_LOAD_START, 1),
            ev(9.0, "h", "p", tags::BE_LOAD_END, 2),
        ];
        let spans = pair(&log, tags::BE_LOAD_START, tags::BE_LOAD_END);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (0.5, 2.0));
    }

    #[test]
    fn wait_gaps_run_from_frame_end_to_the_next_frame_start() {
        // Frame 0 ends at 6 (+lag), frame 1 starts at 10 (+lag): 4 s per PE.
        assert_eq!(wait_gaps(&two_pe_log()), vec![4.0, 4.0]);
    }

    #[test]
    fn frame_latency_spans_the_earliest_start_to_the_latest_composite() {
        // Frame 0: PE 0 starts at 0, PE 1's composite ends at 7.5.
        assert_eq!(frame_latencies(&two_pe_log()), vec![7.5, 7.5]);
    }

    #[test]
    fn split_stages_undoes_the_merge_shift() {
        // Stage 0 logs on [0, 5); stage 1 starts at 5, and stage 0's farm
        // time (4, shorter than its wall) shifts it by 4 in the merged log.
        let stage0 = vec![ev(1.0, "h", "p", "A", 0), ev(4.5, "h", "p", "B", 0)];
        let stage1 = vec![ev(5.5, "h", "p", "A", 0), ev(6.0, "h", "p", "B", 0)];
        let mut merged = EventLog::from_events(stage0.clone());
        merged.merge(EventLog::from_events(
            stage1
                .iter()
                .cloned()
                .map(|mut e| {
                    e.timestamp += 4.0;
                    e
                })
                .collect(),
        ));
        let split = split_stages(&merged, &[0.0, 5.0], &[0.0, 4.0]);
        assert_eq!(split[0], stage0);
        assert_eq!(split[1], stage1);
    }

    #[test]
    fn quantiles_use_nearest_rank_and_report_their_sample_count() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let q = Quantiles::of(&samples);
        assert_eq!((q.count, q.p50, q.p90), (100, 50.0, 90.0));
        assert_eq!(q.beyond_p90(), 10);
        let small = Quantiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.p50, small.p90, small.beyond_p90()), (2.0, 3.0, 0));
        assert_eq!(Quantiles::of(&[]).count, 0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn closure_arithmetic_balances_and_bounds_the_residual() {
        let mut total = Closure::new(10.0, 9.0);
        total.add(&Closure::new(5.0, 4.5));
        assert_eq!((total.wall, total.seams), (15.0, 13.5));
        assert!((total.unattributed - 1.5).abs() < 1e-12);
        assert!(total.check(0.2).is_ok());
        assert!(total.check(0.05).is_err(), "a 10% residual breaks a 5% bound");
        assert!(
            Closure::new(1.0, 1.5).check(1.0).is_err(),
            "seams cannot outrun the wall"
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children overlap on [2, 3] and one pokes out of the parent.
        let children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)];
        assert_eq!(covered((0.0, 10.0), &children), 5.0);
        assert_eq!(self_time((0.0, 10.0), &children), 5.0);
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
    }
}
