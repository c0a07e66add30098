//! The disabled-hub cost contract: handles minted by the no-op hub perform
//! **zero** metric atomics.
//!
//! This lives in its own test binary because the proof reads the
//! process-global `live_record_ops` counter — any concurrently running test
//! with a live hub would bump it and turn the zero-delta assertion flaky.

use netlogger::metrics::live_record_ops;
use netlogger::MetricsHub;

#[test]
fn disabled_hub_handles_perform_zero_record_ops() {
    let hub = MetricsHub::disabled();
    let h = hub.histogram("x");
    let c = hub.counter("y");
    let g = hub.high_water("z");
    let before = live_record_ops();
    for i in 0..10_000 {
        h.record(i);
        c.add(1);
        g.observe(i);
    }
    assert_eq!(live_record_ops() - before, 0, "disabled handles must not touch atomics");
    assert!(!h.is_live());
    assert!(hub.snapshot("t").histograms.is_empty());
}
