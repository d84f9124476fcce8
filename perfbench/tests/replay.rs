//! Replay fidelity: the per-layer spans time the work the engine does.

use anton2_perfbench::layers::{replayed_pairs, warmed_snapshot};

#[test]
fn replayed_streamed_call_evaluates_the_engines_pairs() {
    let snap = warmed_snapshot(1);
    assert!(snap.engine_pairs > 0, "the engine evaluated no pairs");
    assert_eq!(replayed_pairs(&snap.system), snap.engine_pairs);
}
