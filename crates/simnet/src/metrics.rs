//! Run metrics: run-level message accounting.

/// Counters accumulated by the engine over one run.
///
/// Experiment E9 (message complexity) reads `messages_sent`: the Figure 1
/// fail-stop protocol sends Θ(n²) messages per phase while the Figure 2
/// malicious protocol's echo stage amplifies that to Θ(n³) per phase.
/// Anything finer — per process, per phase — is a fold over the run's
/// [`Event`](crate::Event) stream (`obs::PhaseAggregator` gives per-phase
/// sends), not an engine counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages placed into buffers (including those later dropped).
    pub messages_sent: u64,
    /// Messages delivered to a process step.
    pub messages_delivered: u64,
    /// Messages addressed to halted processes (dropped on send) plus
    /// messages discarded from a buffer when its owner halted.
    pub messages_dropped: u64,
    /// The largest number of undelivered messages any single buffer held at
    /// once — how far delivery lagged behind sending in the worst case.
    pub max_buffer_occupancy: u64,
    /// Deliveries replayed from a write-ahead log during crash recovery.
    /// Always 0 for simulated runs; networked runs (`netstack`) fill it in
    /// so reports surface that a run survived a restart.
    pub recovered: u64,
    /// Equivocation attempts observed on the wire: a sender re-using a
    /// sequence number for a *different* payload. Always 0 for simulated
    /// runs; networked runs fill it in.
    pub equivocations: u64,
}

impl Metrics {
    /// Messages still undelivered at the end of the run.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.messages_sent - self.messages_delivered - self.messages_dropped
    }

    /// Folds a buffer-occupancy observation into the high-water mark.
    pub(crate) fn observe_occupancy(&mut self, occupancy: usize) {
        self.max_buffer_occupancy = self.max_buffer_occupancy.max(occupancy as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_balances() {
        let m = Metrics {
            messages_sent: 10,
            messages_delivered: 6,
            messages_dropped: 1,
            ..Metrics::default()
        };
        assert_eq!(m.in_flight(), 3);
    }

    #[test]
    fn occupancy_tracks_high_water_mark() {
        let mut m = Metrics::default();
        m.observe_occupancy(3);
        m.observe_occupancy(1);
        m.observe_occupancy(7);
        m.observe_occupancy(2);
        assert_eq!(m.max_buffer_occupancy, 7);
    }
}
