//! Store counters and their telemetry publication.

use sl_telemetry::Telemetry;

/// Counters accumulated by store operations. Callers thread one of
/// these through writes/reads and [`StoreMetrics::publish`] the totals
/// into a [`Telemetry`] handle (draining, so repeated publishes never
/// double-count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Arrays committed (manifest written).
    pub arrays_written: u64,
    /// Arrays read back.
    pub arrays_read: u64,
    /// Chunks encoded and stored.
    pub chunks_written: u64,
    /// Chunks checksum-verified and decoded.
    pub chunks_read: u64,
    /// Raw (decoded) bytes represented by written arrays.
    pub bytes_raw: u64,
    /// Encoded bytes written to storage.
    pub bytes_encoded: u64,
}

impl StoreMetrics {
    /// Publishes the accumulated counters under `store.*` and resets
    /// them to zero, so the next publish reports only new work.
    pub fn publish(&mut self, tele: &mut Telemetry) {
        if !tele.is_enabled() {
            return;
        }
        tele.add("store.arrays.written", self.arrays_written);
        tele.add("store.arrays.read", self.arrays_read);
        tele.add("store.chunks.written", self.chunks_written);
        tele.add("store.chunks.read", self.chunks_read);
        tele.add("store.bytes.raw", self.bytes_raw);
        tele.add("store.bytes.encoded", self.bytes_encoded);
        *self = StoreMetrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_drains_the_counters() {
        let mut m = StoreMetrics {
            arrays_written: 2,
            bytes_raw: 800,
            bytes_encoded: 200,
            ..StoreMetrics::default()
        };
        let mut tele = Telemetry::summary();
        m.publish(&mut tele);
        assert_eq!(m, StoreMetrics::default());
        let snap = tele.snapshot();
        assert_eq!(snap.counter("store.arrays.written"), 2);
        assert_eq!(snap.counter("store.bytes.raw"), 800);
        // Second publish adds nothing.
        m.publish(&mut tele);
        assert_eq!(tele.snapshot().counter("store.bytes.raw"), 800);
    }

    #[test]
    fn disabled_telemetry_keeps_the_counters() {
        let mut m = StoreMetrics {
            chunks_written: 5,
            ..StoreMetrics::default()
        };
        m.publish(&mut Telemetry::disabled());
        assert_eq!(m.chunks_written, 5);
    }
}
