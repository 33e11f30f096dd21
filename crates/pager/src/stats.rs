//! I/O accounting in the units the paper uses: seeks and page transfers.

use std::ops::Sub;

/// Cumulative I/O counters for a volume.
///
/// The paper states every cost as *seeks + page transfers* (e.g. §4.2:
/// "3 disk seeks plus the cost to transfer 6 pages"). `IoStats` counts
/// exactly those, split by direction, plus the number of distinct
/// multi-page calls and the simulated elapsed time derived from the
/// volume's [`DiskProfile`](crate::DiskProfile).
///
/// Snapshots subtract (`b - a`) to give the cost of the operations
/// performed between two points in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Disk head seeks: accesses that did not start at the page where
    /// the previous access ended.
    pub seeks: u64,
    /// Pages transferred from disk.
    pub page_reads: u64,
    /// Pages transferred to disk.
    pub page_writes: u64,
    /// Multi-page read calls issued.
    pub read_calls: u64,
    /// Multi-page write calls issued.
    pub write_calls: u64,
    /// Simulated elapsed microseconds under the volume's disk profile.
    pub elapsed_us: u64,
    /// Read calls rejected by the fault-injection layer
    /// ([`FaultVolume`](crate::FaultVolume)); zero on real volumes.
    pub read_faults: u64,
    /// Write calls rejected by the fault-injection layer.
    pub write_faults: u64,
    /// Sync calls rejected by the fault-injection layer.
    pub sync_faults: u64,
}

impl IoStats {
    /// Total pages transferred in either direction.
    #[inline]
    pub fn transfers(&self) -> u64 {
        self.page_reads + self.page_writes
    }

    /// Total calls in either direction.
    #[inline]
    pub fn calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Total injected faults: rejected reads, writes and syncs.
    #[inline]
    pub fn faults(&self) -> u64 {
        self.read_faults + self.write_faults + self.sync_faults
    }

    /// Simulated elapsed time in milliseconds (floating point).
    #[inline]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_us as f64 / 1000.0
    }
}

impl Sub for IoStats {
    type Output = IoStats;

    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            seeks: self.seeks - rhs.seeks,
            page_reads: self.page_reads - rhs.page_reads,
            page_writes: self.page_writes - rhs.page_writes,
            read_calls: self.read_calls - rhs.read_calls,
            write_calls: self.write_calls - rhs.write_calls,
            elapsed_us: self.elapsed_us - rhs.elapsed_us,
            read_faults: self.read_faults - rhs.read_faults,
            write_faults: self.write_faults - rhs.write_faults,
            sync_faults: self.sync_faults - rhs.sync_faults,
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} seeks, {} page reads, {} page writes, {} read faults, \
             {} write faults, {} sync faults ({:.3} ms simulated)",
            self.seeks,
            self.page_reads,
            self.page_writes,
            self.read_faults,
            self.write_faults,
            self.sync_faults,
            self.elapsed_ms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::IoStats;

    #[test]
    fn delta_arithmetic() {
        let a = IoStats {
            seeks: 2,
            page_reads: 10,
            page_writes: 4,
            read_calls: 3,
            write_calls: 1,
            elapsed_us: 5000,
            read_faults: 1,
            write_faults: 0,
            sync_faults: 0,
        };
        let b = IoStats {
            seeks: 5,
            page_reads: 16,
            page_writes: 9,
            read_calls: 5,
            write_calls: 3,
            elapsed_us: 9000,
            read_faults: 2,
            write_faults: 2,
            sync_faults: 1,
        };
        let d = b - a;
        assert_eq!(d.seeks, 3);
        assert_eq!(d.transfers(), 11);
        assert_eq!(d.calls(), 4);
        assert_eq!(d.elapsed_us, 4000);
        assert_eq!(d.faults(), 4);
    }

    #[test]
    fn display_is_human_readable() {
        let s = IoStats {
            seeks: 3,
            page_reads: 6,
            ..IoStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("3 seeks"));
        assert!(text.contains("6 page reads"));
    }

    #[test]
    fn display_includes_fault_counts() {
        let s = IoStats {
            seeks: 1,
            page_reads: 2,
            page_writes: 3,
            read_faults: 4,
            write_faults: 5,
            sync_faults: 6,
            ..IoStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("4 read faults"), "got: {text}");
        assert!(text.contains("5 write faults"), "got: {text}");
        assert!(text.contains("6 sync faults"), "got: {text}");
        // Fault-free stats still render the (zero) counts so the shape
        // of the line is stable for log scrapers.
        let clean = IoStats::default().to_string();
        assert!(clean.contains("0 read faults"), "got: {clean}");
    }
}
