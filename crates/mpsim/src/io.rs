//! File-per-process output with wave throttling (§III-A).
//!
//! Before Frontier MFC wrote one shared binary file via collective MPI I/O.
//! At 65,536 GCDs the metadata storm of creating shared files made a
//! file-per-process approach faster — *if* file creation is throttled:
//! "write access is allowed in waves of 128 processes".  The throttle is
//! real here (ranks outside the active wave block on barriers), the
//! parallel-filesystem contention is not. What each rank writes is the
//! caller's: the solver writes self-describing block files.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mfc_trace::Category;

use crate::comm::Comm;

/// MFC's production writer-wave width: "write access is allowed in waves
/// of 128 processes". Overridable per run (`mfc-run --io-wave`, `io.wave`
/// case key).
pub const DEFAULT_WAVE_SIZE: usize = 128;

/// File-per-process writer with wave throttling.
#[derive(Debug, Clone)]
pub struct WaveWriter {
    /// How many ranks may create/write files simultaneously (128 in MFC).
    pub wave_size: usize,
    /// Busy-work multiplications separating waves — the paper's "each
    /// wave offset by a set number of double-precision multiplication
    /// operations", which spreads metadata creation in time even without
    /// a barrier-capable filesystem. 0 disables.
    pub offset_flops: u64,
}

impl WaveWriter {
    pub fn new(wave_size: usize) -> Self {
        assert!(wave_size > 0);
        WaveWriter {
            wave_size,
            offset_flops: 0,
        }
    }

    /// A writer with the paper's production wave width
    /// ([`DEFAULT_WAVE_SIZE`]).
    pub fn paper_default() -> Self {
        WaveWriter::new(DEFAULT_WAVE_SIZE)
    }

    /// Configure the inter-wave busy-work offset.
    pub fn with_offset_flops(mut self, flops: u64) -> Self {
        self.offset_flops = flops;
        self
    }

    /// The inter-wave delay loop (kept observable so the optimizer cannot
    /// remove it).
    fn wave_offset(&self) {
        let mut x = 1.000000001f64;
        for _ in 0..self.offset_flops {
            x *= 1.000000001;
        }
        std::hint::black_box(x);
    }

    /// Path of one rank's file under `dir` for output step `step`.
    pub fn rank_path(dir: &Path, step: usize, rank: usize) -> PathBuf {
        dir.join(format!("step{step:06}_rank{rank:06}.bin"))
    }

    /// Run this rank's `write` of its own file (`bytes` long) in its wave.
    ///
    /// Every rank must call this (it synchronizes on barriers). Returns the
    /// wave index this rank wrote in. A rank whose own write fails still
    /// reaches every barrier and reports the error afterwards — returning
    /// early would strand its peers at the barrier.
    pub fn write<E>(
        &self,
        comm: &Comm,
        bytes: u64,
        write: impl FnOnce() -> Result<(), E>,
    ) -> Result<usize, E> {
        let _span = comm
            .tracer()
            .map(|t| t.span_bytes("io_wave_write", Category::Io, bytes));
        let my_wave = comm.rank() / self.wave_size;
        let n_waves = comm.size().div_ceil(self.wave_size);
        for _ in 0..my_wave {
            // Ranks in later waves burn the configured multiplication
            // budget so waves stay offset in time, and everyone waits for
            // each wave to finish before the next begins.
            self.wave_offset();
            comm.barrier();
        }
        let t0 = Instant::now();
        let written = write();
        if let (Ok(()), Some(t)) = (&written, comm.tracer()) {
            t.io("wave_file", bytes, t0);
        }
        for _ in my_wave..n_waves {
            comm.barrier();
        }
        written.map(|()| my_wave)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mfc_mpsim_io_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The throttled write of `data` as raw bytes to `c`'s file for `step`.
    fn write_raw(
        w: &WaveWriter,
        c: &Comm,
        dir: &Path,
        step: usize,
        data: &[u8],
    ) -> std::io::Result<usize> {
        let path = WaveWriter::rank_path(dir, step, c.rank());
        w.write(c, data.len() as u64, || std::fs::write(path, data))
    }

    fn read_raw(dir: &Path, step: usize, rank: usize) -> Vec<u8> {
        std::fs::read(WaveWriter::rank_path(dir, step, rank)).unwrap()
    }

    #[test]
    fn wave_writer_round_trips_per_rank_data() {
        let dir = tmpdir("wave");
        let n = 6;
        World::run(n, |c| {
            let data: Vec<u8> = (0..4).map(|i| (c.rank() * 10 + i) as u8).collect();
            write_raw(&WaveWriter::new(2), &c, &dir, 3, &data).unwrap();
        });
        for rank in 0..n {
            assert_eq!(
                read_raw(&dir, 3, rank),
                (0..4).map(|i| (rank * 10 + i) as u8).collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wave_indices_partition_ranks() {
        let dir = tmpdir("waveidx");
        let waves = World::run(5, |c| {
            write_raw(&WaveWriter::new(2), &c, &dir, 0, &[c.rank() as u8]).unwrap()
        });
        assert_eq!(waves, vec![0, 0, 1, 1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_reaches_every_barrier_and_reports_afterwards() {
        // Regression: rank 1's file cannot be created (a directory sits at
        // its path). It used to return before its barriers, leaving ranks
        // 0 and 2 waiting forever; now every rank returns and only rank 1
        // carries the error.
        let dir = tmpdir("wavefail");
        std::fs::create_dir(WaveWriter::rank_path(&dir, 5, 1)).unwrap();
        let outcomes = World::run(3, |c| {
            write_raw(&WaveWriter::new(1), &c, &dir, 5, &[c.rank() as u8]).is_ok()
        });
        assert_eq!(outcomes, vec![true, false, true]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_spares_do_not_strand_the_wave_barriers() {
        // The barrier spans the roster, not the physical world: a hot
        // spare parked outside the decomposition never arrives at it.
        use crate::fault::{FaultCtx, FaultPlan};
        use std::sync::Arc;
        let dir = tmpdir("wavespare");
        let faults = Arc::new(FaultCtx::new_with_spares(FaultPlan::none(), 2, 1));
        World::run_with_spares(2, 1, Arc::clone(&faults), |c| {
            if c.is_spare() {
                faults.board.spare_wait(c.phys_rank());
                return;
            }
            write_raw(&WaveWriter::new(1), &c, &dir, 0, &[c.rank() as u8]).unwrap();
            faults.board.shutdown();
        });
        for rank in 0..2 {
            assert_eq!(read_raw(&dir, 0, rank), vec![rank as u8]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offset_flops_do_not_change_results() {
        let dir = tmpdir("waveoffset");
        World::run(4, |c| {
            let writer = WaveWriter::new(1).with_offset_flops(10_000);
            write_raw(&writer, &c, &dir, 2, &[c.rank() as u8]).unwrap();
        });
        for rank in 0..4 {
            assert_eq!(read_raw(&dir, 2, rank), vec![rank as u8]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
