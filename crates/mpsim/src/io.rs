//! Parallel output strategies (§III-A).
//!
//! Before Frontier MFC wrote one shared binary file via collective MPI I/O.
//! At 65,536 GCDs the metadata storm of creating shared files made a
//! file-per-process approach faster — *if* file creation is throttled:
//! "write access is allowed in waves of 128 processes".  Both writers are
//! implemented here; the wave throttling is real (ranks outside the active
//! wave block on barriers), the parallel-filesystem contention is not.

use std::fs::File;
use std::io::{self, Read, Write};
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

    /// Write this rank's `data` to its own file, in waves.
    ///
    /// Every rank must call this (it synchronizes on barriers). Returns the
    /// wave index this rank wrote in. A rank whose own write fails still
    /// reaches every barrier and reports the error afterwards — returning
    /// early would strand its peers at the barrier.
    pub fn write(&self, comm: &Comm, dir: &Path, step: usize, data: &[f64]) -> io::Result<usize> {
        let _span = comm
            .tracer()
            .map(|t| t.span_bytes("io_wave_write", Category::Io, (data.len() * 8) as u64));
        let my_wave = comm.rank() / self.wave_size;
        let n_waves = comm.size().div_ceil(self.wave_size);
        let mut written = Ok(());
        for wave in 0..n_waves {
            if wave == my_wave {
                let t0 = Instant::now();
                written = File::create(Self::rank_path(dir, step, comm.rank()))
                    .and_then(|mut f| write_doubles(&mut f, data));
                if let (Ok(()), Some(t)) = (&written, comm.tracer()) {
                    t.io("wave_file", (data.len() * 8) as u64, t0);
                }
            } else if wave < my_wave {
                // Ranks in later waves burn the configured multiplication
                // budget so waves stay offset in time.
                self.wave_offset();
            }
            // The offset between waves: everyone waits for the wave to finish
            // before the next begins.
            comm.barrier();
        }
        written.map(|()| my_wave)
    }

    /// Read one rank's file back.
    pub fn read(dir: &Path, step: usize, rank: usize) -> io::Result<Vec<f64>> {
        let mut f = File::open(Self::rank_path(dir, step, rank))?;
        read_doubles(&mut f)
    }
}

/// Shared-file writer: every rank's block lands in one file at its rank
/// offset, in rank order (stand-in for collective MPI I/O into one binary).
///
/// Implemented by gathering to rank 0, which performs the single write —
/// the serialization point is exactly why this approach stopped scaling.
#[derive(Debug, Clone, Default)]
pub struct SharedFileWriter;

impl SharedFileWriter {
    pub fn shared_path(dir: &Path, step: usize) -> PathBuf {
        dir.join(format!("step{step:06}_shared.bin"))
    }

    /// Every rank contributes `data`; rank 0 writes the concatenation in
    /// rank order. All blocks must have equal length (uniform blocks).
    pub fn write(&self, comm: &mut Comm, dir: &Path, step: usize, data: &[f64]) -> io::Result<()> {
        let blocks = comm.gather(data.to_vec());
        if let Some(blocks) = blocks {
            let len0 = blocks[0].len();
            assert!(
                blocks.iter().all(|b| b.len() == len0),
                "shared-file writer requires uniform block sizes"
            );
            let mut f = File::create(Self::shared_path(dir, step))?;
            for b in &blocks {
                write_doubles(&mut f, b)?;
            }
        }
        comm.barrier();
        Ok(())
    }

    /// Read rank `rank`'s block of `block_len` doubles back from the shared
    /// file.
    pub fn read_block(
        dir: &Path,
        step: usize,
        rank: usize,
        block_len: usize,
    ) -> io::Result<Vec<f64>> {
        let bytes = std::fs::read(Self::shared_path(dir, step))?;
        let start = rank * block_len * 8;
        let end = start + block_len * 8;
        if end > bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "block extends past end of shared file",
            ));
        }
        Ok(bytes[start..end]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn write_doubles(w: &mut impl Write, data: &[f64]) -> io::Result<()> {
    let mut buf = io::BufWriter::new(w);
    for v in data {
        buf.write_all(&v.to_le_bytes())?;
    }
    buf.flush()
}

fn read_doubles(r: &mut impl Read) -> io::Result<Vec<f64>> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    if bytes.len() % 8 != 0 {
        // A payload that is not a whole number of doubles is a truncated
        // or corrupt wave file; decoding the prefix would silently lose
        // the tail.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "wave file payload of {} bytes is not a multiple of 8",
                bytes.len()
            ),
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
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

    #[test]
    fn wave_writer_round_trips_per_rank_data() {
        let dir = tmpdir("wave");
        let n = 6;
        World::run(n, |c| {
            let data: Vec<f64> = (0..4).map(|i| (c.rank() * 10 + i) as f64).collect();
            WaveWriter::new(2).write(&c, &dir, 3, &data).unwrap();
        });
        for rank in 0..n {
            let back = WaveWriter::read(&dir, 3, rank).unwrap();
            assert_eq!(
                back,
                (0..4).map(|i| (rank * 10 + i) as f64).collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wave_indices_partition_ranks() {
        let dir = tmpdir("waveidx");
        let waves = World::run(5, |c| {
            WaveWriter::new(2)
                .write(&c, &dir, 0, &[c.rank() as f64])
                .unwrap()
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
            WaveWriter::new(1)
                .write(&c, &dir, 5, &[c.rank() as f64])
                .is_ok()
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
            WaveWriter::new(1)
                .write(&c, &dir, 0, &[c.rank() as f64])
                .unwrap();
            faults.board.shutdown();
        });
        for rank in 0..2 {
            assert_eq!(WaveWriter::read(&dir, 0, rank).unwrap(), vec![rank as f64]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offset_flops_do_not_change_results() {
        let dir = tmpdir("waveoffset");
        World::run(4, |c| {
            WaveWriter::new(1)
                .with_offset_flops(10_000)
                .write(&c, &dir, 2, &[c.rank() as f64])
                .unwrap();
        });
        for rank in 0..4 {
            assert_eq!(WaveWriter::read(&dir, 2, rank).unwrap(), vec![rank as f64]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_file_blocks_land_at_rank_offsets() {
        let dir = tmpdir("shared");
        let n = 4;
        World::run(n, |mut c| {
            let data = vec![c.rank() as f64; 3];
            SharedFileWriter.write(&mut c, &dir, 1, &data).unwrap();
        });
        for rank in 0..n {
            let back = SharedFileWriter::read_block(&dir, 1, rank, 3).unwrap();
            assert_eq!(back, vec![rank as f64; 3]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_file_read_past_end_errors() {
        let dir = tmpdir("sharederr");
        World::run(2, |mut c| {
            SharedFileWriter.write(&mut c, &dir, 0, &[1.0]).unwrap();
        });
        assert!(SharedFileWriter::read_block(&dir, 0, 2, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_wave_file_is_a_typed_error_not_a_panic_or_silent_drop() {
        // Regression: a wave file whose byte length is not a multiple of
        // 8 must surface as InvalidData — neither panic nor silently
        // decode the prefix and drop the tail.
        let dir = tmpdir("wavetrunc");
        World::run(1, |c| {
            WaveWriter::new(1).write(&c, &dir, 0, &[1.0, 2.0]).unwrap();
        });
        let path = WaveWriter::rank_path(&dir, 0, 0);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len(), 16);
        std::fs::write(&path, &full[..11]).unwrap();

        let err = WaveWriter::read(&dir, 0, 0).expect_err("truncated payload must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("multiple of 8"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
