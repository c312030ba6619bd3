//! Checkpoint/restart — MFC's restart files, which are what its I/O
//! subsystem (§III-A) writes: the conservative state at an output step,
//! from which a later job resumes.
//!
//! Format (v1, magic `MFCKPT01`):
//!
//! ```text
//! [ 8 bytes magic "MFCKPT01" ]
//! [ u64 LE header length     ]
//! [ u32 LE CRC-32/IEEE of header JSON ++ payload ]
//! [ JSON header: domain extents, ghost width, fluid count, time, step ]
//! [ raw little-endian f64 state, ghost cells included ]
//! ```
//!
//! Checkpoints are the durable state every rollback depends on, so the
//! writer is crash-safe (temp file + atomic rename: a torn write never
//! replaces a good checkpoint) and the reader verifies the CRC, rejecting
//! truncated or bit-flipped files with a typed [`CheckpointError`] instead
//! of producing silent garbage. A restarted run continues **bitwise**
//! identically — which the integration test asserts.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::domain::Domain;
use crate::eqidx::EqIdx;
use crate::state::StateField;

/// File magic: 8 bytes, versioned.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"MFCKPT01";

/// Why a checkpoint failed to save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the checkpoint magic.
    NotACheckpoint,
    /// The file ends before the declared header + payload.
    Truncated { found: usize, expected: usize },
    /// Header/payload bytes do not match the stored CRC-32.
    CrcMismatch { stored: u32, computed: u32 },
    /// The header is not valid JSON (or declares an implausible size).
    BadHeader(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::NotACheckpoint => {
                write!(
                    f,
                    "missing {CHECKPOINT_MAGIC:?} magic: not a checkpoint file"
                )
            }
            CheckpointError::Truncated { found, expected } => {
                write!(
                    f,
                    "truncated checkpoint: {found} bytes, expected {expected}"
                )
            }
            CheckpointError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::BadHeader(e) => write!(f, "bad checkpoint header: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Table-driven CRC-32/IEEE (polynomial `0xEDB88320`), built at compile
/// time — no external dependency.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental CRC-32/IEEE.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(!0)
    }
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Header of a checkpoint file.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CheckpointHeader {
    pub n: [usize; 3],
    pub ng: usize,
    pub nf: usize,
    pub ndim: usize,
    pub t: f64,
    pub steps: u64,
}

impl CheckpointHeader {
    pub fn domain(&self) -> Domain {
        Domain::new(self.n, self.ng, EqIdx::new(self.nf, self.ndim))
    }
}

/// Path of rank `rank`'s checkpoint file for wave `wave` under `dir` —
/// the per-rank naming used by the distributed driver
/// ([`crate::par::run_distributed_resilient`]), whose checkpoint layer
/// writes one such file per rank every `checkpoint_every` steps. (Its
/// wave-file *output* layer is separate: [`crate::par::WaveOutput`].)
pub fn wave_path(dir: &Path, rank: usize, wave: u64) -> PathBuf {
    dir.join(format!("ckpt_r{rank}_w{wave}.bin"))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Write a checkpoint of `q` at simulation time `t` / step `steps`.
///
/// Crash-safe: the bytes land in `<path>.tmp` first and only an atomic
/// rename publishes them, so a crash mid-write leaves any previous
/// checkpoint at `path` intact.
pub fn save_checkpoint(
    path: &Path,
    q: &StateField,
    t: f64,
    steps: u64,
) -> Result<(), CheckpointError> {
    let dom = *q.domain();
    let header = CheckpointHeader {
        n: dom.n,
        ng: dom.ng,
        nf: dom.eq.nf(),
        ndim: dom.eq.ndim(),
        t,
        steps,
    };
    let hjson =
        serde_json::to_string(&header).map_err(|e| CheckpointError::BadHeader(e.to_string()))?;
    let mut crc = Crc32::new();
    crc.update(hjson.as_bytes());
    for v in q.as_slice() {
        crc.update(&v.to_le_bytes());
    }

    let tmp = tmp_path(path);
    let write = || -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        w.write_all(CHECKPOINT_MAGIC)?;
        w.write_all(&(hjson.len() as u64).to_le_bytes())?;
        w.write_all(&crc.finish().to_le_bytes())?;
        w.write_all(hjson.as_bytes())?;
        for v in q.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
        w.flush()?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        CheckpointError::Io(e)
    })
}

/// Read a checkpoint back: returns the header and the state.
///
/// Rejects files without the magic, with a truncated header or payload,
/// or whose CRC-32 does not match — the resilient driver treats any of
/// these as "this wave is gone" and rolls back further.
pub fn load_checkpoint(path: &Path) -> Result<(CheckpointHeader, StateField), CheckpointError> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 8];
    read_or_truncated(&mut r, &mut magic, 8)?;
    if &magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::NotACheckpoint);
    }
    let mut len8 = [0u8; 8];
    read_or_truncated(&mut r, &mut len8, 16)?;
    let hlen = u64::from_le_bytes(len8) as usize;
    if hlen > 1 << 20 {
        return Err(CheckpointError::BadHeader(format!(
            "implausible header length {hlen}"
        )));
    }
    let mut crc4 = [0u8; 4];
    read_or_truncated(&mut r, &mut crc4, 20)?;
    let stored = u32::from_le_bytes(crc4);

    let mut hbuf = vec![0u8; hlen];
    read_or_truncated(&mut r, &mut hbuf, 20 + hlen)?;
    let header: CheckpointHeader =
        serde_json::from_slice(&hbuf).map_err(|e| CheckpointError::BadHeader(e.to_string()))?;
    let dom = header.domain();
    let mut q = StateField::zeros(dom);
    let expect = q.as_slice().len() * 8;
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    if bytes.len() != expect {
        return Err(CheckpointError::Truncated {
            found: 20 + hlen + bytes.len(),
            expected: 20 + hlen + expect,
        });
    }
    let mut crc = Crc32::new();
    crc.update(&hbuf);
    crc.update(&bytes);
    let computed = crc.finish();
    if computed != stored {
        return Err(CheckpointError::CrcMismatch { stored, computed });
    }
    for (slot, chunk) in q.as_mut_slice().iter_mut().zip(bytes.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(chunk);
        *slot = f64::from_le_bytes(le);
    }
    Ok((header, q))
}

/// Rebuild one rank's state for a **new** decomposition from the wave
/// shards of an **old** one — the state-redistribution step of
/// shrink-and-continue recovery.
///
/// The caller owns global interior cells `off .. off + dom.n` under the
/// new layout; each old rank's block under `(old_dims, old_size)` is
/// located with [`mfc_mpsim::block_extents`], every shard that intersects
/// is loaded (CRC-verified like any checkpoint), and exactly the owned
/// cells are copied across. Ghost layers are left zeroed: every consumer
/// of post-rollback state refreshes ghosts via halo exchange + boundary
/// conditions before reading them, which is what makes the redistributed
/// trajectory bitwise identical to a fresh run from this wave at the new
/// rank count.
///
/// All intersecting shards must agree on `(t, steps)` bitwise and carry
/// the layout the old decomposition implies; anything else is a
/// [`CheckpointError::BadHeader`], which the collective rollback treats
/// as "this wave is gone" and walks back further.
pub fn load_redistributed(
    dir: &Path,
    wave: u64,
    old_dims: [usize; 3],
    old_size: usize,
    global_n: [usize; 3],
    dom: Domain,
    off: [usize; 3],
) -> Result<(CheckpointHeader, StateField), CheckpointError> {
    let eq = dom.eq;
    let ndim = eq.ndim();
    let mut q = StateField::zeros(dom);
    let mut meta: Option<(f64, u64)> = None;
    let my_hi = [off[0] + dom.n[0], off[1] + dom.n[1], off[2] + dom.n[2]];
    for old in 0..old_size {
        let (ooff, on) = mfc_mpsim::block_extents(old, old_dims, global_n, ndim);
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        let mut empty = false;
        for d in 0..3 {
            lo[d] = off[d].max(ooff[d]);
            hi[d] = my_hi[d].min(ooff[d] + on[d]);
            empty |= lo[d] >= hi[d];
        }
        if empty {
            continue;
        }
        let (h, oldq) = load_checkpoint(&wave_path(dir, old, wave))?;
        if h.n != on || h.ng != dom.ng || h.nf != eq.nf() || h.ndim != ndim {
            return Err(CheckpointError::BadHeader(format!(
                "shard r{old} w{wave}: layout n={:?} ng={} nf={} ndim={} does not match \
                 the {:?}-block the old {old_dims:?} decomposition implies",
                h.n, h.ng, h.nf, h.ndim, on
            )));
        }
        match meta {
            None => meta = Some((h.t, h.steps)),
            Some((t, s)) if t.to_bits() == h.t.to_bits() && s == h.steps => {}
            Some((t, s)) => {
                return Err(CheckpointError::BadHeader(format!(
                    "shard r{old} w{wave} is at (t={}, step={}) but earlier shards are at \
                     (t={t}, step={s}); the wave is not a consistent snapshot",
                    h.t, h.steps
                )))
            }
        }
        let odom = *oldq.domain();
        for e in 0..eq.neq() {
            for gz in lo[2]..hi[2] {
                for gy in lo[1]..hi[1] {
                    for gx in lo[0]..hi[0] {
                        let (oi, oj, ok) =
                            odom.to_padded([gx - ooff[0], gy - ooff[1], gz - ooff[2]]);
                        let (ni, nj, nk) = dom.to_padded([gx - off[0], gy - off[1], gz - off[2]]);
                        q.set(ni, nj, nk, e, oldq.get(oi, oj, ok, e));
                    }
                }
            }
        }
    }
    let (t, steps) = meta.ok_or_else(|| {
        CheckpointError::BadHeader(format!(
            "no shard of the old {old_dims:?} decomposition intersects block at {off:?}"
        ))
    })?;
    let header = CheckpointHeader {
        n: dom.n,
        ng: dom.ng,
        nf: eq.nf(),
        ndim,
        t,
        steps,
    };
    Ok((header, q))
}

fn read_or_truncated(
    r: &mut impl Read,
    buf: &mut [u8],
    expected_so_far: usize,
) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated {
                found: 0,
                expected: expected_so_far,
            }
        } else {
            CheckpointError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;
    use crate::solver::{Solver, SolverConfig};
    use mfc_acc::Context;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mfc_ckpt_{name}_{}.bin", std::process::id()))
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical CRC-32/IEEE check value.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let case = presets::two_phase_benchmark(2, [12, 12, 1]);
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        solver.run_steps(3).unwrap();
        let path = tmp("roundtrip");
        save_checkpoint(&path, solver.state(), solver.time(), solver.steps()).unwrap();
        let (h, q) = load_checkpoint(&path).unwrap();
        assert_eq!(h.t, solver.time());
        assert_eq!(h.steps, 3);
        assert_eq!(q.as_slice(), solver.state().as_slice());
        // No temp file left behind.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn redistribution_reassembles_interiors_across_layouts() {
        use mfc_mpsim::{best_block_dims, block_extents};
        let eq = EqIdx::new(1, 2);
        let global = [12, 10, 1];
        let ng = 3;
        let dir = std::env::temp_dir().join(format!("mfc_redist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Write 4-rank shards of an analytic field (value = equation*1000
        // + global linear index), ghosts poisoned with NaN to prove the
        // redistribution never copies a ghost cell.
        let old_dims = best_block_dims(4, global);
        for r in 0..4 {
            let (off, n) = block_extents(r, old_dims, global, 2);
            let dom = Domain::new(n, ng, eq);
            let mut q = StateField::zeros(dom);
            q.fill(f64::NAN);
            for e in 0..eq.neq() {
                for gy in off[1]..off[1] + n[1] {
                    for gx in off[0]..off[0] + n[0] {
                        let (i, j, k) = dom.to_padded([gx - off[0], gy - off[1], 0]);
                        q.set(i, j, k, e, (e * 1000 + gy * 12 + gx) as f64);
                    }
                }
            }
            save_checkpoint(&wave_path(&dir, r, 5), &q, 0.25, 7).unwrap();
        }
        // Redistribute onto every smaller rank count.
        for new_ranks in [1usize, 2, 3] {
            let new_dims = best_block_dims(new_ranks, global);
            for r in 0..new_ranks {
                let (off, n) = block_extents(r, new_dims, global, 2);
                let dom = Domain::new(n, ng, eq);
                let (h, q) = load_redistributed(&dir, 5, old_dims, 4, global, dom, off).unwrap();
                assert_eq!(h.t, 0.25);
                assert_eq!(h.steps, 7);
                assert_eq!(h.n, n);
                for e in 0..eq.neq() {
                    for gy in off[1]..off[1] + n[1] {
                        for gx in off[0]..off[0] + n[0] {
                            let (i, j, k) = dom.to_padded([gx - off[0], gy - off[1], 0]);
                            assert_eq!(
                                q.get(i, j, k, e),
                                (e * 1000 + gy * 12 + gx) as f64,
                                "rank {r}/{new_ranks} cell ({gx},{gy}) eq {e}"
                            );
                        }
                    }
                }
            }
        }
        // A missing shard surfaces as a typed error, not garbage.
        std::fs::remove_file(wave_path(&dir, 0, 5)).unwrap();
        let (off, n) = block_extents(0, best_block_dims(2, global), global, 2);
        assert!(
            load_redistributed(&dir, 5, old_dims, 4, global, Domain::new(n, ng, eq), off).is_err()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_checkpoint_file_is_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::NotACheckpoint)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let case = presets::sod(16);
        let solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let path = tmp("trunc");
        save_checkpoint(&path, solver.state(), 0.0, 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_rejected_by_crc() {
        let case = presets::sod(16);
        let solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let path = tmp("bitflip");
        save_checkpoint(&path, solver.state(), 0.0, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10; // single bit flip in the payload
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_bit_flip_is_rejected() {
        let case = presets::sod(16);
        let solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let path = tmp("hdrflip");
        save_checkpoint(&path, solver.state(), 0.0, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the JSON header (starts at offset 20). Pick a
        // digit in the numeric fields so the JSON stays parseable.
        let pos = (20..bytes.len().min(120))
            .find(|&i| bytes[i].is_ascii_digit())
            .unwrap();
        bytes[pos] = if bytes[pos] == b'1' { b'2' } else { b'1' };
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_checkpoint(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
