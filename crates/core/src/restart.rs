//! Checkpoint/restart — MFC's restart files, which are what its I/O
//! subsystem (§III-A) writes: the conservative state at an output step,
//! from which a later job resumes.
//!
//! Every per-rank file the solver writes is one **block file** (v2, magic
//! `MFCKPT02`):
//!
//! ```text
//! [ 8 bytes magic "MFCKPT02" ]
//! [ u64 LE header length     ]
//! [ u32 LE CRC-32/IEEE of header JSON ++ payload ]
//! [ JSON header: block extents n, ghost width ng, fluids nf, ndim, time t,
//!   step, global interior cells, the writers' decomposition dims, and
//!   this block's offset off ]
//! [ raw little-endian f64 block: equation-major, x fastest, ghosts included ]
//! ```
//!
//! The file contract is the header and the interior cells. A padded
//! block's ghost bytes are whatever the writer's state held there — the
//! last BC or halo fill, or `0.0` after a rejected step or a re-shard —
//! and no reader may rely on them: every consumer refills ghosts before
//! reading them.
//!
//! The header names which block of which decomposition the file holds, so
//! a file set is read without knowing who wrote it:
//!
//! * a checkpoint wave (`ckpt_r{r}_w{w}.bin`, [`wave_path`]): each rank's
//!   padded block ([`save_block`]);
//! * a wave file (`step{s}_rank{r}.bin`, the end-of-run output): each
//!   rank's interior as an `ng = 0` block ([`save_interior`]);
//! * a crash dump: the block of the solver that gave up;
//! * a [`save_checkpoint`] file: the lone layout (the whole grid,
//!   `dims = [1, 1, 1]`).
//!
//! Checkpoints are the durable state every rollback depends on, so the
//! writer is crash-safe (temp file + fsync + atomic rename: a torn write
//! never replaces a good file) and the reader verifies length and CRC
//! *before* it trusts a header value, rejecting truncated, bit-flipped or
//! lying files with a typed [`CheckpointError`] instead of producing
//! silent garbage, panicking or allocating what the file does not hold.
//! [`load_block`] is the one reader of a file set: a rank's rollback (same
//! layout or re-shard) and `mfc-post`'s reassembly are both calls of it. A
//! restarted run continues **bitwise** identically — which the
//! integration tests assert.

use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mfc_mpsim::{block_extents, MAX_RANKS};
use serde::{Deserialize, Serialize};

use crate::domain::Domain;
use crate::eos::MAX_FLUIDS;
use crate::eqidx::EqIdx;
use crate::state::StateField;

/// File magic: 8 bytes, versioned.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"MFCKPT02";

/// Magic, header length and CRC.
const PREAMBLE: usize = 20;

/// Why a checkpoint failed to save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the checkpoint magic.
    NotACheckpoint,
    /// The file ends before (or runs past) the declared header + payload.
    Truncated { found: usize, expected: usize },
    /// Header/payload bytes do not match the stored CRC-32.
    CrcMismatch { stored: u32, computed: u32 },
    /// The header is not valid JSON, declares an impossible block, or
    /// disagrees with the rest of its file set.
    BadHeader(String),
    /// One file of a set failed to load.
    Shard(PathBuf, Box<CheckpointError>),
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
            CheckpointError::Shard(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Slicing-by-16 tables of CRC-32/IEEE (reflected polynomial
/// `0xEDB88320`), built at compile time — no external dependency.
/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
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
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Incremental CRC-32/IEEE, 16 bytes per step.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(!0)
    }
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize];
            for (k, &byte) in b[4..].iter().enumerate() {
                c ^= t[11 - k][byte as usize];
            }
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

/// Which block of which decomposition a block file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    /// Global interior cells.
    pub global: [usize; 3],
    /// Decomposition of the writing roster; its product is the roster size.
    pub dims: [usize; 3],
    /// This block's offset in the global grid.
    pub off: [usize; 3],
}

impl BlockLayout {
    /// The whole grid of `n` cells as one block.
    pub fn lone(n: [usize; 3]) -> Self {
        BlockLayout {
            global: n,
            dims: [1; 3],
            off: [0; 3],
        }
    }
}

/// Header of a block file.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CheckpointHeader {
    pub n: [usize; 3],
    pub ng: usize,
    pub nf: usize,
    pub ndim: usize,
    pub t: f64,
    pub steps: u64,
    /// Global interior cells.
    pub global: [usize; 3],
    /// Decomposition of the roster that wrote the file set.
    pub dims: [usize; 3],
    /// This block's offset in the global grid.
    pub off: [usize; 3],
}

impl CheckpointHeader {
    fn new(dom: &Domain, layout: BlockLayout, t: f64, steps: u64) -> Self {
        CheckpointHeader {
            n: dom.n,
            ng: dom.ng,
            nf: dom.eq.nf(),
            ndim: dom.eq.ndim(),
            t,
            steps,
            global: layout.global,
            dims: layout.dims,
            off: layout.off,
        }
    }

    pub fn domain(&self) -> Domain {
        Domain::new(self.n, self.ng, EqIdx::new(self.nf, self.ndim))
    }

    pub fn layout(&self) -> BlockLayout {
        BlockLayout {
            global: self.global,
            dims: self.dims,
            off: self.off,
        }
    }

    /// Payload bytes the header declares, `None` if that overflows. Reads
    /// unvalidated values, so every step is checked.
    fn payload_len(&self) -> Option<usize> {
        let neq = self.nf.checked_mul(2)?.checked_add(self.ndim)?;
        (0..3).try_fold(neq.checked_mul(8)?, |len, d| {
            let pad = self.ng.checked_mul(2)? * usize::from(d < self.ndim);
            len.checked_mul(self.n[d].checked_add(pad)?)
        })
    }

    /// Every range [`CheckpointHeader::domain`] and a reader rely on.
    fn validate(&self) -> Result<(), CheckpointError> {
        let roster = self.dims.iter().try_fold(1usize, |p, &d| p.checked_mul(d));
        // An active axis holds a block at least as wide as its halo; an
        // inactive one is a single unsplit cell.
        let fits = |d: usize| {
            let hi = self.off[d].checked_add(self.n[d]);
            let flat = self.n[d] == 1 && self.global[d] == 1 && self.dims[d] == 1;
            let shape = (d < self.ndim && self.n[d] >= self.ng.max(1)) || (d >= self.ndim && flat);
            shape && hi.is_some_and(|hi| hi <= self.global[d])
        };
        let checks = [
            ((1..=MAX_FLUIDS).contains(&self.nf), "nf out of range"),
            ((1..=3).contains(&self.ndim), "ndim out of range"),
            (
                roster.is_some_and(|p| (1..=MAX_RANKS).contains(&p)),
                "dims not a roster",
            ),
            ((0..3).all(fits), "block outside its grid"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, what)) => Err(CheckpointError::BadHeader(format!("{what}: {self:?}"))),
            None => Ok(()),
        }
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

/// Write a checkpoint of `q` at simulation time `t` / step `steps`, as
/// the lone layout: the whole grid, written by one rank.
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
    save_block(path, q, BlockLayout::lone(q.domain().n), t, steps)
}

/// Write `q`, ghost cells included, as the block `layout` places in its
/// decomposition: a rank's checkpoint-wave shard or crash dump. The ghost
/// bytes are `q`'s last fill, not part of the file contract.
pub fn save_block(
    path: &Path,
    q: &StateField,
    layout: BlockLayout,
    t: f64,
    steps: u64,
) -> Result<(), CheckpointError> {
    let header = CheckpointHeader::new(q.domain(), layout, t, steps);
    write_file(path, &header, q.as_slice())
}

/// Write `q`'s interior as an `ng = 0` block at `layout`: a rank's wave
/// file, in [`crate::output::block_to_vec`]'s order.
pub fn save_interior(
    path: &Path,
    q: &StateField,
    layout: BlockLayout,
    t: f64,
    steps: u64,
) -> Result<(), CheckpointError> {
    let mut dom = *q.domain();
    dom.ng = 0;
    let header = CheckpointHeader::new(&dom, layout, t, steps);
    write_file(path, &header, &crate::output::block_to_vec(q))
}

/// Bytes of payload serialised per write: a fixed buffer, never one the
/// size of the payload (which would add the block's size to peak RSS).
const WRITE_CHUNK: usize = 64 << 10;

/// The one writer of block files: magic, length, CRC, header, payload,
/// through `<path>.tmp` + fsync + rename. The payload streams through one
/// buffer of at most [`WRITE_CHUNK`] bytes, CRC'd as it is written; the
/// CRC's slot is written last, before the fsync.
fn write_file(
    path: &Path,
    header: &CheckpointHeader,
    payload: &[f64],
) -> Result<(), CheckpointError> {
    let hjson =
        serde_json::to_string(header).map_err(|e| CheckpointError::BadHeader(e.to_string()))?;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let write = || -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        let mut crc = Crc32::new();
        crc.update(hjson.as_bytes());
        let mut head = Vec::with_capacity(PREAMBLE + hjson.len());
        head.extend_from_slice(CHECKPOINT_MAGIC);
        head.extend_from_slice(&(hjson.len() as u64).to_le_bytes());
        head.extend_from_slice(&[0; 4]);
        head.extend_from_slice(hjson.as_bytes());
        f.write_all(&head)?;
        let mut buf = vec![0u8; WRITE_CHUNK.min(8 * payload.len())];
        for vals in payload.chunks(WRITE_CHUNK / 8) {
            let bytes = &mut buf[..8 * vals.len()];
            for (b, v) in bytes.chunks_exact_mut(8).zip(vals) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            crc.update(bytes);
            f.write_all(bytes)?;
        }
        f.seek(SeekFrom::Start(PREAMBLE as u64 - 4))?;
        f.write_all(&crc.finish().to_le_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        CheckpointError::Io(e)
    })
}

/// Read one block file back: returns the header and the state.
///
/// Rejects files without the magic, with a truncated header or payload,
/// whose CRC-32 does not match, or whose header declares an impossible
/// block — the resilient driver treats any of these as "this wave is
/// gone" and rolls back further. Nothing is allocated beyond the file's
/// own size: the payload length is checked against the header before the
/// CRC, and the header's ranges after it, before any state is built.
pub fn load_checkpoint(path: &Path) -> Result<(CheckpointHeader, StateField), CheckpointError> {
    let bytes = std::fs::read(path)?;
    let truncated = |expected| CheckpointError::Truncated {
        found: bytes.len(),
        expected,
    };
    let magic = bytes.get(..8).ok_or_else(|| truncated(8))?;
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::NotACheckpoint);
    }
    let (pre, body) = bytes
        .split_at_checked(PREAMBLE)
        .ok_or_else(|| truncated(PREAMBLE))?;
    let hlen = u64::from_le_bytes(pre[8..16].try_into().expect("an 8-byte slice"));
    let hlen = usize::try_from(hlen).unwrap_or(usize::MAX);
    let stored = u32::from_le_bytes(pre[16..].try_into().expect("a 4-byte slice"));
    if hlen > body.len() {
        return Err(truncated(PREAMBLE.saturating_add(hlen)));
    }
    let (hjson, payload) = body.split_at(hlen);
    let header: CheckpointHeader =
        serde_json::from_slice(hjson).map_err(|e| CheckpointError::BadHeader(e.to_string()))?;
    let expect = header
        .payload_len()
        .ok_or_else(|| CheckpointError::BadHeader(format!("block size overflows: {header:?}")))?;
    if payload.len() != expect {
        return Err(truncated((PREAMBLE + hlen).saturating_add(expect)));
    }
    let mut crc = Crc32::new();
    crc.update(hjson);
    crc.update(payload);
    let computed = crc.finish();
    if computed != stored {
        return Err(CheckpointError::CrcMismatch { stored, computed });
    }
    header.validate()?;
    let mut q = StateField::zeros(header.domain());
    for (slot, chunk) in q.as_mut_slice().iter_mut().zip(payload.chunks_exact(8)) {
        *slot = f64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
    }
    Ok((header, q))
}

/// [`load_checkpoint`] of one file of a set, naming the file on failure.
pub(crate) fn load_shard(path: PathBuf) -> Result<(CheckpointHeader, StateField), CheckpointError> {
    load_checkpoint(&path).map_err(|e| CheckpointError::Shard(path, Box::new(e)))
}

/// Fill the block `dom` at `at` from one file set, whose rank-`r` file is
/// `shard(r)`: a rollback onto the current or a shrunk decomposition, or
/// `mfc-post` onto the whole grid.
///
/// If the caller's own file `shard(me)` declares exactly this block (same
/// `global`, `dims`, `off`, extents and ghost width) it is returned whole,
/// ghost cells included — the writer's last fill, which nothing reads
/// before refilling it: one file read. Otherwise the writers'
/// decomposition comes from that file's header — from shard 0's if the
/// caller's own file does not load — and exactly the owned cells are
/// copied from every shard that intersects the block. Ghost layers are
/// then left zeroed: every consumer of post-rollback state refreshes
/// ghosts via halo exchange + boundary conditions before reading them,
/// which is what makes a re-sharded trajectory bitwise identical to a
/// fresh run from this wave at the new rank count.
///
/// Each shard read must declare the block its decomposition implies, and
/// all must agree on `global`, `dims`, `t` (bitwise) and `steps`; together
/// they must hold at least the block's bytes before it is allocated.
/// Anything else is a typed error, which the collective rollback treats
/// as "this wave is gone". The returned header describes the filled
/// block, except `dims`, which names the decomposition that wrote it.
pub fn load_block(
    shard: impl Fn(usize) -> PathBuf,
    me: usize,
    dom: Domain,
    at: BlockLayout,
) -> Result<(CheckpointHeader, StateField), CheckpointError> {
    let writers = match load_shard(shard(me)) {
        Ok((h, q)) if h.layout() == at && *q.domain() == dom => return Ok((h, q)),
        Ok((h, _)) => h,
        Err(_) => load_shard(shard(0))?.0,
    };
    let (eq, dims) = (dom.eq, writers.dims);
    let top = [0, 1, 2].map(|d| at.off[d] + dom.n[d]);
    let mut parts = Vec::new();
    let mut held = 0u64;
    for r in 0..dims.iter().product() {
        let (woff, wn) = block_extents(r, dims, at.global, eq.ndim());
        let lo = [0, 1, 2].map(|d| at.off[d].max(woff[d]));
        let hi = [0, 1, 2].map(|d| top[d].min(woff[d] + wn[d]));
        if (0..3).all(|d| lo[d] < hi[d]) {
            let path = shard(r);
            let meta = std::fs::metadata(&path);
            held += meta
                .map_err(|e| CheckpointError::Shard(path, Box::new(e.into())))?
                .len();
            parts.push((r, woff, wn, lo, hi));
        }
    }
    // However the headers lie, the block is not allocated before the set
    // is known to hold its bytes.
    let need = dom
        .n
        .iter()
        .try_fold(eq.neq() * 8, |b, &n| b.checked_mul(n));
    if need.is_none_or(|need| held < need as u64) {
        let why = format!(
            "the {dims:?} set holds {held} bytes, too few for {:?}",
            dom.n
        );
        return Err(CheckpointError::BadHeader(why));
    }
    let mut q = StateField::zeros(dom);
    for (r, woff, wn, lo, hi) in parts {
        let (h, src) = load_shard(shard(r))?;
        let layout = (h.global, h.dims, h.off, h.n, h.nf, h.ndim);
        let snapshot = (h.t.to_bits(), h.steps) == (writers.t.to_bits(), writers.steps);
        if layout != (at.global, dims, woff, wn, eq.nf(), eq.ndim()) || !snapshot {
            return Err(CheckpointError::BadHeader(format!(
                "{}: {h:?} is not the {wn:?}-cell block at {woff:?} of {:?} the set implies",
                shard(r).display(),
                at.global
            )));
        }
        let sdom = *src.domain();
        for e in 0..eq.neq() {
            for gz in lo[2]..hi[2] {
                for gy in lo[1]..hi[1] {
                    for gx in lo[0]..hi[0] {
                        let (si, sj, sk) =
                            sdom.to_padded([gx - woff[0], gy - woff[1], gz - woff[2]]);
                        let (ni, nj, nk) =
                            dom.to_padded([gx - at.off[0], gy - at.off[1], gz - at.off[2]]);
                        q.set(ni, nj, nk, e, src.get(si, sj, sk, e));
                    }
                }
            }
        }
    }
    let header = CheckpointHeader {
        n: dom.n,
        ng: dom.ng,
        global: at.global,
        off: at.off,
        ..writers
    };
    Ok((header, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;
    use crate::solver::{Solver, SolverConfig};
    use mfc_acc::Context;
    use mfc_mpsim::{best_block_dims, WaveWriter};
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mfc_ckpt_{name}_{}.bin", std::process::id()))
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mfc_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Rank `r`'s block of `dims` over `global`: value = equation*1000 +
    /// global linear index (row length 12), ghosts poisoned with NaN.
    fn analytic_block(
        eq: EqIdx,
        global: [usize; 3],
        dims: [usize; 3],
        r: usize,
    ) -> (StateField, BlockLayout) {
        let (off, n) = block_extents(r, dims, global, eq.ndim());
        let dom = Domain::new(n, 3, eq);
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
        (q, BlockLayout { global, dims, off })
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical CRC-32/IEEE check value, through the 16-byte path
        // and the byte tail alike.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
        let long = b"123456789123456789123456789";
        let mut c = Crc32::new();
        c.update(long);
        assert_eq!(c.finish(), crc_bitwise(long));
    }

    /// Bit-at-a-time CRC-32/IEEE, the reference of the table-driven one.
    fn crc_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Slicing-by-16 equals the bit-at-a-time reference on any buffer,
        /// however it is split between two updates.
        #[test]
        fn slicing_crc_matches_the_bytewise_reference_at_every_split(
            bytes in proptest::collection::vec(0u8..=255, 0..=4096)
        ) {
            let want = crc_bitwise(&bytes);
            for k in 0..=bytes.len() {
                let mut c = Crc32::new();
                c.update(&bytes[..k]);
                c.update(&bytes[k..]);
                prop_assert_eq!(c.finish(), want, "split at {}", k);
            }
        }
    }

    /// The block-file writer before it streamed through a fixed buffer:
    /// the CRC first, then one `write_all` per payload value.
    fn write_file_per_value(path: &Path, header: &CheckpointHeader, payload: &[f64]) {
        let hjson = serde_json::to_string(header).unwrap();
        let mut crc = Crc32::new();
        crc.update(hjson.as_bytes());
        for v in payload {
            crc.update(&v.to_le_bytes());
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path).unwrap());
        w.write_all(CHECKPOINT_MAGIC).unwrap();
        w.write_all(&(hjson.len() as u64).to_le_bytes()).unwrap();
        w.write_all(&crc.finish().to_le_bytes()).unwrap();
        w.write_all(hjson.as_bytes()).unwrap();
        for v in payload {
            w.write_all(&v.to_le_bytes()).unwrap();
        }
        w.flush().unwrap();
    }

    /// The streaming writer's files are byte-identical to the per-value
    /// writer's, for payloads of no chunk, part of one, exactly one, and
    /// several chunks plus a partial one, with signed zeros, NaNs and
    /// subnormals in them.
    #[test]
    fn block_file_is_byte_identical_to_the_per_value_writer() {
        let dom = Domain::new([4, 3, 1], 2, EqIdx::new(2, 2));
        let header = CheckpointHeader::new(&dom, BlockLayout::lone(dom.n), 0.125, 7);
        let chunk = WRITE_CHUNK / 8;
        for len in [0, 1, 5, chunk - 1, chunk, chunk + 1, 3 * chunk + 17] {
            let payload: Vec<f64> = (0..len)
                .map(|i| match i % 5 {
                    0 => -0.0,
                    1 => f64::from_bits(0x7FF8_0000_0000_0000 | i as u64),
                    2 => f64::MIN_POSITIVE / (i + 2) as f64,
                    _ => (i as f64 * 0.37).sin() * 1e3,
                })
                .collect();
            let (new, old) = (
                tmp(&format!("stream{len}")),
                tmp(&format!("per_value{len}")),
            );
            write_file(&new, &header, &payload).unwrap();
            write_file_per_value(&old, &header, &payload);
            let (a, b) = (std::fs::read(&new).unwrap(), std::fs::read(&old).unwrap());
            assert!(a == b, "payload of {len} values: the files differ");
            std::fs::remove_file(&new).unwrap();
            std::fs::remove_file(&old).unwrap();
        }
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
        assert_eq!(h.layout(), BlockLayout::lone([12, 12, 1]));
        assert_eq!(q.as_slice(), solver.state().as_slice());
        // No temp file left behind.
        assert!(!Path::new(&format!("{}.tmp", path.display())).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn redistribution_reassembles_interiors_across_layouts() {
        let eq = EqIdx::new(1, 2);
        let global = [12, 10, 1];
        let dir = tmpdir("redist");
        let shard = |r: usize| wave_path(&dir, r, 5);
        // 4-rank shards of an analytic field, ghosts poisoned with NaN to
        // prove a re-shard never copies a ghost cell.
        let old_dims = best_block_dims(4, global);
        let mut written = Vec::new();
        for r in 0..4 {
            let (q, layout) = analytic_block(eq, global, old_dims, r);
            save_block(&shard(r), &q, layout, 0.25, 7).unwrap();
            written.push((q, layout));
        }
        // The writers' own layout is a direct read, ghosts included.
        for (r, (q, layout)) in written.iter().enumerate() {
            let (h, back) = load_block(shard, r, *q.domain(), *layout).unwrap();
            assert_eq!(h.layout(), *layout);
            let bits =
                |f: &StateField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(q), "rank {r}: direct read");
        }
        // Re-shard onto every smaller rank count.
        for new_ranks in [1usize, 2, 3] {
            let new_dims = best_block_dims(new_ranks, global);
            for r in 0..new_ranks {
                let (off, n) = block_extents(r, new_dims, global, 2);
                let dom = Domain::new(n, 3, eq);
                let at = BlockLayout {
                    global,
                    dims: new_dims,
                    off,
                };
                let (h, q) = load_block(shard, r, dom, at).unwrap();
                assert_eq!((h.t, h.steps, h.n, h.off), (0.25, 7, n, off));
                assert_eq!(h.dims, old_dims, "the header names the writers");
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
        // A missing shard surfaces as a typed error naming the file.
        std::fs::remove_file(shard(0)).unwrap();
        let (off, n) = block_extents(0, best_block_dims(2, global), global, 2);
        let at = BlockLayout {
            global,
            dims: best_block_dims(2, global),
            off,
        };
        let err = load_block(shard, 1, Domain::new(n, 3, eq), at).unwrap_err();
        assert!(err.to_string().contains("ckpt_r0_w5.bin"), "{err}");
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
    fn truncated_wave_file_is_a_typed_error_not_a_panic_or_silent_drop() {
        // A wave file cut mid-value must surface as `Truncated` — neither
        // panic nor silently decode the prefix and drop the tail.
        let case = presets::sod(16);
        let solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let path = tmp("wavetrunc");
        let layout = BlockLayout::lone([16, 1, 1]);
        save_interior(&path, solver.state(), layout, 0.0, 0).unwrap();
        let (h, q) = load_checkpoint(&path).unwrap();
        assert_eq!(h.ng, 0);
        assert_eq!(q.as_slice(), crate::output::block_to_vec(solver.state()));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
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

    #[test]
    fn header_bit_flips_are_typed_errors_not_panics() {
        // Regression: `"ndim":1` -> `5` and `"nf":1` -> `0` are one bit each.
        // The header used to build its `Domain` before the length and CRC
        // were checked, and `EqIdx::new` panicked on the impossible value.
        // Now the flipped header declares a block the file does not hold.
        let case = presets::sod(16);
        let solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let path = tmp("ndimflip");
        for (key, bit) in [(&b"\"ndim\":1"[..], 0x04), (&b"\"nf\":1"[..], 0x01)] {
            save_checkpoint(&path, solver.state(), 0.0, 0).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let at = bytes.windows(key.len()).position(|w| w == key).unwrap() + key.len() - 1;
            bytes[at] ^= bit;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                load_checkpoint(&path),
                Err(CheckpointError::Truncated { .. })
            ));
        }
        std::fs::remove_file(&path).unwrap();
    }

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// The largest single allocation this thread asked for since the
        /// last reset.
        static BIGGEST: Cell<usize> = const { Cell::new(0) };
    }

    /// System allocator that records [`BIGGEST`], so the fuzz below can
    /// bound what a hostile file makes the reader allocate.
    struct Watch;

    fn watch(size: usize) {
        let _ = BIGGEST.try_with(|b| b.set(b.get().max(size)));
    }

    // SAFETY: every method passes its arguments unchanged to `System`, so
    // the caller's guarantees are the ones `System` requires, and its
    // results are returned as they are; the tracking only writes a
    // thread-local `Cell` that needs no allocation.
    unsafe impl GlobalAlloc for Watch {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            watch(l.size());
            System.alloc(l)
        }
        unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
            watch(l.size());
            System.alloc_zeroed(l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, size: usize) -> *mut u8 {
            watch(size);
            System.realloc(p, l, size)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
    }

    #[global_allocator]
    static WATCH: Watch = Watch;

    /// Header fields rewritten with a lie: impossible, overflowing,
    /// terabyte-sized, or merely inconsistent with the rest of the set.
    const LIES: [(&str, &str); 26] = [
        ("ndim", "5"),
        ("ndim", "0"),
        ("ndim", "1"),
        ("ndim", "3"),
        ("nf", "0"),
        ("nf", "9"),
        ("nf", "1"),
        ("ng", "1"),
        ("ng", "1000000000000"),
        ("n", "[1000000000000,10,1]"),
        ("n", "[0,10,1]"),
        ("n", "[6,10,2]"),
        ("global", "[1000000000000,10,1]"),
        ("global", "[12,1000000000000,1]"),
        ("global", "[6,10,1]"),
        ("global", "[12,10,2]"),
        ("dims", "[0,1,1]"),
        ("dims", "[1,1,1]"),
        ("dims", "[4096,2,1]"),
        ("dims", "[2,2,1]"),
        ("dims", "[18446744073709551615,2,1]"),
        ("off", "[6,0,0]"),
        ("off", "[18446744073709551615,0,0]"),
        ("off", "[0,5,0]"),
        ("t", "99.0"),
        ("steps", "8"),
    ];

    /// `file` with its header's `field` set to `value` and the CRC
    /// recomputed, so the lie reaches validation.
    fn lie(file: &[u8], field: &str, value: &str) -> Vec<u8> {
        let hlen = u64::from_le_bytes(file[8..16].try_into().unwrap()) as usize;
        let (hjson, payload) = file[PREAMBLE..].split_at(hlen);
        let mut header: serde_json::Value = serde_json::from_slice(hjson).unwrap();
        if let serde_json::Value::Object(fields) = &mut header {
            fields.insert(field, serde_json::from_str(value).unwrap());
        }
        let hjson = serde_json::to_string(&header).unwrap().into_bytes();
        let mut crc = Crc32::new();
        crc.update(&hjson);
        crc.update(payload);
        let mut out = CHECKPOINT_MAGIC.to_vec();
        out.extend((hjson.len() as u64).to_le_bytes());
        out.extend(crc.finish().to_le_bytes());
        out.extend(hjson);
        out.extend(payload);
        out
    }

    /// Files as (path, pristine bytes).
    type Files = Vec<(PathBuf, Vec<u8>)>;

    /// A 2-rank checkpoint wave (files 0, 1) and wave-file set (files 2,
    /// 3) of one analytic two-fluid field.
    fn fuzz_sets(dir: &Path) -> Files {
        let eq = EqIdx::new(2, 2);
        let (global, dims) = ([12, 10, 1], [2, 1, 1]);
        let mut files = vec![Default::default(); 4];
        for r in 0..2 {
            let (q, layout) = analytic_block(eq, global, dims, r);
            let ckpt = wave_path(dir, r, 0);
            save_block(&ckpt, &q, layout, 0.25, 7).unwrap();
            let wave = WaveWriter::rank_path(dir, 4, r);
            save_interior(&wave, &q, layout, 0.25, 7).unwrap();
            for (slot, path) in [(r, ckpt), (2 + r, wave)] {
                files[slot] = (path.clone(), std::fs::read(&path).unwrap());
            }
        }
        files
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mutation fuzz of the block-file reader: truncations, bit flips
        /// anywhere, and headers that lie under a recomputed CRC. Every
        /// read of the whole mutated set is a typed error, no read panics,
        /// and none allocates more than the set's files hold.
        #[test]
        fn hostile_block_files_are_typed_errors_within_the_sets_size(
            file in 0usize..4,
            kind in 0usize..3,
            pos in 0usize..1 << 20,
            which in 0usize..LIES.len() * 8,
        ) {
            static DIR: std::sync::OnceLock<(PathBuf, Files)> =
                std::sync::OnceLock::new();
            let (dir, files) = DIR.get_or_init(|| {
                let dir = tmpdir("fuzz");
                let files = fuzz_sets(&dir);
                (dir, files)
            });
            let (path, pristine) = &files[file];
            let mutant = match kind {
                0 => pristine[..pos % pristine.len()].to_vec(),
                1 => {
                    let mut m = pristine.clone();
                    m[pos % pristine.len()] ^= 1 << (which % 8);
                    m
                }
                _ => {
                    let (field, value) = LIES[which % LIES.len()];
                    lie(pristine, field, value)
                }
            };
            if mutant == *pristine {
                // The "lie" was this file's truth.
                return Ok(());
            }
            std::fs::write(path, &mutant).unwrap();
            let set = &files[file / 2 * 2..file / 2 * 2 + 2];
            let bound: usize = set.iter().map(|(_, b)| b.len()).sum();
            BIGGEST.with(|b| b.set(0));
            let eq = EqIdx::new(2, 2);
            let global = [12, 10, 1];
            let whole = if file < 2 {
                let shard = |r: usize| wave_path(dir, r, 0);
                for me in 0..2 {
                    let (q, at) = analytic_block(eq, global, [2, 1, 1], me);
                    let _ = load_block(shard, me, *q.domain(), at);
                }
                let dom = Domain::new(global, 3, eq);
                load_block(shard, 0, dom, BlockLayout::lone(global)).map(|_| ())
            } else {
                crate::output::postprocess_wave_files(dir, 4).map(|_| ())
            };
            let biggest = BIGGEST.with(|b| b.get());
            std::fs::write(path, pristine).unwrap();
            prop_assert!(whole.is_err(), "file {} kind {} pos {} which {}: read Ok", file, kind, pos, which);
            prop_assert!(
                biggest <= bound,
                "file {} kind {} pos {} which {}: allocated {} bytes, the set holds {}",
                file, kind, pos, which, biggest, bound
            );
        }
    }
}
