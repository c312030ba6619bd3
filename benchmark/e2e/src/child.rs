//! Run a program under test as a child process and report what the
//! kernel accounted for it: wall time, CPU time and peak resident set.

use std::fs::File;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals and fourteen
/// longs (`getrusage(2)`).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Spawn to reaped.
    pub wall_s: f64,
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// `ru_maxrss`, or `None` when it is not the child's own: Linux seeds a
    /// new program's `ru_maxrss` with the high-water mark of the address
    /// space it was spawned from (`exec_mmap`), so a child smaller than this
    /// harness has ever been reports the harness's peak instead of its own.
    pub peak_rss_mb: Option<f64>,
    pub stdout: String,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.peak_rss_mb
            .ok_or_else(|| "peak RSS hidden by the harness's own high-water mark".to_string())
    }
}

/// This process's peak RSS so far (`VmHWM`), in MB; 0 if unreadable.
fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A started child that has not been reaped yet.
pub struct Spawned {
    child: Child,
    pub started: Instant,
    rss_floor_mb: f64,
}

impl Spawned {
    pub fn start(cmd: &mut Command) -> std::io::Result<Spawned> {
        let rss_floor_mb = own_peak_rss_mb();
        let started = Instant::now();
        Ok(Spawned {
            child: cmd.spawn()?,
            started,
            rss_floor_mb,
        })
    }

    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    /// User plus system CPU seconds the running child has used so far
    /// (`/proc/<pid>/stat`, fields 14 and 15, in ticks of 1/100 s).
    pub fn cpu_s_so_far(&self) -> std::io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // The command name (field 2) may hold spaces; count from its ')'.
        let ticks = stat.rsplit(')').next().and_then(|rest| {
            let mut fields = rest.split_whitespace().skip(11);
            let utime = fields.next()?.parse::<u64>().ok()?;
            let stime = fields.next()?.parse::<u64>().ok()?;
            Some(utime + stime)
        });
        ticks
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| std::io::Error::other("unreadable /proc stat line"))
    }

    /// Reap with `wait4(2)` so the rusage comes back with the status.
    pub fn reap(self) -> std::io::Result<Finished> {
        let pid = self.child.id() as i32;
        let mut status = 0i32;
        let mut ru = Rusage::default();
        // SAFETY: `status` and `ru` are valid, writable and correctly laid
        // out for the call (Rusage mirrors the kernel's 64-bit struct
        // rusage); `pid` is our own un-reaped child, so no other process can
        // be affected.
        let got = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        let wall_s = self.started.elapsed().as_secs_f64();
        if got != pid {
            return Err(std::io::Error::last_os_error());
        }
        // The pid is reaped; dropping `Child` closes its pipes and nothing else.
        drop(self.child);
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        let exited = status & 0x7f == 0;
        let peak = ru.maxrss_kib as f64 / 1024.0;
        Ok(Finished {
            code: exited.then_some((status >> 8) & 0xff),
            wall_s,
            cpu_s: secs(ru.utime) + secs(ru.stime),
            peak_rss_mb: (peak > self.rss_floor_mb).then_some(peak),
            stdout: String::new(),
        })
    }

    /// Kill and reap (error paths only).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `program args..` to completion with stdout captured through a file
/// (no pipe to fill, no reader thread on the clock) and stderr inherited.
pub fn run(program: &Path, args: &[&str], stdout_path: &Path) -> std::io::Result<Finished> {
    let out = File::create(stdout_path)?;
    let spawned = Spawned::start(
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::from(out)),
    )?;
    let mut done = spawned.reap()?;
    done.stdout = std::fs::read_to_string(stdout_path)?;
    Ok(done)
}
