//! The host side of a run: CPU pinning, memory priming, `/proc` readers
//! and the interrupt flag. Linux only, like `memnoded`'s signal handling.

use std::ffi::{c_char, c_ulong, c_void, CString};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const PAGE: usize = 4096;
/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

unsafe extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn unshare(flags: i32) -> i32;
    fn mount(
        source: *const c_char,
        target: *const c_char,
        fstype: *const c_char,
        flags: c_ulong,
        data: *const c_void,
    ) -> i32;
}

/// CPUs this process may run on.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Pins the calling process (every thread it has now — call this before
/// any exists — and every thread and child it creates later) to `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Mounts a tmpfs over `dir` in a mount namespace private to this
/// process and the children it spawns from now on.
///
/// The run's files — sockets, daemon logs and above all the WAL the
/// daemons fsync on every commit — then stay at paths inside the
/// checkout but live in memory: an fsync is the log's append → leader →
/// `fsync` code path without the sandbox disk's latency, which on this
/// host moves every timing of a writing workload by a fifth from run to
/// run. The namespace dies with the process, so nothing stays mounted
/// whatever way the run ends. Needs CAP_SYS_ADMIN; the caller falls
/// back to the plain directory when this fails.
pub fn private_tmpfs(dir: &Path) -> Result<(), String> {
    const CLONE_NEWNS: i32 = 0x0002_0000;
    const MS_NOSUID: c_ulong = 2;
    const MS_NODEV: c_ulong = 4;
    const MS_REC: c_ulong = 1 << 14;
    const MS_PRIVATE: c_ulong = 1 << 18;
    let os_err = |what: &str| format!("{what}: {}", std::io::Error::last_os_error());
    let target = CString::new(dir.as_os_str().as_encoded_bytes())
        .map_err(|_| format!("{}: path holds a NUL byte", dir.display()))?;
    // SAFETY: unshare takes flags only.
    if unsafe { unshare(CLONE_NEWNS) } != 0 {
        return Err(os_err("unshare(CLONE_NEWNS)"));
    }
    // Stop mount events from propagating back to the namespace we left.
    // SAFETY: every pointer is a NUL-terminated string that outlives the
    // call or is null where mount(2) allows it.
    if unsafe {
        mount(
            std::ptr::null(),
            c"/".as_ptr(),
            std::ptr::null(),
            MS_REC | MS_PRIVATE,
            std::ptr::null(),
        )
    } != 0
    {
        return Err(os_err("mount(MS_PRIVATE)"));
    }
    // SAFETY: as above; the data argument is a NUL-terminated option string.
    let rc = unsafe {
        mount(
            c"tmpfs".as_ptr(),
            target.as_ptr(),
            c"tmpfs".as_ptr(),
            MS_NOSUID | MS_NODEV,
            c"mode=0700".as_ptr().cast(),
        )
    };
    if rc != 0 {
        return Err(os_err("mount(tmpfs)"));
    }
    Ok(())
}

/// Set by SIGINT/SIGTERM; the measuring loops poll it at slice
/// boundaries and unwind normally, so every `Drop` guard runs.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Async-signal-safe: one atomic store.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    for sig in [SIGINT, SIGTERM] {
        // SAFETY: `on_signal` has the handler ABI and only performs an
        // atomic store.
        unsafe { signal(sig, on_signal as extern "C" fn(i32) as usize) };
    }
}

pub fn check_interrupt() -> Result<(), String> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        Err("interrupted by signal".into())
    } else {
        Ok(())
    }
}

/// For a child's `pre_exec`: have the kernel SIGKILL the child when its
/// parent dies, so a SIGKILLed runner (no `Drop` runs) leaves no daemon.
pub fn die_with_parent() -> std::io::Result<()> {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: prctl(PR_SET_PDEATHSIG) takes an integer signal number and
    // touches no memory; it is async-signal-safe.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

fn read_to_string(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// A `key: <n> kB` field of a `/proc` status-style file.
fn kb_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

pub fn mem_available_bytes() -> Result<u64, String> {
    kb_field(&read_to_string("/proc/meminfo")?, "MemAvailable")
        .map(|kb| kb * 1024)
        .ok_or_else(|| "/proc/meminfo has no MemAvailable".into())
}

pub fn rss_bytes(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    kb_field(&read_to_string(&path)?, "VmRSS")
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("{path} has no VmRSS"))
}

pub fn kernel_release() -> String {
    read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// `(steal, total)` jiffies of one CPU from `/proc/stat`.
pub fn cpu_jiffies(cpu: usize) -> Result<(u64, u64), String> {
    let text = read_to_string("/proc/stat")?;
    let tag = format!("cpu{cpu}");
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(tag.as_str()))
        .ok_or_else(|| format!("/proc/stat has no {tag} line"))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted in user and nice.
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    if f.len() < 8 {
        return Err(format!("/proc/stat: short {tag} line"));
    }
    Ok((f[7], f.iter().sum()))
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(text) = read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in text.lines() {
        // id parent maj:min root mount-point options... - fstype source ...
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if abs.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fs));
        }
    }
    best.map_or("unknown".into(), |(_, fs)| fs.to_string())
}

/// On-CPU time of a set of processes, read from the per-task
/// `schedstat` files (nanoseconds, unlike the 10 ms ticks of `stat`).
/// The files are opened once — the thread sets are stable while a window
/// runs — and re-read at slice boundaries by the client thread itself.
pub struct CpuMeter {
    files: Vec<File>,
}

impl CpuMeter {
    pub fn open(pids: &[u32]) -> Result<CpuMeter, String> {
        let mut files = Vec::new();
        for pid in pids {
            let dir = format!("/proc/{pid}/task");
            let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
            for t in tasks {
                let path = t
                    .map_err(|e| format!("{dir}: {e}"))?
                    .path()
                    .join("schedstat");
                files.push(File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?);
            }
        }
        Ok(CpuMeter { files })
    }

    pub fn tasks(&self) -> usize {
        self.files.len()
    }

    /// Total run time so far, ns. A task that has exited reads as an
    /// error and is skipped (its time is lost; the caller compares
    /// `tasks()` before and after to notice).
    pub fn run_ns(&mut self) -> u64 {
        let mut total = 0u64;
        let mut buf = [0u8; 96];
        for f in &mut self.files {
            if f.seek(SeekFrom::Start(0)).is_err() {
                continue;
            }
            let Ok(n) = f.read(&mut buf) else { continue };
            let first = buf[..n].split(|b| *b == b' ').next().unwrap_or(&[]);
            total += std::str::from_utf8(first)
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
        }
        total
    }
}

/// Allocates `bytes`, writes every page, frees them, and returns the
/// median first-touch cost of a page in µs.
///
/// The guest hands free pages back to the host (free-page reporting);
/// the first write to such a page takes a hypervisor exit, 11–23 µs
/// against 2 µs. Touching them here, before the set-ups, moves that cost
/// out of the window: the freed pages stay on the guest's free list for
/// the seconds the run needs them.
pub fn prime(bytes: usize) -> f64 {
    const CHUNK_PAGES: usize = 256;
    let pages = bytes / PAGE;
    if pages == 0 {
        return 0.0;
    }
    // calloc-backed and lazily mapped: the pages are faulted by the
    // writes below, one per page.
    let mut buf = vec![0u8; pages * PAGE];
    let mut per_page_us = Vec::with_capacity(pages / CHUNK_PAGES + 1);
    for chunk in buf.chunks_mut(CHUNK_PAGES * PAGE) {
        let t0 = Instant::now();
        for page in chunk.chunks_mut(PAGE) {
            page[0] = 1;
        }
        let n = chunk.len().div_ceil(PAGE);
        per_page_us.push(t0.elapsed().as_nanos() as f64 / 1e3 / n as f64);
    }
    std::hint::black_box(&buf);
    drop(buf);
    crate::stats::median(&mut per_page_us)
}
