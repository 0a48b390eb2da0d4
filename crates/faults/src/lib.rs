//! # minuet-faults
//!
//! A deterministic fault-injection plane: a fixed registry of named
//! **failpoints** threaded through the load-bearing choke points of the
//! Minuet stack (WAL append/fsync/truncate, checkpoint write/rename, wire
//! client/server frame I/O, RPC dispatch, replication fetch/apply).
//!
//! ## Cost contract
//!
//! A **disarmed** failpoint costs exactly one relaxed atomic load — no
//! branch beyond the `== 0` check, no lock, no allocation. Only an armed
//! site takes the site mutex to evaluate its schedule. Production builds
//! carry the sites; chaos harnesses arm them.
//!
//! ## Arming
//!
//! Failpoints are armed three ways, all funneling into [`arm`]:
//!
//! - **code**: `faults::arm(Site::WalAppend, Arm::new(Action::NoSpace))`
//! - **env**: `MINUET_FAULTS="wal.append=enospc;rpc.dispatch=err:tag=4:skip=2"`
//!   parsed by [`init_from_env`] (the daemon calls it at startup)
//! - **wire**: the `Faults` admin RPC / `memnoded --faults SPEC` apply the
//!   same spec grammar inside a remote daemon process via [`apply_spec`]
//!
//! The registry is process-global (a failpoint models "this process's
//! disk / NIC misbehaves"), so tests that arm faults serialize on
//! [`test_guard`].
//!
//! ## Spec grammar
//!
//! Entries separated by `;`. Each entry is `site=action[:key=value]...`:
//!
//! | action | meaning | `arg` |
//! |---|---|---|
//! | `err` | injected generic I/O error | — |
//! | `enospc` | out-of-space I/O error | — |
//! | `short` | short write of `arg` bytes | bytes written |
//! | `delay` | sleep `arg` milliseconds, then proceed | ms |
//! | `drop` | drop the frame / sever the connection | — |
//! | `corrupt` | flip a byte in the frame | — |
//! | `dup` | deliver twice (dispatch idempotency probe) | — |
//! | `sever` | transmit `arg` bytes, then sever | bytes |
//! | `panic` | panic at the site | — |
//!
//! Modifiers: `count=N` (fire N times, then self-disarm; default
//! unlimited), `skip=N` (pass through the first N hits — "fail the Nth
//! call"), `tag=N` (only fire for matching tag at tagged sites, e.g. a
//! wire request tag at `rpc.dispatch`). The whole spec `clear` (or an
//! empty string) disarms every site.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Every failpoint site in the stack. The `usize` value indexes the
/// process-global registry; [`Site::name`] is the stable spec name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// WAL record append (short writes, ENOSPC, torn frames).
    WalAppend,
    /// WAL fsync (delayed or failing durability).
    WalFsync,
    /// WAL prefix truncation during rotation (checkpoint-adjacent).
    WalTruncate,
    /// Checkpoint image sibling-file write.
    CkptWrite,
    /// Checkpoint tmp→image rename.
    CkptRename,
    /// Wire client request-frame transmit.
    WireClientSend,
    /// Wire client reply-frame receive.
    WireClientRecv,
    /// Wire server reply-frame transmit.
    WireServerSend,
    /// Wire server request-frame receive.
    WireServerRecv,
    /// Server-side RPC dispatch (tag-selectable, Nth-call-selectable).
    RpcDispatch,
    /// Replication WAL-segment fetch at the primary.
    ReplFetch,
    /// Replication stream apply at the follower.
    ReplApply,
}

/// All sites, in registry order (index = `site as usize`).
pub const SITES: &[Site] = &[
    Site::WalAppend,
    Site::WalFsync,
    Site::WalTruncate,
    Site::CkptWrite,
    Site::CkptRename,
    Site::WireClientSend,
    Site::WireClientRecv,
    Site::WireServerSend,
    Site::WireServerRecv,
    Site::RpcDispatch,
    Site::ReplFetch,
    Site::ReplApply,
];

impl Site {
    /// The stable name used by the spec grammar.
    pub fn name(self) -> &'static str {
        match self {
            Site::WalAppend => "wal.append",
            Site::WalFsync => "wal.fsync",
            Site::WalTruncate => "wal.truncate",
            Site::CkptWrite => "ckpt.write",
            Site::CkptRename => "ckpt.rename",
            Site::WireClientSend => "wire.client.send",
            Site::WireClientRecv => "wire.client.recv",
            Site::WireServerSend => "wire.server.send",
            Site::WireServerRecv => "wire.server.recv",
            Site::RpcDispatch => "rpc.dispatch",
            Site::ReplFetch => "repl.fetch",
            Site::ReplApply => "repl.apply",
        }
    }

    /// Parses a spec name back to a site.
    pub fn parse(name: &str) -> Option<Site> {
        SITES.iter().copied().find(|s| s.name() == name)
    }
}

/// What an armed failpoint does when it fires. Sites interpret the subset
/// that makes sense for them (a WAL append has no frame to duplicate) and
/// treat the rest as [`Action::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Injected generic I/O error.
    Err,
    /// Out-of-space I/O error (ENOSPC).
    NoSpace,
    /// Short write: only the first `n` bytes reach the medium.
    ShortWrite(u32),
    /// Sleep this long, then proceed normally.
    Delay(Duration),
    /// Drop the frame / sever the connection before transmitting.
    Drop,
    /// Flip a byte in the frame (CRC framing must catch it).
    Corrupt,
    /// Deliver twice (dispatch idempotency probe).
    Duplicate,
    /// Transmit `n` bytes of the frame, then sever.
    SeverAfter(u32),
    /// Panic at the site (exercises catch-unwind / crash paths).
    Panic,
}

/// An armed schedule for one site.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    /// The action taken when the schedule fires.
    pub action: Action,
    /// Pass through this many hits before the first firing.
    pub skip: u32,
    /// Fire this many times, then self-disarm (`u32::MAX` = unlimited).
    pub count: u32,
    /// Only fire when the site's tag matches (tagged sites only; an
    /// untagged check at a tagged arm never fires).
    pub tag: Option<u8>,
}

impl Arm {
    /// An unlimited, untagged, no-skip arm of `action`.
    pub fn new(action: Action) -> Arm {
        Arm {
            action,
            skip: 0,
            count: u32::MAX,
            tag: None,
        }
    }

    /// Fire at most `n` times, then self-disarm.
    pub fn times(mut self, n: u32) -> Arm {
        self.count = n;
        self
    }

    /// Pass through the first `n` hits.
    pub fn after(mut self, n: u32) -> Arm {
        self.skip = n;
        self
    }

    /// Only fire on this tag (see [`check_tag`]).
    pub fn on_tag(mut self, tag: u8) -> Arm {
        self.tag = Some(tag);
        self
    }
}

/// One registry slot: the relaxed-load gate plus the armed schedule.
struct FailPoint {
    /// 0 = disarmed; the one relaxed load every disarmed site pays.
    armed: AtomicU32,
    arm: Mutex<Option<Arm>>,
}

impl FailPoint {
    const fn new() -> FailPoint {
        FailPoint {
            armed: AtomicU32::new(0),
            arm: Mutex::new(None),
        }
    }

    /// Slow path, reached only while armed: evaluate the schedule.
    fn fire(&self, tag: Option<u8>) -> Option<Action> {
        let mut g = self.arm.lock().unwrap_or_else(|e| e.into_inner());
        let slot = g.as_mut()?;
        if let Some(want) = slot.tag {
            if tag != Some(want) {
                return None;
            }
        }
        if slot.skip > 0 {
            slot.skip -= 1;
            return None;
        }
        let action = slot.action;
        if action == Action::Panic {
            PANICS_FIRED.fetch_add(1, Ordering::Relaxed);
        }
        if slot.count != u32::MAX {
            slot.count -= 1;
            if slot.count == 0 {
                *g = None;
                drop(g);
                self.armed.store(0, Ordering::Release);
            }
        }
        Some(action)
    }
}

/// The process-global registry, one slot per [`Site`].
static REGISTRY: [FailPoint; SITES.len()] = [
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
    FailPoint::new(),
];

/// How many times a site has fired [`Action::Panic`] in this process.
static PANICS_FIRED: AtomicU64 = AtomicU64::new(0);

/// How many panics the failpoints have injected in this process, so a
/// caller that catches panics can tell an injected one from a bug.
pub fn panics_fired() -> u64 {
    PANICS_FIRED.load(Ordering::Relaxed)
}

/// Evaluates a failpoint. Disarmed cost: one relaxed atomic load.
/// Returns the action to take, or `None` to proceed normally.
#[inline]
pub fn check(site: Site) -> Option<Action> {
    let fp = &REGISTRY[site as usize];
    if fp.armed.load(Ordering::Relaxed) == 0 {
        return None;
    }
    fp.fire(None)
}

/// [`check`] for tagged sites (e.g. the wire request tag at
/// [`Site::RpcDispatch`]). An arm without a tag fires for every tag; an
/// arm with a tag only fires on a match.
#[inline]
pub fn check_tag(site: Site, tag: u8) -> Option<Action> {
    let fp = &REGISTRY[site as usize];
    if fp.armed.load(Ordering::Relaxed) == 0 {
        return None;
    }
    fp.fire(Some(tag))
}

/// Sleeps when the action carries a delay; returns the action otherwise.
/// Convenience wrapper for the common "delay is handled here, everything
/// else is the caller's problem" pattern at I/O sites.
#[inline]
pub fn check_delay(site: Site) -> Option<Action> {
    match check(site) {
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            None
        }
        other => other,
    }
}

/// Arms a site. Replaces any existing arm.
pub fn arm(site: Site, a: Arm) {
    let fp = &REGISTRY[site as usize];
    *fp.arm.lock().unwrap_or_else(|e| e.into_inner()) = Some(a);
    fp.armed.store(1, Ordering::Release);
}

/// Disarms one site.
pub fn disarm(site: Site) {
    let fp = &REGISTRY[site as usize];
    fp.armed.store(0, Ordering::Release);
    *fp.arm.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Disarms every site.
pub fn disarm_all() {
    for &s in SITES {
        disarm(s);
    }
}

/// Number of currently armed sites.
pub fn armed_count() -> u32 {
    SITES
        .iter()
        .filter(|&&s| REGISTRY[s as usize].armed.load(Ordering::Relaxed) != 0)
        .count() as u32
}

/// Parses and applies a fault spec (see the module docs for the grammar).
/// Returns the number of sites armed. The spec `clear` (or empty/blank)
/// disarms everything.
pub fn apply_spec(spec: &str) -> Result<u32, String> {
    let spec = spec.trim();
    if spec.is_empty() || spec == "clear" {
        disarm_all();
        return Ok(0);
    }
    // Parse fully before arming anything: a bad entry must not leave a
    // half-applied spec behind.
    let mut parsed = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        parsed.push(parse_entry(entry)?);
    }
    for &(site, a) in &parsed {
        arm(site, a);
    }
    Ok(parsed.len() as u32)
}

fn parse_entry(entry: &str) -> Result<(Site, Arm), String> {
    let (site_name, rest) = entry
        .split_once('=')
        .ok_or_else(|| format!("`{entry}`: expected site=action"))?;
    let site = Site::parse(site_name.trim())
        .ok_or_else(|| format!("`{site_name}`: unknown failpoint site"))?;
    let mut parts = rest.split(':');
    let action_name = parts.next().unwrap_or("").trim();
    let mut arg: Option<u64> = None;
    let mut a = Arm::new(Action::Err);
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("`{kv}`: expected key=value"))?;
        let v: u64 = v
            .trim()
            .parse()
            .map_err(|_| format!("`{kv}`: value is not a number"))?;
        match k.trim() {
            "arg" => arg = Some(v),
            "count" => a.count = v.min(u32::MAX as u64 - 1) as u32,
            "skip" => a.skip = v.min(u32::MAX as u64) as u32,
            "tag" => a.tag = Some(v as u8),
            other => return Err(format!("`{other}`: unknown modifier")),
        }
    }
    a.action = match action_name {
        "err" => Action::Err,
        "enospc" => Action::NoSpace,
        "short" => Action::ShortWrite(arg.unwrap_or(0) as u32),
        "delay" => Action::Delay(Duration::from_millis(arg.unwrap_or(1))),
        "drop" => Action::Drop,
        "corrupt" => Action::Corrupt,
        "dup" => Action::Duplicate,
        "sever" => Action::SeverAfter(arg.unwrap_or(0) as u32),
        "panic" => Action::Panic,
        other => return Err(format!("`{other}`: unknown action")),
    };
    Ok((site, a))
}

/// Applies `MINUET_FAULTS` from the environment, if set. Called by
/// `memnoded` at startup so daemons in a chaos fleet are injectable
/// without code changes. Returns the number of sites armed.
pub fn init_from_env() -> Result<u32, String> {
    match std::env::var("MINUET_FAULTS") {
        Ok(spec) => apply_spec(&spec),
        Err(_) => Ok(0),
    }
}

/// Serializes tests (and nemeses) that arm the process-global registry.
/// Hold the guard for the whole armed section; it disarms everything when
/// acquired *and* when dropped, so a poisoned predecessor cannot leak
/// faults into the next test.
pub fn test_guard() -> FaultsGuard {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let gate = GATE.get_or_init(|| Mutex::new(()));
    let guard = gate.lock().unwrap_or_else(|e| e.into_inner());
    disarm_all();
    FaultsGuard { _guard: guard }
}

/// RAII guard from [`test_guard`]: disarms all sites on drop.
pub struct FaultsGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for FaultsGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Maps an action to the `io::Error` it models at storage/wire sites.
/// `Delay`/`Panic` are handled at the site and never reach this.
pub fn io_error(site: Site, action: Action) -> std::io::Error {
    use std::io::{Error, ErrorKind};
    match action {
        Action::NoSpace => Error::new(
            ErrorKind::StorageFull,
            format!("injected ENOSPC at {}", site.name()),
        ),
        other => Error::new(
            ErrorKind::ConnectionReset,
            format!("injected {other:?} at {}", site.name()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checks_return_none() {
        let _g = test_guard();
        for &s in SITES {
            assert_eq!(check(s), None);
            assert_eq!(check_tag(s, 7), None);
        }
    }

    #[test]
    fn count_and_skip_schedule() {
        let _g = test_guard();
        arm(Site::WalAppend, Arm::new(Action::NoSpace).after(2).times(2));
        assert_eq!(check(Site::WalAppend), None);
        assert_eq!(check(Site::WalAppend), None);
        assert_eq!(check(Site::WalAppend), Some(Action::NoSpace));
        assert_eq!(check(Site::WalAppend), Some(Action::NoSpace));
        // Self-disarmed: back to the fast path.
        assert_eq!(check(Site::WalAppend), None);
        assert_eq!(armed_count(), 0);
    }

    #[test]
    fn tag_selects_the_victim() {
        let _g = test_guard();
        arm(Site::RpcDispatch, Arm::new(Action::Err).on_tag(0x04));
        assert_eq!(check_tag(Site::RpcDispatch, 0x03), None);
        assert_eq!(check_tag(Site::RpcDispatch, 0x04), Some(Action::Err));
        // An untagged check never matches a tagged arm.
        assert_eq!(check(Site::RpcDispatch), None);
    }

    #[test]
    fn spec_round_trip() {
        let _g = test_guard();
        let n = apply_spec("wal.append=enospc:count=1; rpc.dispatch=err:tag=4:skip=2").unwrap();
        assert_eq!(n, 2);
        assert_eq!(armed_count(), 2);
        assert_eq!(check_tag(Site::RpcDispatch, 4), None);
        assert_eq!(check_tag(Site::RpcDispatch, 4), None);
        assert_eq!(check_tag(Site::RpcDispatch, 4), Some(Action::Err));
        assert_eq!(check(Site::WalAppend), Some(Action::NoSpace));
        assert_eq!(check(Site::WalAppend), None);
        assert_eq!(apply_spec("clear").unwrap(), 0);
        assert_eq!(armed_count(), 0);
    }

    #[test]
    fn bad_specs_are_atomic() {
        let _g = test_guard();
        assert!(apply_spec("wal.append=enospc; nope=err").is_err());
        assert_eq!(armed_count(), 0, "a bad entry must not half-apply");
        assert!(apply_spec("wal.append=explode").is_err());
        assert!(apply_spec("wal.append").is_err());
        assert!(apply_spec("wal.append=err:count=x").is_err());
    }

    #[test]
    fn short_write_and_sever_carry_args() {
        let _g = test_guard();
        apply_spec("wal.append=short:arg=3; wire.client.send=sever:arg=12").unwrap();
        assert_eq!(check(Site::WalAppend), Some(Action::ShortWrite(3)));
        assert_eq!(check(Site::WireClientSend), Some(Action::SeverAfter(12)));
    }

    #[test]
    fn site_names_round_trip() {
        for &s in SITES {
            assert_eq!(Site::parse(s.name()), Some(s));
        }
        assert_eq!(Site::parse("bogus"), None);
    }
}
