//! Dynamic transactions: optimistic multi-object transactions built from
//! minitransactions (Aguilera et al., PVLDB 2008), extended with **dirty
//! reads** (Minuet §3).
//!
//! A dynamic transaction maintains a *read set* and a *write set* of
//! objects. Transactional reads fetch objects with minitransactions and
//! record the observed sequence numbers; commit executes one final
//! minitransaction that validates the read set (backward validation by
//! seqno comparison) and applies the write set atomically.
//!
//! Two optimizations from the papers are implemented faithfully:
//!
//! * **Piggy-backed validation**: fetch minitransactions carry compare
//!   items for the read-set entries co-located with the fetch target; if
//!   the last fetch validated the entire read set and the write set is
//!   empty, commit requires *zero* additional round trips.
//! * **Dirty reads** (Minuet's extension): fetch an object *without*
//!   adding it to the read set. The B-tree uses this to traverse internal
//!   nodes so that only the leaf must validate. A dirty-read object that is
//!   later written is first *promoted* into the read set with the seqno
//!   observed by the dirty read.

use crate::object::{decode_obj_shared, encode_obj, ObjRef, ObjVal, ReplRef, SeqNo, OBJ_HEADER};
use minuet_obs::{span, SpanKind};
use minuet_sinfonia::{
    Bytes, ItemRange, MemNodeId, Minitransaction, Outcome, SinfoniaCluster, SinfoniaError,
};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::Duration;

/// Key identifying an object within a transaction's read/write sets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TxKey {
    /// A plain object on one memnode.
    Plain(ObjRef),
    /// A replicated object (all memnodes).
    Repl(ReplRef),
}

/// Reasons a dynamic transaction fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxError {
    /// Backward validation failed: some read-set object changed since it
    /// was read. The caller retries the whole operation.
    Validation,
    /// A memnode stayed unavailable beyond the retry budget.
    Unavailable(MemNodeId),
    /// No memnode is currently ready to serve replicated-object compares:
    /// every member reports joining (or its state is unknown after
    /// failures). Transient during membership changes — retryable, like
    /// [`TxError::Validation`], rather than a hard failure.
    NoReadyReplica,
    /// The operation's end-to-end deadline expired (see
    /// [`minuet_sinfonia::deadline`]). Not retryable within the same
    /// deadline scope: the caller's time budget is spent.
    DeadlineExceeded,
    /// An object of the transaction ends past its memnode's capacity: the
    /// caller's layout bug, refused before anything is sent.
    OutOfBounds {
        /// The memnode whose capacity the object exceeds.
        mem: MemNodeId,
        /// Which extent, against which capacity. Boxed thin: every
        /// `Result<_, TxError>` on the commit path is as wide as this.
        detail: Box<str>,
    },
    /// Whoever was executing this commit on the caller's behalf — an epoch
    /// leader — failed before reporting this member's outcome. Whether the
    /// commit applied is unknown; the caller must re-read to find out.
    Abandoned,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::Validation => write!(f, "validation failed"),
            TxError::Unavailable(m) => write!(f, "memnode {m} unavailable"),
            TxError::NoReadyReplica => write!(f, "no memnode ready for replicated objects"),
            TxError::DeadlineExceeded => write!(f, "operation deadline exceeded"),
            TxError::OutOfBounds { mem, detail } => {
                write!(f, "out-of-bounds object access at {mem}: {detail}")
            }
            TxError::Abandoned => write!(f, "commit abandoned by its executor; outcome unknown"),
        }
    }
}

impl std::error::Error for TxError {}

impl From<SinfoniaError> for TxError {
    fn from(e: SinfoniaError) -> Self {
        match e {
            SinfoniaError::Unavailable(m) => TxError::Unavailable(m),
            SinfoniaError::OutOfBounds { mem, detail } => TxError::OutOfBounds {
                mem,
                detail: detail.into(),
            },
            SinfoniaError::DeadlineExceeded => TxError::DeadlineExceeded,
        }
    }
}

/// One member of a [`DynTx::read_many`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadItem {
    /// Read the object, dirty ([`DynTx::dirty_read`]).
    Read(ObjRef),
    /// Compare only: the object must still be at this version. A
    /// replicated object is compared on every memnode the call sends to.
    Pin(TxKey, SeqNo),
}

/// What one [`DynTx::read_many`] observed, member by member.
#[derive(Debug)]
pub struct ReadMany {
    /// In input order, what each member's memnode answered: a read's
    /// value, a pin's version (with no data). `None` where that memnode
    /// failed a compare or failed outright.
    pub vals: Vec<Option<ObjVal>>,
    /// The pins whose compare failed, as sorted input indices.
    pub stale: Vec<usize>,
    /// How the first memnode that failed outright failed (unavailable,
    /// past the deadline). The other memnodes' members were served.
    pub failed: Option<TxError>,
}

/// Summary returned by a successful commit.
#[derive(Debug, Default)]
pub struct CommitInfo {
    /// New sequence numbers installed for written objects.
    pub installed: Vec<(TxKey, SeqNo)>,
    /// True if commit needed no minitransaction (read-only, fully
    /// piggy-back-validated).
    pub validation_skipped: bool,
}

/// How a staged write reaches its memnode. The write set always holds the
/// whole new payload (for reads of one's own writes and for what a commit
/// installs); this says which of its bytes the commit sends.
enum Ship {
    /// Header and whole payload, under a fresh seqno.
    Whole,
    /// Header and whole payload, under this pinned seqno
    /// ([`DynTx::write_with_seqno`]).
    Pinned(SeqNo),
    /// A fresh seqno and the payload bytes in `changed` alone: the rest
    /// of the payload, and its length, equal those of the version `base`
    /// this transaction observed ([`DynTx::write_ranged`]).
    Range { base: SeqNo, changed: Range<usize> },
}

/// A dynamic transaction over a Sinfonia cluster.
pub struct DynTx<'c> {
    cluster: &'c SinfoniaCluster,
    read_set: BTreeMap<TxKey, SeqNo>,
    read_vals: HashMap<TxKey, Bytes>,
    write_set: BTreeMap<TxKey, (Bytes, Ship)>,
    dirty_seen: HashMap<TxKey, SeqNo>,
    /// Raw compare items added verbatim to fetch (same-memnode) and commit
    /// minitransactions. Used by the baseline B-tree mode to validate
    /// internal-node seqnos against the replicated table (§2.3).
    raw_compares: Vec<(ItemRange, Vec<u8>)>,
    /// Raw write items added verbatim to the commit minitransaction (e.g.
    /// replicated seqno-table updates).
    raw_writes: Vec<(ItemRange, Vec<u8>)>,
    /// True iff every current read-set entry was compare-validated by the
    /// most recent minitransaction (all at one instant).
    fully_validated: bool,
    /// Piggy-backed validation enabled (ablation switch).
    piggyback: bool,
    /// Lock policy override for the commit minitransaction.
    blocking_commit: Option<Duration>,
}

impl<'c> DynTx<'c> {
    /// Begins a transaction with piggy-backed validation enabled.
    pub fn new(cluster: &'c SinfoniaCluster) -> Self {
        Self::with_piggyback(cluster, true)
    }

    /// Begins a transaction, choosing whether fetches piggy-back read-set
    /// validation (used by the `ablation_piggyback` bench).
    pub fn with_piggyback(cluster: &'c SinfoniaCluster, piggyback: bool) -> Self {
        DynTx {
            cluster,
            read_set: BTreeMap::new(),
            read_vals: HashMap::new(),
            write_set: BTreeMap::new(),
            dirty_seen: HashMap::new(),
            raw_compares: Vec::new(),
            raw_writes: Vec::new(),
            fully_validated: true,
            piggyback,
            blocking_commit: None,
        }
    }

    /// Makes the commit minitransaction *blocking*: memnodes wait for busy
    /// locks (up to the budget) instead of aborting. Used for replicated
    /// snapshot-id updates (§4.1).
    pub fn set_blocking_commit(&mut self, budget: Duration) {
        self.blocking_commit = Some(budget);
    }

    /// Number of objects in the read set.
    pub fn read_set_len(&self) -> usize {
        self.read_set.len()
    }

    /// The version at which `key` was read into the read set, if it was.
    /// Lets callers populate caches with `(seqno, value)` pairs.
    pub fn observed_seqno(&self, key: &TxKey) -> Option<SeqNo> {
        self.read_set.get(key).copied()
    }

    /// True if this transaction has staged a write to `key`.
    pub fn is_staged(&self, key: &TxKey) -> bool {
        self.write_set.contains_key(key)
    }

    /// Builds the piggy-back compare items for a fetch at `mem`: compares
    /// every read-set entry (and raw compare) whose (replica) seqno lives
    /// on `mem`. Returns whether *all* current entries were covered.
    fn piggyback_compares(&self, m: &mut Minitransaction, mem: MemNodeId) -> bool {
        if !self.piggyback {
            return self.read_set.is_empty() && self.raw_compares.is_empty();
        }
        let mut covered_all = true;
        for (key, seqno) in &self.read_set {
            let range = match key {
                TxKey::Plain(r) if r.mem == mem => r.seqno_range(),
                TxKey::Plain(_) => {
                    covered_all = false;
                    continue;
                }
                // Replicated objects validate against the local replica.
                TxKey::Repl(r) => r.at(mem).seqno_range(),
            };
            m.compare(range, seqno.to_le_bytes().to_vec());
        }
        for (range, expected) in &self.raw_compares {
            if range.mem == mem {
                m.compare(*range, expected.clone());
            } else {
                covered_all = false;
            }
        }
        covered_all
    }

    /// Reads `obj` into the read set, piggy-backing compares of the read
    /// set's entries on its memnode.
    fn fetch(&mut self, key: TxKey, obj: ObjRef) -> Result<Bytes, TxError> {
        let mut m = Minitransaction::new();
        let covered_all = self.piggyback_compares(&mut m, obj.mem);
        m.read(obj.full_range());
        let outcome = {
            let _fetch = span(SpanKind::Fetch);
            self.cluster.execute(&m)?
        };
        let Outcome::Committed(res) = outcome else {
            return Err(TxError::Validation);
        };
        // Zero-copy: the payload view aliases the page buffer the memnode
        // served (and the cached value is a refcount bump).
        let val = decode_obj_shared(&res.data[0]);
        // Never overwrite a version already pinned (e.g. by
        // `assume_version`): the caller derived state from that version,
        // so commit must keep validating it — a later fetch observing a
        // newer seqno would silently launder the stale observation.
        self.read_set.entry(key).or_insert(val.seqno);
        self.read_vals.insert(key, val.data.clone());
        // The fetch and the compares happened atomically: if the compares
        // covered everything else, the entire read set (including this
        // fetch) was valid at one instant.
        self.fully_validated = covered_all;
        Ok(val.data)
    }

    /// Transactional read of a plain object. Consults the write set, then
    /// the read set, then fetches from the memnode (adding the object to
    /// the read set for commit-time validation).
    pub fn read(&mut self, obj: ObjRef) -> Result<Bytes, TxError> {
        let key = TxKey::Plain(obj);
        if let Some((v, _)) = self.write_set.get(&key) {
            return Ok(v.clone());
        }
        if let Some(v) = self.read_vals.get(&key) {
            return Ok(v.clone());
        }
        self.fetch(key, obj)
    }

    /// Transactional read of a replicated object from the replica at
    /// `prefer`.
    pub fn read_repl(&mut self, obj: ReplRef, prefer: MemNodeId) -> Result<Bytes, TxError> {
        let key = TxKey::Repl(obj);
        if let Some((v, _)) = self.write_set.get(&key) {
            return Ok(v.clone());
        }
        if let Some(v) = self.read_vals.get(&key) {
            return Ok(v.clone());
        }
        self.fetch(key, obj.at(prefer))
    }

    /// **Dirty read** (Minuet §3): fetches the current value of `obj`
    /// without adding it to the read set. Returns the observed version so
    /// callers can populate caches; the version is remembered for
    /// promotion if the object is later written.
    pub fn dirty_read(&mut self, obj: ObjRef) -> Result<ObjVal, TxError> {
        let got = self.read_many(&[ReadItem::Read(obj)])?;
        match got.vals.into_iter().next().flatten() {
            Some(val) => Ok(val),
            None => Err(got.failed.unwrap_or(TxError::Validation)),
        }
    }

    /// Reads many objects and pins many versions in one call: the
    /// transaction's one multi-object read. Each memnode the members name
    /// gets one minitransaction — a read item per [`ReadItem::Read`] this
    /// transaction does not already hold, a compare per plain
    /// [`ReadItem::Pin`], and a compare of every replicated pin — and all
    /// of them go out through one [`SinfoniaCluster::exec_many`]: members
    /// on `k` memnodes cost `k` round trips. Memnodes answer on their own
    /// ([`ReadMany`]). Reads are remembered for promotion, as
    /// [`DynTx::dirty_read`] remembers them; pins join the read set, as
    /// [`DynTx::assume_version`] does. The `Err` means nothing was sent.
    pub fn read_many(&mut self, items: &[ReadItem]) -> Result<ReadMany, TxError> {
        let (mut vals, mut repl) = (Vec::with_capacity(items.len()), Vec::new());
        let mut by_mem: BTreeMap<MemNodeId, Vec<usize>> = BTreeMap::new();
        for (i, &item) in items.iter().enumerate() {
            let held = match item {
                ReadItem::Read(obj) => self.held(obj),
                ReadItem::Pin(key, seqno) => {
                    self.read_set.entry(key).or_insert(seqno);
                    self.fully_validated = false;
                    None
                }
            };
            match item {
                _ if held.is_some() => {}
                ReadItem::Read(r) | ReadItem::Pin(TxKey::Plain(r), _) => {
                    by_mem.entry(r.mem).or_default().push(i)
                }
                ReadItem::Pin(TxKey::Repl(_), _) => repl.push(i),
            }
            vals.push(held);
        }
        // Per memnode: its members, replicated pins first, and which
        // compare index checks which pin.
        let (mut ms, mut plans) = (Vec::new(), Vec::new());
        for (mem, idx) in by_mem {
            let (mut m, mut compares) = (Minitransaction::new(), Vec::new());
            let members: Vec<usize> = repl.iter().copied().chain(idx).collect();
            for &i in &members {
                let (range, seqno) = match items[i] {
                    ReadItem::Read(obj) => {
                        m.read(obj.full_range());
                        continue;
                    }
                    ReadItem::Pin(TxKey::Plain(r), seqno) => (r.seqno_range(), seqno),
                    ReadItem::Pin(TxKey::Repl(r), seqno) => (r.at(mem).seqno_range(), seqno),
                };
                compares.push((m.compare(range, seqno.to_le_bytes().to_vec()), i));
            }
            ms.push(m);
            plans.push((members, compares));
        }
        let outcomes = if ms.is_empty() {
            Vec::new()
        } else {
            let _fetch = span(SpanKind::Fetch);
            self.cluster.exec_many(&ms)?
        };

        let mut got = ReadMany {
            vals,
            stale: Vec::new(),
            failed: None,
        };
        for ((members, compares), outcome) in plans.into_iter().zip(outcomes) {
            match outcome {
                Err(e) => drop(got.failed.get_or_insert(e.into())),
                Ok(Outcome::FailedCompare(failed)) => {
                    let stale = compares.into_iter().filter(|(c, _)| failed.contains(c));
                    got.stale.extend(stale.map(|(_, i)| i));
                }
                Ok(Outcome::Committed(res)) => {
                    // One buffer per read item, in the order they were added.
                    let mut data = res.data.iter();
                    for i in members {
                        got.vals[i] = match items[i] {
                            ReadItem::Read(obj) => data.next().map(|raw| {
                                let val = decode_obj_shared(raw);
                                self.note_dirty(obj, val.seqno);
                                val
                            }),
                            ReadItem::Pin(_, seqno) => Some(ObjVal {
                                seqno,
                                data: Bytes::new(),
                            }),
                        };
                    }
                }
            }
        }
        // A replicated pin another memnode confirmed is stale all the same.
        got.stale.sort_unstable();
        got.stale.dedup();
        for &i in &got.stale {
            got.vals[i] = None;
        }
        Ok(got)
    }

    /// What a dirty read of `obj` returns without the network: this
    /// transaction's own staged write, or the value its read set holds.
    fn held(&self, obj: ObjRef) -> Option<ObjVal> {
        let key = TxKey::Plain(obj);
        if let Some((v, _)) = self.write_set.get(&key) {
            return Some(ObjVal {
                seqno: self.dirty_seen.get(&key).copied().unwrap_or(0),
                data: v.clone(),
            });
        }
        self.read_vals.get(&key).map(|v| ObjVal {
            seqno: self.read_set[&key],
            data: v.clone(),
        })
    }

    /// Seeds the read set from a value the proxy already holds (e.g. its
    /// cached tip snapshot id, §4.1: "a proxy adds its cached copy of the
    /// tip snapshot ... to the transaction's read set"). No round trip; if
    /// the cached version is stale, validation fails and the caller
    /// refreshes its cache and retries.
    pub fn assume(&mut self, key: TxKey, seqno: SeqNo, value: impl Into<Bytes>) {
        self.read_set.insert(key, seqno);
        self.read_vals.insert(key, value.into());
        self.fully_validated = false;
    }

    /// Like [`DynTx::assume`] but pins only the *version* into the read
    /// set, without materializing the value. Used by the validated leaf
    /// cache: a get over a cached leaf pins the cached seqno so commit
    /// issues a compare-only validation minitransaction (tens of bytes)
    /// instead of re-fetching the leaf image. A subsequent `read` of the
    /// same object re-fetches the value (wasting the saved round trip)
    /// but keeps validating the pinned version, so a cache-served stale
    /// observation can never be laundered by the newer fetch.
    pub fn assume_version(&mut self, key: TxKey, seqno: SeqNo) {
        self.read_set.insert(key, seqno);
        self.fully_validated = false;
    }

    /// Records a dirty-read observation served from an upper-layer cache,
    /// so a later write can promote it with the right expected version.
    /// An object's first observation is the one kept, as for the read set:
    /// whatever was derived from it must still hold at commit.
    pub fn note_dirty(&mut self, obj: ObjRef, seqno: SeqNo) {
        self.dirty_seen.entry(TxKey::Plain(obj)).or_insert(seqno);
    }

    /// Begins a transaction that holds this one's observations of `keys`:
    /// read-set entries (with any value) stay in the read set, dirty
    /// observations stay dirty. Writes and raw items are not carried. A
    /// caller that derived several independent updates from one set of
    /// reads stages each in its own fork and commits them apart.
    pub fn fork(&self, keys: impl IntoIterator<Item = TxKey>) -> DynTx<'c> {
        let mut tx = DynTx::with_piggyback(self.cluster, self.piggyback);
        for key in keys {
            if let Some(&seqno) = self.read_set.get(&key) {
                tx.read_set.insert(key, seqno);
                if let Some(v) = self.read_vals.get(&key) {
                    tx.read_vals.insert(key, v.clone());
                }
            }
            if let Some(&seqno) = self.dirty_seen.get(&key) {
                tx.dirty_seen.insert(key, seqno);
            }
        }
        tx.fully_validated = tx.read_set.is_empty();
        tx
    }

    /// Transactional write of a plain object. If the object was previously
    /// dirty-read (directly or via [`DynTx::note_dirty`]) it is promoted
    /// into the read set first, so commit validates the version the writer
    /// derived its update from. Objects never read are written blindly
    /// (fresh allocations).
    pub fn write(&mut self, obj: ObjRef, payload: impl Into<Bytes>) {
        self.stage(obj, payload.into(), Ship::Whole);
    }

    /// Like [`DynTx::write`], for a payload of the same length as the
    /// version this transaction observed that differs from it only in the
    /// bytes `changed` covers — or, if this transaction already staged a
    /// write of `obj`, from that write. The commit then sends the new
    /// seqno and those bytes instead of the header and the whole payload.
    /// The range is kept relative to the observed version: a second
    /// ranged write widens the first. The write ships whole after all if
    /// the object was never observed (a blind write has no bytes to keep),
    /// if a whole write of it is staged, or if the observed version the
    /// range is relative to is no longer the one commit validates.
    pub fn write_ranged(&mut self, obj: ObjRef, payload: impl Into<Bytes>, changed: Range<usize>) {
        let payload = payload.into();
        debug_assert!(changed.start <= changed.end && changed.end <= payload.len());
        let key = TxKey::Plain(obj);
        self.promote(key);
        let base = self.read_set.get(&key).copied().filter(|&seqno| seqno != 0);
        let ship = match (base, self.write_set.get(&key)) {
            (Some(base), None) => Ship::Range { base, changed },
            (_, Some((staged, Ship::Range { base, changed: was })))
                if staged.len() == payload.len() =>
            {
                let changed = match (was.is_empty(), changed.is_empty()) {
                    (true, _) => changed,
                    (false, true) => was.clone(),
                    (false, false) => was.start.min(changed.start)..was.end.max(changed.end),
                };
                Ship::Range {
                    base: *base,
                    changed,
                }
            }
            _ => Ship::Whole,
        };
        self.stage(obj, payload, ship);
    }

    /// Like [`DynTx::write`], but pins the sequence number the commit will
    /// install. Used when the new seqno must also be written elsewhere in
    /// the same commit (the baseline's replicated seqno table, §2.3).
    pub fn write_with_seqno(&mut self, obj: ObjRef, payload: impl Into<Bytes>, seqno: SeqNo) {
        self.stage(obj, payload.into(), Ship::Pinned(seqno));
    }

    /// A dirty observation of `key`, if it is not in the read set, joins
    /// it: a write must validate the version it was derived from.
    fn promote(&mut self, key: TxKey) {
        if !self.read_set.contains_key(&key) {
            if let Some(&seen) = self.dirty_seen.get(&key) {
                self.read_set.insert(key, seen);
            }
        }
    }

    /// Stages a write of a plain object, promoting its dirty observation.
    fn stage(&mut self, obj: ObjRef, payload: Bytes, ship: Ship) {
        assert!(
            payload.len() <= obj.payload_cap() as usize,
            "payload {} exceeds object capacity {}",
            payload.len(),
            obj.payload_cap()
        );
        let key = TxKey::Plain(obj);
        self.promote(key);
        self.write_set.insert(key, (payload, ship));
    }

    /// Adds a raw compare item evaluated both by subsequent same-memnode
    /// fetches (piggy-backed) and by the commit minitransaction.
    pub fn add_raw_compare(&mut self, range: ItemRange, expected: Vec<u8>) {
        self.raw_compares.push((range, expected));
        self.fully_validated = false;
    }

    /// Adds a raw write item applied by the commit minitransaction.
    pub fn add_raw_write(&mut self, range: ItemRange, data: Vec<u8>) {
        self.raw_writes.push((range, data));
    }

    /// Transactional write of a replicated object: commit updates every
    /// replica atomically (engaging all memnodes).
    pub fn write_repl(&mut self, obj: ReplRef, payload: impl Into<Bytes>) {
        let payload = payload.into();
        assert!(payload.len() <= obj.payload_cap() as usize);
        self.write_set
            .insert(TxKey::Repl(obj), (payload, Ship::Whole));
    }

    /// Commits the transaction.
    ///
    /// Read-only transactions whose read set was entirely validated by the
    /// last fetch minitransaction commit without any round trip. Otherwise
    /// a single minitransaction validates every read-set entry and applies
    /// every write atomically; it commits at a single memnode (one phase)
    /// whenever all items land there. A commit is a batch of one: what
    /// [`commit_many`] does for many, done for this one.
    pub fn commit(self) -> Result<CommitInfo, TxError> {
        self.stage_commit().execute()
    }

    /// Builds the commit minitransaction without executing it, so several
    /// transactions' commits can be pipelined through one batched
    /// [`SinfoniaCluster::exec_many`] round trip per memnode (see
    /// [`commit_many`]). Consumes the transaction. Replicated writes are
    /// *not* fanned out to replicas here: the expansion happens at
    /// execution time under the membership gate, so staging any number of
    /// commits never holds a lock (holding several gate read guards on
    /// one thread could deadlock against a parked `add_memnode` writer).
    pub fn stage_commit(self) -> StagedCommit<'c> {
        let cluster = self.cluster;
        let staged = |what| StagedCommit { cluster, what };
        if self.write_set.is_empty() && self.raw_writes.is_empty() && self.fully_validated {
            return staged(Staged::Noop);
        }

        // Assembly counts as commit time: binding replicated compares
        // checks memnode flags (a cached read — the wire client keeps them
        // fresh off every reply envelope) and staging writes copies every
        // node image.
        let _commit = span(SpanKind::Commit);

        let mut m = Minitransaction::new();
        if let Some(budget) = self.blocking_commit {
            m = m.blocking(budget);
        }

        // Bind replicated-object compares to a memnode that is already a
        // participant, to preserve single-node commits. Joining memnodes
        // are skipped: their replicas of pre-existing replicated objects
        // may not be seeded yet, so comparing there would spuriously fail.
        let ready = |k: &TxKey| match k {
            TxKey::Plain(r) if !cluster.node(r.mem).is_joining() => Some(r.mem),
            _ => None,
        };
        let mut bind = (self.write_set.keys().find_map(ready))
            .or_else(|| self.read_set.keys().find_map(ready));
        for (key, seqno) in &self.read_set {
            let range = match key {
                TxKey::Plain(r) => r.seqno_range(),
                TxKey::Repl(r) => {
                    // A bind is only *required* when replicated compares
                    // exist; resolve the cluster-wide fallback lazily, and
                    // surface a typed retryable error when every memnode is
                    // joining or of unknown state (a drain or fault window)
                    // instead of binding compares to an unseeded replica,
                    // which would fail them spuriously — or worse, pass
                    // them against garbage.
                    bind = bind.or_else(|| cluster.try_first_ready());
                    match bind {
                        Some(b) => r.at(b).seqno_range(),
                        None => return staged(Staged::Failed(TxError::NoReadyReplica)),
                    }
                }
            };
            m.compare(range, seqno.to_le_bytes().to_vec());
        }
        for (range, expected) in &self.raw_compares {
            m.compare(*range, expected.clone());
        }

        let mut installed = Vec::with_capacity(self.write_set.len());
        let mut repl_writes = Vec::new();
        for (key, (payload, ship)) in &self.write_set {
            let new_seqno = match ship {
                Ship::Pinned(seqno) => *seqno,
                _ => cluster.next_txid(),
            };
            match (key, ship) {
                // Still relative to the version commit validates: the
                // header's length and every byte outside `changed` stay.
                (TxKey::Plain(r), Ship::Range { base, changed })
                    if self.read_set.get(key) == Some(base) =>
                {
                    m.write(r.seqno_range(), new_seqno.to_le_bytes().to_vec());
                    if !changed.is_empty() {
                        let off = r.off + u64::from(OBJ_HEADER) + changed.start as u64;
                        let range = ItemRange::new(r.mem, off, changed.len() as u32);
                        m.write(range, payload.slice(changed.start, changed.len()));
                    }
                }
                (TxKey::Plain(r), _) => {
                    let image = encode_obj(new_seqno, payload);
                    m.write(ItemRange::new(r.mem, r.off, image.len() as u32), image);
                }
                // Deferred: expanded to one write per replica at execution
                // time, under the membership gate; one shared buffer
                // serves every replica's write item.
                (TxKey::Repl(r), _) => {
                    repl_writes.push((*r, Bytes::from(encode_obj(new_seqno, payload))))
                }
            }
            installed.push((*key, new_seqno));
        }
        for (range, data) in &self.raw_writes {
            m.write(*range, data.clone());
        }
        staged(Staged::Mini {
            m,
            repl_writes,
            installed,
        })
    }
}

/// What a staged commit is.
enum Staged {
    /// Read-only and fully validated by piggy-backed compares: no
    /// minitransaction is needed.
    Noop,
    /// Staging itself failed (no ready memnode to bind replicated compares
    /// to, an object past its memnode's capacity): surfaced without
    /// touching the network.
    Failed(TxError),
    /// The commit minitransaction, the replicated writes awaiting their
    /// per-replica expansion, and the seqnos the commit installs.
    Mini {
        m: Minitransaction,
        repl_writes: Vec<(ReplRef, Bytes)>,
        installed: Vec<(TxKey, SeqNo)>,
    },
}

/// A commit that has been fully assembled but not yet executed. Replicated
/// writes fan out at execution time under the membership gate, so an
/// elastic `add_memnode` cannot add a replica the commit would miss — and
/// a staged commit holds no locks while it waits. Produced by
/// [`DynTx::stage_commit`], consumed by [`commit_many`] or an
/// [`crate::EpochService`].
pub struct StagedCommit<'c> {
    cluster: &'c SinfoniaCluster,
    what: Staged,
}

impl<'c> StagedCommit<'c> {
    /// False for a commit that resolves without the network (a no-op, a
    /// staging failure): batching layers pass such members straight
    /// through instead of holding them for a batch.
    pub(crate) fn needs_network(&self) -> bool {
        matches!(self.what, Staged::Mini { .. })
    }

    /// Holds the commit to its memnodes' capacities now rather than when
    /// it executes: inside a batch, one out-of-bounds member would refuse
    /// everyone's `exec_many`.
    pub(crate) fn bounds_checked(mut self) -> Self {
        if let Staged::Mini { m, .. } = &self.what {
            if let Err(e) = self.cluster.check_bounds(m) {
                self.what = Staged::Failed(e.into());
            }
        }
        self
    }

    /// Executes this commit as a batch of one.
    pub(crate) fn execute(self) -> Result<CommitInfo, TxError> {
        let mut slot = Err(TxError::Abandoned);
        execute_staged(&mut [self], std::slice::from_mut(&mut slot))?;
        slot
    }
}

/// The one way a staged commit reaches its memnodes: [`DynTx::commit`] is
/// this applied to one member, [`commit_many`] to many, an
/// [`crate::EpochService`] to whoever enrolled before the close. Writes
/// member *i*'s outcome into `slots[i]`; members validate and apply
/// independently, so each outcome is that member's own. The outer `Err`
/// means **nothing was sent** (a deadline already expired, an
/// out-of-bounds member) and leaves every slot as the caller filled it —
/// as does an unwind, which is what lets a caller pre-fill
/// [`TxError::Abandoned`].
pub(crate) fn execute_staged(
    staged: &mut [StagedCommit<'_>],
    slots: &mut [Result<CommitInfo, TxError>],
) -> Result<(), TxError> {
    debug_assert_eq!(staged.len(), slots.len());
    let batch = staged.len() > 1;
    let Some(cluster) = staged.first().map(|s| s.cluster) else {
        return Ok(());
    };
    // Mixing clusters would silently apply every member to the first
    // cluster's memnodes; the pointer comparisons are cheap enough to
    // keep in release builds.
    assert!(
        staged.iter().all(|s| std::ptr::eq(s.cluster, cluster)),
        "commit_many across clusters"
    );
    // Replicated writes snapshot the membership to enumerate replicas;
    // hold the gate until the batch has executed so an elastic
    // `add_memnode` cannot add a replica a commit misses. One acquisition
    // covers every member (never take the gate per member: multiple read
    // guards on one thread can deadlock against a parked add_memnode
    // writer).
    let mut membership = None;
    let (mut minis, mut ms) = (0, Vec::new());
    for s in staged.iter_mut() {
        let Staged::Mini { m, repl_writes, .. } = &mut s.what else {
            continue;
        };
        for (r, image) in repl_writes.drain(..) {
            membership.get_or_insert_with(|| cluster.membership_guard());
            for mem in cluster.memnode_ids() {
                let range = ItemRange::new(mem, r.off, image.len() as u32);
                m.write(range, image.clone());
            }
        }
        minis += 1;
        if batch {
            ms.push(std::mem::take(m));
        }
    }

    let commit = (minis > 0).then(|| span(SpanKind::Commit));
    let (lone, many) = match &*staged {
        // A batch of one is a commit: the same call, the same `ExecSingle`
        // frame, no heap.
        [StagedCommit {
            what: Staged::Mini { m, .. },
            ..
        }] => (Some(cluster.execute(m)), Vec::new()),
        _ => (None, cluster.exec_many(&ms)?),
    };
    drop((commit, membership));

    let mut outcomes = lone.into_iter().chain(many);
    for (s, slot) in staged.iter_mut().zip(slots) {
        let settled = match std::mem::replace(&mut s.what, Staged::Noop) {
            Staged::Noop => Ok((Vec::new(), true)),
            Staged::Failed(e) => Err(e),
            Staged::Mini { installed, .. } => match outcomes.next() {
                Some(Ok(Outcome::Committed(_))) => Ok((installed, false)),
                Some(Ok(Outcome::FailedCompare(_))) => Err(TxError::Validation),
                Some(Err(e)) => Err(e.into()),
                None => continue,
            },
        };
        *slot = settled.map(|(installed, validation_skipped)| CommitInfo {
            installed,
            validation_skipped,
        });
    }
    Ok(())
}

/// Executes many staged commits as one batch: the commit minitransactions
/// go through [`SinfoniaCluster::exec_many`], so N single-memnode commits
/// bound for the same memnode cost one round trip instead of N. Each
/// commit validates and applies independently (there is no atomicity
/// across batch members); per-transaction outcomes are returned in input
/// order — [`TxError::Validation`] marks a member whose read set went
/// stale, [`TxError::Unavailable`] one whose memnode stayed down while the
/// others committed. The outer `Err` means nothing was sent. All staged
/// commits must target the same cluster.
///
/// ```
/// use minuet_sinfonia::{ClusterConfig, MemNodeId, SinfoniaCluster};
/// use minuet_dyntx::{commit_many, DynTx, ObjRef};
///
/// let cluster = SinfoniaCluster::new(ClusterConfig::with_memnodes(1));
/// let staged: Vec<_> = (0..4u64)
///     .map(|i| {
///         let mut tx = DynTx::new(&cluster);
///         tx.write(ObjRef::new(MemNodeId(0), i * 64, 64), vec![i as u8]);
///         tx.stage_commit()
///     })
///     .collect();
/// // All four commits share one batched round trip to memnode 0.
/// let results = commit_many(staged).unwrap();
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
pub fn commit_many(
    mut staged: Vec<StagedCommit<'_>>,
) -> Result<Vec<Result<CommitInfo, TxError>>, TxError> {
    let mut slots: Vec<_> = (staged.iter().map(|_| Err(TxError::Abandoned))).collect();
    execute_staged(&mut staged, &mut slots)?;
    Ok(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minuet_sinfonia::{with_op_net, ClusterConfig};
    use std::sync::Arc;

    fn cluster(n: usize) -> Arc<SinfoniaCluster> {
        SinfoniaCluster::new(ClusterConfig {
            memnodes: n,
            capacity_per_node: 1 << 20,
            ..Default::default()
        })
    }

    fn obj(mem: u16, off: u64) -> ObjRef {
        ObjRef::new(MemNodeId(mem), off, 64)
    }

    #[test]
    fn write_then_read_back() {
        let c = cluster(1);
        let o = obj(0, 0);
        let mut tx = DynTx::new(&c);
        tx.write(o, b"v1".to_vec());
        tx.commit().unwrap();

        let mut tx = DynTx::new(&c);
        assert_eq!(tx.read(o).unwrap(), b"v1");
        assert!(tx.commit().unwrap().validation_skipped);
    }

    #[test]
    fn read_own_writes() {
        let c = cluster(1);
        let o = obj(0, 0);
        let mut tx = DynTx::new(&c);
        tx.write(o, b"mine".to_vec());
        assert_eq!(tx.read(o).unwrap(), b"mine");
    }

    #[test]
    fn validation_detects_conflict() {
        let c = cluster(1);
        let o = obj(0, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(o, b"init".to_vec());
        t0.commit().unwrap();

        let mut t1 = DynTx::new(&c);
        let _ = t1.read(o).unwrap();
        // Concurrent writer commits first.
        let mut t2 = DynTx::new(&c);
        let _ = t2.read(o).unwrap();
        t2.write(o, b"two".to_vec());
        t2.commit().unwrap();

        t1.write(o, b"one".to_vec());
        assert_eq!(t1.commit().unwrap_err(), TxError::Validation);
        // t2's write survives.
        let mut t3 = DynTx::new(&c);
        assert_eq!(t3.read(o).unwrap(), b"two");
    }

    #[test]
    fn dirty_read_skips_validation() {
        let c = cluster(1);
        let a = obj(0, 0);
        let b = obj(0, 64);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a0".to_vec());
        t0.write(b, b"b0".to_vec());
        t0.commit().unwrap();

        // t1 dirty-reads a, transactionally reads b.
        let mut t1 = DynTx::new(&c);
        assert_eq!(t1.dirty_read(a).unwrap().data, b"a0");
        assert_eq!(t1.read(b).unwrap(), b"b0");
        // Concurrent update to a (the dirty-read object).
        let mut t2 = DynTx::new(&c);
        let _ = t2.read(a).unwrap();
        t2.write(a, b"a1".to_vec());
        t2.commit().unwrap();
        // t1 still commits: a is not in its read set.
        assert_eq!(t1.read_set_len(), 1);
        assert!(t1.commit().is_ok());
    }

    #[test]
    fn dirty_then_write_promotes_and_validates() {
        let c = cluster(1);
        let a = obj(0, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a0".to_vec());
        t0.commit().unwrap();

        let mut t1 = DynTx::new(&c);
        let _ = t1.dirty_read(a).unwrap();
        // Concurrent update invalidates the version t1 observed.
        let mut t2 = DynTx::new(&c);
        let _ = t2.read(a).unwrap();
        t2.write(a, b"a1".to_vec());
        t2.commit().unwrap();

        t1.write(a, b"bad".to_vec()); // promotion: expected seqno = dirty-read version
        assert_eq!(t1.commit().unwrap_err(), TxError::Validation);
    }

    /// Six objects alternating between two memnodes, written `[i]`.
    fn alternating(c: &SinfoniaCluster) -> Vec<ObjRef> {
        let objs: Vec<ObjRef> = (0..6u64).map(|i| obj((i % 2) as u16, 64 * i)).collect();
        let mut t0 = DynTx::new(c);
        for (i, &o) in objs.iter().enumerate() {
            t0.write(o, vec![i as u8]);
        }
        t0.commit().unwrap();
        objs
    }

    /// Dirty-reads `objs` with one [`DynTx::read_many`], every one served.
    fn dirty_read_many(t: &mut DynTx<'_>, objs: &[ObjRef]) -> Result<Vec<ObjVal>, TxError> {
        let items: Vec<_> = objs.iter().map(|&o| ReadItem::Read(o)).collect();
        let got = t.read_many(&items)?;
        assert!(got.stale.is_empty() && got.failed.is_none());
        Ok(got.vals.into_iter().flatten().collect())
    }

    #[test]
    fn dirty_read_many_answers_in_input_order() {
        let c = cluster(2);
        let objs = alternating(&c);
        let mut t = DynTx::new(&c);
        let vals = dirty_read_many(&mut t, &objs).unwrap();
        let got: Vec<Vec<u8>> = vals.iter().map(|v| v.data.to_vec()).collect();
        assert_eq!(got, (0..6u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert!(vals.iter().all(|v| !v.is_unwritten()));
        // Dirty: nothing joins the read set.
        assert_eq!(t.read_set_len(), 0);
    }

    #[test]
    fn dirty_read_many_costs_one_round_trip_per_memnode() {
        let c = cluster(2);
        let objs = alternating(&c);
        let mut t = DynTx::new(&c);
        let before = c.transport.stats.round_trips.get();
        dirty_read_many(&mut t, &objs).unwrap();
        assert_eq!(c.transport.stats.round_trips.get() - before, 2);
        let before = c.transport.stats.round_trips.get();
        dirty_read_many(&mut t, &objs[..1]).unwrap();
        assert_eq!(c.transport.stats.round_trips.get() - before, 1);
    }

    #[test]
    fn dirty_read_many_then_write_promotes_and_validates() {
        let c = cluster(2);
        let objs = alternating(&c);
        let mut t1 = DynTx::new(&c);
        dirty_read_many(&mut t1, &objs).unwrap();
        // Concurrent update of one object t1 observed.
        let mut t2 = DynTx::new(&c);
        let _ = t2.read(objs[3]).unwrap();
        t2.write(objs[3], b"new".to_vec());
        t2.commit().unwrap();

        t1.write(objs[3], b"bad".to_vec()); // promoted at the observed seqno
        assert_eq!(t1.commit().unwrap_err(), TxError::Validation);
        // An object observed but not updated in between commits fine.
        let mut t3 = DynTx::new(&c);
        dirty_read_many(&mut t3, &objs).unwrap();
        t3.write(objs[2], b"ok".to_vec());
        t3.commit().unwrap();
    }

    #[test]
    fn dirty_read_many_of_nothing_sends_nothing() {
        let c = cluster(2);
        let mut t = DynTx::new(&c);
        let before = c.transport.stats.round_trips.get();
        assert!(dirty_read_many(&mut t, &[]).unwrap().is_empty());
        assert_eq!(c.transport.stats.round_trips.get(), before);
    }

    #[test]
    fn read_many_reports_stale_pins_and_serves_the_other_memnodes() {
        let c = cluster(2);
        let objs = alternating(&c);
        let mut t0 = DynTx::new(&c);
        let seqs: Vec<SeqNo> = (objs.iter())
            .map(|&o| t0.dirty_read(o).unwrap().seqno)
            .collect();
        // Objects 1 and 3 live on memnode 1; 3 changes behind the pins.
        let mut w = DynTx::new(&c);
        w.write(objs[3], b"new".to_vec());
        w.commit().unwrap();
        let pin = |i: usize| ReadItem::Pin(TxKey::Plain(objs[i]), seqs[i]);
        let items = [
            ReadItem::Read(objs[0]),
            pin(2),
            pin(1),
            pin(3),
            ReadItem::Read(objs[5]),
        ];
        let mut t = DynTx::new(&c);
        let (got, net) = with_op_net(|| t.read_many(&items).unwrap());
        assert_eq!(net.round_trips, 2, "one minitransaction per memnode");
        assert_eq!(got.stale, [3]);
        assert!(got.failed.is_none());
        // Memnode 0 answered both of its members; memnode 1 failed a
        // compare, so its read and its good pin have no answer.
        assert_eq!(got.vals[0].as_ref().unwrap().data.to_vec(), [0u8]);
        assert_eq!(got.vals[1].as_ref().unwrap().seqno, seqs[2]);
        assert!(got.vals[2..].iter().all(Option::is_none));
        // Every pin joined the read set, stale or not.
        assert_eq!(t.read_set_len(), 3);
        assert_eq!(t.observed_seqno(&TxKey::Plain(objs[3])), Some(seqs[3]));
    }

    #[test]
    fn read_many_compares_a_replicated_pin_on_every_memnode_it_sends_to() {
        let c = cluster(3);
        let r = ReplRef::new(0, 64);
        let mut t0 = DynTx::new(&c);
        t0.write_repl(r, b"tip".to_vec());
        let seq = t0.commit().unwrap().installed[0].1;
        let (a, b) = (obj(0, 4096), obj(2, 4096));
        let items = [
            ReadItem::Pin(TxKey::Repl(r), seq),
            ReadItem::Read(a),
            ReadItem::Read(b),
        ];
        // Piggyback off: the pin is compared all the same.
        let mut t = DynTx::with_piggyback(&c, false);
        let (got, net) = with_op_net(|| t.read_many(&items).unwrap());
        assert!(got.stale.is_empty() && got.vals.iter().all(Option::is_some));
        assert_eq!(
            (net.round_trips, net.messages),
            (2, 2),
            "memnode 1 is not sent to"
        );
        // The object moves: both memnodes sent to report the pin, once.
        let mut w = DynTx::new(&c);
        w.write_repl(r, b"moved".to_vec());
        w.commit().unwrap();
        let got = DynTx::new(&c).read_many(&items).unwrap();
        assert_eq!(got.stale, [0]);
        assert!(got.vals.iter().all(Option::is_none));
        // Pins alone send nothing.
        let (_, net) = with_op_net(|| DynTx::new(&c).read_many(&items[..1]).unwrap());
        assert_eq!(net.round_trips, 0);
    }

    #[test]
    fn a_fork_holds_its_parents_observations_of_the_keys_named() {
        let c = cluster(1);
        let (a, b, d) = (obj(0, 0), obj(0, 64), obj(0, 128));
        let mut t0 = DynTx::new(&c);
        for o in [a, b, d] {
            t0.write(o, b"0".to_vec());
        }
        t0.commit().unwrap();
        let mut t = DynTx::new(&c);
        t.read(a).unwrap();
        t.dirty_read(b).unwrap();
        t.dirty_read(d).unwrap();
        let mut f = t.fork([TxKey::Plain(a), TxKey::Plain(b)]);
        assert_eq!(f.read_set_len(), 1, "a read stays read, a dirty read dirty");
        // The fork promotes `b` at the parent's observation...
        let mut w = DynTx::new(&c);
        w.write(b, b"1".to_vec());
        w.commit().unwrap();
        f.write(b, b"2".to_vec());
        assert_eq!(f.commit().unwrap_err(), TxError::Validation);
        // ...but not `d`, which it was not given: a blind write.
        let mut f = t.fork([]);
        f.write(d, b"2".to_vec());
        f.commit().unwrap();
    }

    #[test]
    fn piggyback_makes_readonly_commit_free() {
        let c = cluster(1);
        let a = obj(0, 0);
        let b = obj(0, 64);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a".to_vec());
        t0.write(b, b"b".to_vec());
        t0.commit().unwrap();

        let mut t1 = DynTx::new(&c);
        let _ = t1.read(a).unwrap();
        let ((), net) = with_op_net(|| {
            let _ = t1.read(b).unwrap();
        });
        assert_eq!(net.round_trips, 1); // fetch b validates a in the same trip
        let info = t1.commit().unwrap();
        assert!(info.validation_skipped);
    }

    #[test]
    fn no_piggyback_requires_commit_validation() {
        let c = cluster(1);
        let a = obj(0, 0);
        let b = obj(0, 64);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a".to_vec());
        t0.write(b, b"b".to_vec());
        t0.commit().unwrap();

        let mut t1 = DynTx::with_piggyback(&c, false);
        let _ = t1.read(a).unwrap();
        let _ = t1.read(b).unwrap();
        let info = t1.commit().unwrap();
        assert!(!info.validation_skipped);
    }

    #[test]
    fn assume_version_pin_survives_a_later_fetch() {
        // assume_version then read(): the fetch must keep validating the
        // pinned (possibly stale) version, not the freshly observed one.
        let c = cluster(1);
        let a = obj(0, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a0".to_vec());
        let seq0 = t0.commit().unwrap().installed[0].1;

        // Piggyback off so the re-fetch itself cannot catch the staleness;
        // only commit validation of the pinned seqno can.
        let mut t1 = DynTx::with_piggyback(&c, false);
        t1.assume_version(TxKey::Plain(a), seq0);
        // Concurrent update invalidates the pinned observation.
        let mut t2 = DynTx::new(&c);
        let _ = t2.read(a).unwrap();
        t2.write(a, b"a1".to_vec());
        t2.commit().unwrap();

        assert_eq!(t1.read(a).unwrap(), b"a1"); // fetch sees the new value
        t1.write(obj(0, 64), b"x".to_vec());
        assert_eq!(t1.commit().unwrap_err(), TxError::Validation);
    }

    #[test]
    fn piggyback_catches_stale_assumption() {
        let c = cluster(1);
        let a = obj(0, 0);
        let b = obj(0, 64);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a0".to_vec());
        t0.write(b, b"b0".to_vec());
        t0.commit().unwrap();

        // Proxy cached a at some stale version.
        let mut t1 = DynTx::new(&c);
        t1.assume(TxKey::Plain(a), 9999, b"stale".to_vec());
        assert_eq!(t1.read(b).unwrap_err(), TxError::Validation);
    }

    #[test]
    fn replicated_write_updates_all_replicas() {
        let c = cluster(3);
        let r = ReplRef::new(0, 64);
        let mut t = DynTx::new(&c);
        t.write_repl(r, b"tip".to_vec());
        t.commit().unwrap();
        for mem in c.memnode_ids() {
            let mut tr = DynTx::new(&c);
            assert_eq!(tr.read_repl(r, mem).unwrap(), b"tip");
        }
    }

    #[test]
    fn replicated_read_any_validates_against_write_all() {
        let c = cluster(3);
        let r = ReplRef::new(0, 64);
        let mut t0 = DynTx::new(&c);
        t0.write_repl(r, b"v0".to_vec());
        t0.commit().unwrap();

        // Reader snapshots the replicated object from replica 2.
        let mut t1 = DynTx::new(&c);
        let _ = t1.read_repl(r, MemNodeId(2)).unwrap();
        // Writer bumps it everywhere.
        let mut t2 = DynTx::new(&c);
        let _ = t2.read_repl(r, MemNodeId(0)).unwrap();
        t2.write_repl(r, b"v1".to_vec());
        t2.commit().unwrap();
        // Reader's plain-object write must fail validation of the repl entry.
        let o = obj(1, 512);
        t1.write(o, b"x".to_vec());
        assert_eq!(t1.commit().unwrap_err(), TxError::Validation);
    }

    #[test]
    fn single_key_update_is_two_round_trips() {
        let c = cluster(4);
        let o = obj(2, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(o, b"v0".to_vec());
        t0.commit().unwrap();

        let (res, net) = with_op_net(|| {
            let mut t = DynTx::new(&c);
            let _ = t.read(o).unwrap(); // 1 RT
            t.write(o, b"v1".to_vec());
            t.commit().unwrap() // 1 RT (single memnode, one-phase)
        });
        assert!(!res.validation_skipped);
        assert_eq!(net.round_trips, 2);
    }

    #[test]
    fn blind_write_needs_no_read() {
        let c = cluster(2);
        let o = obj(1, 4096);
        let (_, net) = with_op_net(|| {
            let mut t = DynTx::new(&c);
            t.write(o, b"fresh".to_vec());
            t.commit().unwrap();
        });
        assert_eq!(net.round_trips, 1);
        let mut t = DynTx::new(&c);
        assert_eq!(t.read(o).unwrap(), b"fresh");
    }

    #[test]
    fn commit_many_batches_colocated_commits_into_one_round_trip() {
        let c = cluster(2);
        // Blind writes to 8 distinct objects on memnode 0.
        let staged: Vec<StagedCommit<'_>> = (0..8)
            .map(|i| {
                let mut t = DynTx::new(&c);
                t.write(obj(0, i * 64), format!("v{i}").into_bytes());
                t.stage_commit()
            })
            .collect();
        let (results, net) = with_op_net(|| commit_many(staged).unwrap());
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(net.round_trips, 1);
        for i in 0..8 {
            let mut t = DynTx::new(&c);
            assert_eq!(
                t.read(obj(0, i * 64)).unwrap(),
                format!("v{i}").into_bytes()
            );
        }
    }

    #[test]
    fn commit_many_isolates_validation_failures() {
        let c = cluster(1);
        let a = obj(0, 0);
        let b = obj(0, 64);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a0".to_vec());
        t0.write(b, b"b0".to_vec());
        t0.commit().unwrap();

        // Two updaters; a concurrent writer invalidates only `a`.
        let mut ta = DynTx::new(&c);
        let _ = ta.read(a).unwrap();
        ta.write(a, b"a1".to_vec());
        let mut tb = DynTx::new(&c);
        let _ = tb.read(b).unwrap();
        tb.write(b, b"b1".to_vec());

        let mut interloper = DynTx::new(&c);
        let _ = interloper.read(a).unwrap();
        interloper.write(a, b"ax".to_vec());
        interloper.commit().unwrap();

        let results = commit_many(vec![ta.stage_commit(), tb.stage_commit()]).unwrap();
        assert_eq!(results[0].as_ref().unwrap_err(), &TxError::Validation);
        assert!(results[1].is_ok());
        let mut t = DynTx::new(&c);
        assert_eq!(t.read(a).unwrap(), b"ax");
        assert_eq!(t.read(b).unwrap(), b"b1");
    }

    #[test]
    fn commit_many_passes_noop_commits_through() {
        let c = cluster(1);
        let a = obj(0, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(a, b"a".to_vec());
        t0.commit().unwrap();

        let mut ro = DynTx::new(&c);
        let _ = ro.read(a).unwrap();
        let mut w = DynTx::new(&c);
        w.write(obj(0, 64), b"w".to_vec());

        let results = commit_many(vec![ro.stage_commit(), w.stage_commit()]).unwrap();
        assert!(results[0].as_ref().unwrap().validation_skipped);
        assert!(!results[1].as_ref().unwrap().validation_skipped);
        assert!(commit_many(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn commit_many_fails_only_the_member_whose_memnode_is_dead() {
        let c = SinfoniaCluster::new(ClusterConfig {
            memnodes: 2,
            capacity_per_node: 1 << 20,
            unavailable_retry: Duration::from_millis(20),
            ..Default::default()
        });
        c.crash(MemNodeId(1));
        let (a, b) = (obj(0, 0), obj(1, 0));
        let staged = [a, b].map(|o| {
            let mut t = DynTx::new(&c);
            t.write(o, b"w".to_vec());
            t.stage_commit()
        });
        let results = commit_many(staged.into()).unwrap();
        // a's write is committed and readable, and a is told so.
        let info = results[0].as_ref().unwrap();
        assert_eq!(info.installed[0].0, TxKey::Plain(a));
        assert_eq!(DynTx::new(&c).read(a).unwrap(), b"w");
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &TxError::Unavailable(MemNodeId(1))
        );
    }

    /// The `(offset, length)` of every write item a staged commit sends.
    fn shipped(staged: &StagedCommit<'_>) -> Vec<(u64, usize)> {
        let Staged::Mini { m, .. } = &staged.what else {
            return Vec::new();
        };
        (m.shards().iter())
            .flat_map(|(_, shard)| shard.writes.iter().map(|(_, off, d)| (*off, d.len())))
            .collect()
    }

    /// `base` with bytes `at` set to `v`.
    fn patched(base: &[u8], at: std::ops::Range<usize>, v: u8) -> Vec<u8> {
        let mut out = base.to_vec();
        out[at].fill(v);
        out
    }

    /// An object at `(0, 0)` holding 40 zero bytes.
    fn forty_zeroes(c: &SinfoniaCluster) -> ObjRef {
        let o = obj(0, 0);
        let mut t0 = DynTx::new(c);
        t0.write(o, vec![0u8; 40]);
        t0.commit().unwrap();
        o
    }

    #[test]
    fn two_ranged_writes_to_one_object_both_land() {
        let c = cluster(1);
        let o = forty_zeroes(&c);
        let mut t = DynTx::new(&c);
        let base = t.read(o).unwrap().to_vec();
        let first = patched(&base, 2..4, 1);
        t.write_ranged(o, first.clone(), 2..4);
        // Derived from the staged write, its range relative to it: the
        // commit must still ship the first write's bytes.
        let second = patched(&first, 30..32, 2);
        t.write_ranged(o, second.clone(), 30..32);
        let staged = t.stage_commit();
        let header = u64::from(OBJ_HEADER);
        assert_eq!(shipped(&staged), [(0, 8), (header + 2, 30)]);
        staged.execute().unwrap();
        assert_eq!(DynTx::new(&c).read(o).unwrap(), second);
    }

    #[test]
    fn a_ranged_write_after_a_whole_write_stays_whole() {
        let c = cluster(1);
        let o = forty_zeroes(&c);
        let mut t = DynTx::new(&c);
        let base = t.read(o).unwrap().to_vec();
        let whole = patched(&base, 0..40, 3);
        t.write(o, whole.clone());
        let after = patched(&whole, 5..6, 4);
        t.write_ranged(o, after.clone(), 5..6);
        let staged = t.stage_commit();
        assert_eq!(shipped(&staged), [(0, OBJ_HEADER as usize + 40)]);
        staged.execute().unwrap();
        assert_eq!(DynTx::new(&c).read(o).unwrap(), after);
    }

    #[test]
    fn a_ranged_write_to_an_object_never_observed_ships_whole() {
        let c = cluster(1);
        let o = forty_zeroes(&c);
        let mut t = DynTx::new(&c);
        let blind = patched(&[0u8; 40], 7..9, 5);
        t.write_ranged(o, blind.clone(), 7..9);
        let staged = t.stage_commit();
        assert_eq!(shipped(&staged), [(0, OBJ_HEADER as usize + 40)]);
        staged.execute().unwrap();
        assert_eq!(DynTx::new(&c).read(o).unwrap(), blind);
    }

    #[test]
    fn a_ranged_write_over_a_moved_version_fails_and_changes_no_byte() {
        let c = cluster(1);
        let o = forty_zeroes(&c);
        let mut t = DynTx::new(&c);
        let base = t.read(o).unwrap().to_vec();
        let mut w = DynTx::new(&c);
        w.read(o).unwrap();
        let moved = patched(&base, 10..20, 6);
        w.write_ranged(o, moved.clone(), 10..20);
        w.commit().unwrap();
        t.write_ranged(o, patched(&base, 0..2, 7), 0..2);
        assert_eq!(t.commit().unwrap_err(), TxError::Validation);
        assert_eq!(DynTx::new(&c).read(o).unwrap(), moved);
    }

    #[test]
    fn a_ranged_write_whose_observed_version_is_re_pinned_ships_whole() {
        let c = cluster(1);
        let o = forty_zeroes(&c);
        let mut t = DynTx::new(&c);
        let base = t.read(o).unwrap().to_vec();
        let mut w = DynTx::new(&c);
        w.read(o).unwrap();
        w.write(o, patched(&base, 10..20, 6));
        let moved = w.commit().unwrap().installed[0].1;
        // The range is relative to the first version; the read set now
        // validates the second, whose bytes 10..20 it would not restore.
        let mine = patched(&base, 0..2, 7);
        t.write_ranged(o, mine.clone(), 0..2);
        t.assume_version(TxKey::Plain(o), moved);
        let staged = t.stage_commit();
        assert_eq!(shipped(&staged), [(0, OBJ_HEADER as usize + 40)]);
        staged.execute().unwrap();
        assert_eq!(DynTx::new(&c).read(o).unwrap(), mine);
    }

    #[test]
    fn unique_seqnos_prevent_aba() {
        let c = cluster(1);
        let o = obj(0, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(o, b"A".to_vec());
        t0.commit().unwrap();

        let mut reader = DynTx::new(&c);
        let _ = reader.read(o).unwrap();

        // A -> B -> A: same payload returns, but seqno differs.
        for v in [b"B".to_vec(), b"A".to_vec()] {
            let mut t = DynTx::new(&c);
            let _ = t.read(o).unwrap();
            t.write(o, v);
            t.commit().unwrap();
        }
        reader.write(o, b"C".to_vec());
        assert_eq!(reader.commit().unwrap_err(), TxError::Validation);
    }
}
