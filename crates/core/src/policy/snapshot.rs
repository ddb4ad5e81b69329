//! The compiled, immutable policy snapshot read by the flow-setup hot path.
//!
//! This is the control/data-plane split applied to the DFI's own decision
//! engine. The mutable [`PolicyManager`] stays the single source of truth
//! on the control plane; every mutation *lowers* the current rule set into
//! a [`PolicySnapshot`] — a frozen classifier over the exact same bucket
//! dimensions as the manager's live index — which the control front then
//! publishes to every data shard as one `Arc` (a pointer swap per shard).
//! The packet path reads only the snapshot: no locks, no
//! `&mut PolicyManager`, no allocation.
//!
//! # Arbitration is bit-identical
//!
//! [`PolicySnapshot::classify`] mirrors [`PolicyManager::query`] and
//! [`PolicySnapshot::classify_class`] mirrors
//! [`PolicyManager::query_class`]: same candidate buckets (dst username →
//! dst hostname → dst IP → src username → src hostname → src IP → scan),
//! same `(priority desc, id asc)` k-way merge, same first-priority-group
//! cutoff, same Deny-beats-Allow tie break, same default deny. The
//! `snapshot_classify_matches_indexed_and_linear` proptest in
//! `tests/proptest_policy.rs` proves the three-way equivalence
//! `classify ≡ query ≡ query_linear` (and the `_class` triple) on random
//! insert/revoke histories.
//!
//! # Why the hot path gets faster
//!
//! The manager's per-query costs that the snapshot compiles away:
//!
//! * bucket keys are built per query (`to_ascii_lowercase` heap strings,
//!   a `Vec`, a sort) — the snapshot pre-folds every name key at build
//!   time and looks flow names up case-insensitively in place;
//! * each candidate id costs a `BTreeMap` probe — the snapshot stores
//!   rules in a flat id-ordered arena indexed by `u32`;
//! * hash lookups over `String` keys — the snapshot binary-searches small
//!   sorted tables with raw byte compares;
//! * `rule.matches(flow)` is interpreted per candidate — the snapshot
//!   compiles each entry's *residual* predicate instead. Filing a rule
//!   under a bucket already proves its filed clause (the lookup only
//!   returns the bucket when the flow carries a case-equal name / equal
//!   IP), so an entry whose every *other* clause is a wildcard is marked
//!   `TRIVIAL` at build time: it matches by construction, no arena fetch,
//!   no string compares. The action is folded into a `DENY` flag, so
//!   arbitration over trivial entries touches nothing but the entry
//!   itself. Going further, when a bucket's entire top-priority run is
//!   trivial its verdict no longer depends on the flow at all, and the
//!   bucket carries a pre-computed [`Decision`]; a flow that yields
//!   exactly one candidate bucket (the common enterprise shape: one
//!   matched destination identifier) skips the merge entirely.
//!
//! Steady-state classification performs **zero allocations** (gated by
//! `dfi-decidegate` with a counting global allocator); cursor state lives
//! in a fixed inline array with a heap spill only for flows carrying more
//! than [`INLINE_CURSORS`] identifiers.
//!
//! # Concurrency model
//!
//! A compiled [`PolicySnapshot`] is plain immutable data (`Vec`s,
//! `String`s, integers) and therefore `Send + Sync`; it crosses thread
//! boundaries behind an `Arc` (statically asserted below), carried by
//! value in the worker channels' epoch command. A reader that loaded the
//! `Arc` keeps deciding on it while a newer one is published; the old
//! version is dropped with its last reader.

use crate::policy::manager::{Decision, PolicyManager, DEFAULT_DENY_ID};
use crate::policy::model::{
    EndpointPattern, FlowProperties, FlowView, PolicyAction, PolicyRule, Wild, WildName,
};
use std::cmp::{Ordering, Reverse};
use std::net::Ipv4Addr;

/// Cursor slots kept inline (stack) during a classification. A flow
/// contributes one cursor per bound username/hostname plus one per packet
/// IP plus the scan bucket — and only for identifiers that actually hit a
/// non-empty bucket, so enterprise flows stay well under this. Kept small
/// on purpose: the array is zeroed per classification, and a flow bound
/// to more identifiers than this spills to a heap `Vec` instead of
/// penalizing every other flow.
pub const INLINE_CURSORS: usize = 8;

/// One rule in the compiled arena, stored in id order so an arena index
/// orders exactly like a [`super::PolicyId`].
#[derive(Clone, Debug)]
struct CompiledRule {
    id: super::PolicyId,
    action: PolicyAction,
    pins_port: bool,
    rule: PolicyRule,
    /// Arbitration rank at compile time — retained so a snapshot from the
    /// retention ring can reconstruct the manager state it was lowered
    /// from (one-command rollback).
    priority: u32,
    /// The PDP that authored the rule, for the same reason.
    pdp: String,
}

/// The entry's residual predicate is compiled away: every clause other
/// than the bucket-filed one is a wildcard, so the bucket lookup itself
/// proves the whole rule matches — no arena fetch, no interpretation.
const F_TRIVIAL: u8 = 1;
/// The rule's action is Deny (pre-folded so trivial arbitration never
/// touches the arena).
const F_DENY: u8 = 2;

/// A bucket entry, sorted `(priority desc, index asc)` — index ascending
/// is id ascending by construction. `flags` carry what compilation
/// proved about the rule so the hot loop can skip interpreting it.
#[derive(Clone, Copy, Debug)]
struct Entry {
    pri: u32,
    idx: u32,
    flags: u8,
}

fn entry_key(e: &Entry) -> (Reverse<u32>, u32) {
    (Reverse(e.pri), e.idx)
}

/// One candidate bucket: its merge-ordered entries plus, when the entire
/// top-priority run is trivial, the pre-computed verdict any single-bucket
/// flow would receive (see [`fast_verdict`]).
#[derive(Clone, Debug, Default)]
struct Bucket {
    entries: Vec<Entry>,
    fast: Option<Decision>,
}

/// Case-folded name → bucket table (keys are stored pre-lowercased),
/// probed with an allocation-free case-insensitive hash lookup. Compiled
/// into a struct-of-arrays layout: each key's first eight folded bytes
/// are packed big-endian into a `u64` ([`fold_prefix`]), and an
/// open-addressed slot table built once at compile time
/// ([`NameTable::build_hash`]) maps a Fibonacci hash of that prefix to
/// the key's index — a probe is one multiply, one or two slot loads, a
/// register compare, and a byte-fold confirm on the survivor. Keys stay
/// sorted so compile-time inserts can binary-search, but the hot path
/// never walks them.
#[derive(Clone, Debug, Default)]
struct NameTable {
    /// First eight folded bytes of each key, sorted; ties broken by
    /// `fulls` in byte order. Parallel to `fulls` and `buckets`.
    prefixes: Vec<u64>,
    fulls: Vec<String>,
    buckets: Vec<Bucket>,
    /// Open-addressed slot table over `prefixes`: `slot -> index + 1`
    /// (0 = empty), capacity a power of two at ≤ 50% load.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the Fibonacci-hash downshift.
    shift: u32,
}

/// 2^64 / φ, the Fibonacci-hashing multiplier: spreads the (highly
/// structured) name prefixes uniformly over the slot table's top bits.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The first eight bytes of `name`, ASCII-folded and packed big-endian
/// (zero-padded). Big-endian packing makes `u64` order agree with
/// lexicographic byte order on the padded prefix, so `(prefix, full)`
/// pairs sort exactly like the folded keys themselves.
fn fold_prefix(name: &str) -> u64 {
    let mut p = [0u8; 8];
    for (i, b) in name.bytes().take(8).enumerate() {
        p[i] = b.to_ascii_lowercase();
    }
    u64::from_be_bytes(p)
}

/// Compares a stored (already lowercase) key against a flow-supplied name,
/// folding the name byte-by-byte on the fly — equivalent to
/// `key.cmp(&name.to_ascii_lowercase())` without materializing the fold.
fn cmp_key_to_name(key: &str, name: &str) -> Ordering {
    let mut kb = key.bytes();
    let mut nb = name.bytes().map(|b| b.to_ascii_lowercase());
    loop {
        match (kb.next(), nb.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(a), Some(b)) => match a.cmp(&b) {
                Ordering::Equal => {}
                other => return other,
            },
        }
    }
}

impl NameTable {
    /// Index of `key` (or where it would insert), ordered by
    /// `(prefix, full-key bytes)` — identical to plain byte order on the
    /// folded keys, since the big-endian prefix *is* the first eight
    /// padded bytes.
    fn position(&self, prefix: u64, key: &str) -> Result<usize, usize> {
        let mut i = self.prefixes.partition_point(|&p| p < prefix);
        while i < self.prefixes.len() && self.prefixes[i] == prefix {
            match self.fulls[i].as_str().cmp(key) {
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
                Ordering::Less => i += 1,
            }
        }
        Err(i)
    }

    fn insert(&mut self, key: String, entry: Entry) {
        let prefix = fold_prefix(&key);
        match self.position(prefix, &key) {
            Ok(i) => self.buckets[i].entries.push(entry),
            Err(i) => {
                self.prefixes.insert(i, prefix);
                self.fulls.insert(i, key);
                self.buckets.insert(
                    i,
                    Bucket {
                        entries: vec![entry],
                        fast: None,
                    },
                );
            }
        }
    }

    /// Builds the slot table; must run after the last `insert` (inserts
    /// shift indices). `compile` calls it while sealing.
    fn build_hash(&mut self) {
        let cap = (self.prefixes.len() * 2).next_power_of_two().max(8);
        self.shift = 64 - cap.trailing_zeros();
        self.slots = vec![0; cap];
        let mask = cap - 1;
        for (i, &prefix) in self.prefixes.iter().enumerate() {
            let mut s = (prefix.wrapping_mul(FIB) >> self.shift) as usize;
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = u32::try_from(i + 1).expect("name table fits u32");
        }
    }

    fn lookup(&self, name: &str) -> Option<&Bucket> {
        if self.prefixes.is_empty() {
            return None;
        }
        debug_assert!(!self.slots.is_empty(), "lookup before build_hash");
        let prefix = fold_prefix(name);
        let mask = self.slots.len() - 1;
        let mut s = (prefix.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let v = self.slots[s];
            if v == 0 {
                return None;
            }
            let i = (v - 1) as usize;
            if self.prefixes[i] == prefix
                && cmp_key_to_name(&self.fulls[i], name) == Ordering::Equal
            {
                return Some(&self.buckets[i]);
            }
            s = (s + 1) & mask;
        }
    }
}

/// IP → bucket table, sorted for binary search.
#[derive(Clone, Debug, Default)]
struct IpTable {
    buckets: Vec<(Ipv4Addr, Bucket)>,
}

impl IpTable {
    fn insert(&mut self, key: Ipv4Addr, entry: Entry) {
        match self.buckets.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.buckets[i].1.entries.push(entry),
            Err(i) => self.buckets.insert(
                i,
                (
                    key,
                    Bucket {
                        entries: vec![entry],
                        fast: None,
                    },
                ),
            ),
        }
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<&Bucket> {
        if self.buckets.is_empty() {
            return None;
        }
        self.buckets
            .binary_search_by(|(k, _)| k.cmp(&ip))
            .ok()
            .map(|i| &self.buckets[i].1)
    }
}

/// K-way merge cursors with inline storage; mirrors the manager's
/// `MergedCandidates` linear-min merge. Duplicate cursors (two flow names
/// case-folding to the same bucket) yield duplicate entries, which the
/// arbitration loops absorb: matching is idempotent and the class-query
/// pin trackers are booleans — so, unlike the manager, no dedup pass (and
/// no key `Vec`) is needed.
struct Cursors<'a> {
    inline: [&'a [Entry]; INLINE_CURSORS],
    len: usize,
    spill: Vec<&'a [Entry]>,
    /// When the flow yielded exactly one candidate bucket, that bucket —
    /// its pre-computed fast verdict (if any) decides without a merge.
    only: Option<&'a Bucket>,
}

impl<'a> Cursors<'a> {
    fn new() -> Self {
        Cursors {
            inline: [&[]; INLINE_CURSORS],
            len: 0,
            spill: Vec::new(),
            only: None,
        }
    }

    fn push_opt(&mut self, bucket: Option<&'a Bucket>) {
        if let Some(b) = bucket {
            self.push_bucket(b);
        }
    }

    fn push_bucket(&mut self, bucket: &'a Bucket) {
        if bucket.entries.is_empty() {
            return;
        }
        self.only = if self.len == 0 && self.spill.is_empty() {
            Some(bucket)
        } else {
            None
        };
        if self.len < INLINE_CURSORS {
            self.inline[self.len] = &bucket.entries;
            self.len += 1;
        } else {
            // Rare: a flow bound to more than INLINE_CURSORS identifiers.
            self.spill.push(&bucket.entries);
        }
    }

    /// Pops the next entry in `(priority desc, index asc)` order.
    fn next_min(&mut self) -> Option<Entry> {
        let mut best: Option<(usize, Entry)> = None;
        for (i, cursor) in self.inline[..self.len]
            .iter()
            .chain(self.spill.iter())
            .enumerate()
        {
            if let Some(&head) = cursor.first() {
                if best.is_none_or(|(_, b)| entry_key(&head) < entry_key(&b)) {
                    best = Some((i, head));
                }
            }
        }
        let (i, entry) = best?;
        let cursor = if i < self.len {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - self.len]
        };
        *cursor = &cursor[1..];
        Some(entry)
    }
}

/// `true` when `rule` admits every non-port identifier of `flow` — i.e.
/// the rule could match some member of the flow's port-wildcard class.
/// Equivalent to the manager's `rule_admits_ignoring_ports` (which clones
/// the flow and substitutes the rule's own lowest admitted port, making
/// the port check a tautology) but allocation-free.
fn admits_ignoring_ports(rule: &PolicyRule, flow: &FlowView) -> bool {
    rule.flow.ethertype.admits(Some(flow.ethertype))
        && rule.flow.ip_proto.admits(flow.ip_proto)
        && endpoint_admits_ignoring_port(&rule.src, &flow.src)
        && endpoint_admits_ignoring_port(&rule.dst, &flow.dst)
}

fn endpoint_admits_ignoring_port(
    pat: &crate::policy::model::EndpointPattern,
    view: &crate::policy::model::EndpointView,
) -> bool {
    pat.username.admits_any(&view.usernames)
        && pat.hostname.admits_any(&view.hostnames)
        && pat.ip.admits(view.ip)
        && pat.mac.admits(view.mac)
        && pat.switch_port.admits(view.switch_port)
        && pat.switch_dpid.admits(view.switch_dpid)
}

/// Which clause of the rule the bucket key already proves. Filing under a
/// name bucket means the lookup only returned this bucket for a flow
/// carrying a case-equal name, so `admits_any` on that clause is true by
/// construction; likewise an IP bucket proves the IP clause.
#[derive(Clone, Copy, PartialEq)]
enum Proven {
    DstUser,
    DstHost,
    DstIp,
    SrcUser,
    SrcHost,
    SrcIp,
    /// Scan bucket: nothing proven; trivial only if the rule is a blanket
    /// match-all.
    Nothing,
}

/// `true` when every clause of `rule` *except* the bucket-proven one is a
/// wildcard — i.e. the bucket lookup alone proves `rule.matches(flow)`
/// for any flow that reached this bucket. Computed once at compile time
/// and folded into [`F_TRIVIAL`].
fn residual_is_trivial(rule: &PolicyRule, proven: Proven) -> bool {
    fn flow_any(f: &FlowProperties) -> bool {
        f.ethertype == Wild::Any && f.ip_proto == Wild::Any
    }
    fn endpoint_residual_any(
        p: &EndpointPattern,
        proven: Proven,
        user: Proven,
        host: Proven,
        ip: Proven,
    ) -> bool {
        (proven == user || p.username == WildName::Any)
            && (proven == host || p.hostname == WildName::Any)
            && (proven == ip || p.ip == Wild::Any)
            && p.port == Wild::Any
            && p.mac == Wild::Any
            && p.switch_port == Wild::Any
            && p.switch_dpid == Wild::Any
    }
    flow_any(&rule.flow)
        && endpoint_residual_any(
            &rule.src,
            proven,
            Proven::SrcUser,
            Proven::SrcHost,
            Proven::SrcIp,
        )
        && endpoint_residual_any(
            &rule.dst,
            proven,
            Proven::DstUser,
            Proven::DstHost,
            Proven::DstIp,
        )
}

/// The verdict any single-bucket flow would get, when it is provably
/// flow-independent: scan the top-priority run in merge order exactly as
/// `classify` would; every entry inspected before the decision must be
/// trivial (so it matches by construction). First trivial Deny wins the
/// group outright; otherwise the whole run must be trivial and the first
/// entry (an Allow) wins. Any non-trivial entry inspected on the way
/// makes the verdict flow-dependent — no fast path for that bucket.
fn fast_verdict(entries: &[Entry], rules: &[CompiledRule]) -> Option<Decision> {
    let top = entries.first()?.pri;
    let mut win: Option<Entry> = None;
    for &e in entries.iter().take_while(|e| e.pri == top) {
        if e.flags & F_TRIVIAL == 0 {
            return None;
        }
        if e.flags & F_DENY != 0 {
            win = Some(e);
            break;
        }
        if win.is_none() {
            win = Some(e);
        }
    }
    let cr = &rules[win?.idx as usize];
    Some(Decision {
        action: cr.action,
        policy: cr.id,
    })
}

/// An immutable, pre-compiled classifier over the current policy rule
/// set. Built on the control plane by [`PolicySnapshot::compile`],
/// published to every data shard as one `Arc`, and read — never written —
/// by the flow-setup hot path.
#[derive(Clone, Debug, Default)]
pub struct PolicySnapshot {
    epoch: u64,
    revision: u64,
    rules: Vec<CompiledRule>,
    scan: Bucket,
    dst_user: NameTable,
    dst_host: NameTable,
    dst_ip: IpTable,
    src_user: NameTable,
    src_host: NameTable,
    src_ip: IpTable,
}

impl PolicySnapshot {
    /// An empty snapshot (epoch 0): everything classifies to the default
    /// deny. This is what a fresh [`crate::Dfi`] serves before the first
    /// policy is installed.
    #[must_use]
    pub fn empty() -> Self {
        PolicySnapshot::default()
    }

    /// Lowers the manager's current rule set into a compiled snapshot.
    /// Runs at control-plane time (policy mutation), so it may allocate
    /// freely; cost is `O(rules log rules)`.
    #[must_use]
    pub fn compile(pm: &PolicyManager, epoch: u64) -> Self {
        let mut snap = PolicySnapshot {
            epoch,
            revision: pm.revision(),
            rules: Vec::with_capacity(pm.len()),
            ..PolicySnapshot::default()
        };
        // `iter` yields id-ascending order, so arena index order == id
        // order and the per-bucket `(priority desc, id asc)` sort below
        // only needs a stable sort on priority.
        for sp in pm.iter() {
            let idx = u32::try_from(snap.rules.len()).expect("policy arena fits u32");
            snap.file_under_bucket(&sp.rule, sp.priority, idx);
            snap.rules.push(CompiledRule {
                id: sp.id,
                action: sp.rule.action,
                pins_port: sp.rule.src.port != Wild::Any || sp.rule.dst.port != Wild::Any,
                rule: sp.rule.clone(),
                priority: sp.priority,
                pdp: sp.pdp.clone(),
            });
        }
        let seal = |b: &mut Bucket, rules: &[CompiledRule]| {
            b.entries.sort_by_key(entry_key);
            b.fast = fast_verdict(&b.entries, rules);
        };
        seal(&mut snap.scan, &snap.rules);
        for table in [
            &mut snap.dst_user,
            &mut snap.dst_host,
            &mut snap.src_user,
            &mut snap.src_host,
        ] {
            table.build_hash();
            for bucket in &mut table.buckets {
                seal(bucket, &snap.rules);
            }
        }
        for table in [&mut snap.dst_ip, &mut snap.src_ip] {
            for (_, bucket) in &mut table.buckets {
                seal(bucket, &snap.rules);
            }
        }
        snap
    }

    /// Files a rule under its most selective pinned endpoint identifier —
    /// the same precedence as the manager's `bucket_key` — computing the
    /// entry's residual-triviality and action flags against that bucket.
    fn file_under_bucket(&mut self, rule: &PolicyRule, pri: u32, idx: u32) {
        let folded = |n: &WildName| match n {
            WildName::Any => None,
            WildName::Is(s) => Some(s.to_ascii_lowercase()),
        };
        let entry = |proven: Proven| Entry {
            pri,
            idx,
            flags: (u8::from(residual_is_trivial(rule, proven)) * F_TRIVIAL)
                | (u8::from(rule.action == PolicyAction::Deny) * F_DENY),
        };
        if let Some(u) = folded(&rule.dst.username) {
            self.dst_user.insert(u, entry(Proven::DstUser));
        } else if let Some(h) = folded(&rule.dst.hostname) {
            self.dst_host.insert(h, entry(Proven::DstHost));
        } else if let Some(ip) = rule.dst.ip.value() {
            self.dst_ip.insert(ip, entry(Proven::DstIp));
        } else if let Some(u) = folded(&rule.src.username) {
            self.src_user.insert(u, entry(Proven::SrcUser));
        } else if let Some(h) = folded(&rule.src.hostname) {
            self.src_host.insert(h, entry(Proven::SrcHost));
        } else if let Some(ip) = rule.src.ip.value() {
            self.src_ip.insert(ip, entry(Proven::SrcIp));
        } else {
            self.scan.entries.push(entry(Proven::Nothing));
        }
    }

    /// The publication epoch stamped by the control plane (monotonic per
    /// [`crate::Dfi`]; decision-cache entries are tagged with it).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The [`PolicyManager::revision`] this snapshot was compiled from.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Compiled rule count.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Iterates the compiled rule set as `(id, rule)` pairs, id-ascending.
    /// This is the raw material for representative-based verifiers: the
    /// reachability engine in `dfi-analyze` derives per-class
    /// representative flows from these patterns and replays them through
    /// [`PolicySnapshot::classify`], so iterating the *same* compiled set
    /// the classifier consults keeps the two views of the policy in
    /// lockstep by construction.
    pub fn rules(&self) -> impl Iterator<Item = (super::PolicyId, &PolicyRule)> {
        self.rules.iter().map(|r| (r.id, &r.rule))
    }

    /// Iterates the compiled rule set as full [`super::StoredPolicy`]
    /// records (id, rule, arbitration priority, authoring PDP),
    /// id-ascending — everything needed to reconstruct the manager state
    /// this snapshot was lowered from.
    pub fn stored_rules(&self) -> impl Iterator<Item = super::StoredPolicy> + '_ {
        self.rules.iter().map(|r| super::StoredPolicy {
            id: r.id,
            rule: r.rule.clone(),
            priority: r.priority,
            pdp: r.pdp.clone(),
        })
    }

    /// Rewrites `pm` so its rule set equals this snapshot's: revokes rules
    /// the snapshot does not carry, restores drifted priorities, and
    /// re-inserts rules the manager has since lost (those receive fresh
    /// ids — ids are never reused). Returns the deduplicated, ascending
    /// set of policy ids whose derived flow rules must be flushed (revoked
    /// ids, arbitration-inverted ids from re-ranking, and the flush sets
    /// the re-inserts imply). Ids present in both sides always carry
    /// identical rule content: an id's pattern is immutable for its
    /// lifetime, only its priority can change.
    pub fn restore_into(&self, pm: &mut PolicyManager) -> Vec<super::PolicyId> {
        let target: std::collections::BTreeMap<super::PolicyId, &CompiledRule> =
            self.rules.iter().map(|r| (r.id, r)).collect();
        let mut flush: Vec<super::PolicyId> = Vec::new();
        let current: Vec<(super::PolicyId, u32)> =
            pm.iter().map(|sp| (sp.id, sp.priority)).collect();
        for (id, priority) in current {
            match target.get(&id) {
                None => {
                    pm.revoke(id);
                    flush.push(id);
                }
                Some(r) if r.priority != priority => {
                    if let Some(inverted) = pm.re_rank(id, r.priority) {
                        flush.extend(inverted);
                    }
                }
                Some(_) => {}
            }
        }
        for r in &self.rules {
            if pm.get(r.id).is_none() {
                let (_, stale) = pm.insert(r.rule.clone(), r.priority, &r.pdp);
                flush.extend(stale);
            }
        }
        flush.sort_unstable();
        flush.dedup();
        flush
    }

    /// The flow's candidate cursors, mirroring the manager's
    /// `candidate_cursors` (minus the dedup — see [`Cursors`]).
    fn cursors<'a>(&'a self, flow: &FlowView) -> Cursors<'a> {
        let mut c = Cursors::new();
        c.push_bucket(&self.scan);
        for u in &flow.dst.usernames {
            c.push_opt(self.dst_user.lookup(u));
        }
        for h in &flow.dst.hostnames {
            c.push_opt(self.dst_host.lookup(h));
        }
        if let Some(ip) = flow.dst.ip {
            c.push_opt(self.dst_ip.lookup(ip));
        }
        for u in &flow.src.usernames {
            c.push_opt(self.src_user.lookup(u));
        }
        for h in &flow.src.hostnames {
            c.push_opt(self.src_host.lookup(h));
        }
        if let Some(ip) = flow.src.ip {
            c.push_opt(self.src_ip.lookup(ip));
        }
        c
    }

    /// Decides a flow against the compiled policy. Bit-identical to
    /// [`PolicyManager::query`] on the rule set this snapshot was compiled
    /// from; allocation-free in the steady state.
    #[must_use]
    pub fn classify(&self, flow: &FlowView) -> Decision {
        let mut cursors = self.cursors(flow);
        // One candidate bucket with a flow-independent top group: the
        // verdict was computed at compile time.
        if let Some(b) = cursors.only {
            if let Some(d) = &b.fast {
                return d.clone();
            }
        }
        let mut group_pri: Option<u32> = None;
        let mut win: Option<Entry> = None;
        while let Some(e) = cursors.next_min() {
            if group_pri != Some(e.pri) {
                if win.is_some() {
                    break;
                }
                group_pri = Some(e.pri);
            }
            // Trivial entries match by construction; only residually
            // constrained rules pay an arena fetch and interpretation.
            if e.flags & F_TRIVIAL == 0 && !self.rules[e.idx as usize].rule.matches(flow) {
                continue;
            }
            if e.flags & F_DENY != 0 {
                win = Some(e);
                break;
            }
            if win.is_none() {
                win = Some(e);
            }
        }
        match win {
            Some(e) => {
                let cr = &self.rules[e.idx as usize];
                Decision {
                    action: cr.action,
                    policy: cr.id,
                }
            }
            None => Decision {
                action: PolicyAction::Deny,
                policy: DEFAULT_DENY_ID,
            },
        }
    }

    /// Decides a flow's whole port-wildcard class when provably uniform.
    /// Bit-identical to [`PolicyManager::query_class`]; allocation-free in
    /// the steady state.
    #[must_use]
    pub fn classify_class(&self, flow: &FlowView) -> Option<Decision> {
        let mut cursors = self.cursors(flow);
        // A flow-independent single-bucket verdict is also port-uniform:
        // trivial entries have wildcard ports on both ends, so the class
        // query sees no pins and lands on the same winner.
        if let Some(b) = cursors.only {
            if let Some(d) = &b.fast {
                return Some(d.clone());
            }
        }
        let mut winner: Option<Entry> = None;
        let mut pin_above = false;
        let mut pin_allow_anywhere = false;
        let mut group_pin_deny = false;
        let mut group_has_pin = false;
        let mut group_pri: Option<u32> = None;
        while let Some(e) = cursors.next_min() {
            if group_pri != Some(e.pri) {
                if winner.is_some() {
                    break;
                }
                pin_above |= group_has_pin;
                group_has_pin = false;
                group_pin_deny = false;
                group_pri = Some(e.pri);
            }
            // A trivial entry admits its whole port class (all its port
            // clauses are wildcards) and never pins — skip the arena.
            if e.flags & F_TRIVIAL == 0 {
                let cr = &self.rules[e.idx as usize];
                if !admits_ignoring_ports(&cr.rule, flow) {
                    continue;
                }
                if cr.pins_port {
                    group_has_pin = true;
                    match cr.action {
                        PolicyAction::Deny => group_pin_deny = true,
                        PolicyAction::Allow => pin_allow_anywhere = true,
                    }
                    continue;
                }
            }
            if e.flags & F_DENY != 0 {
                winner = Some(e);
                break;
            }
            if winner.is_none() {
                winner = Some(e);
            }
        }
        match winner {
            Some(e) => {
                if pin_above || (e.flags & F_DENY == 0 && group_pin_deny) {
                    None
                } else {
                    let w = &self.rules[e.idx as usize];
                    Some(Decision {
                        action: w.action,
                        policy: w.id,
                    })
                }
            }
            None => {
                if pin_allow_anywhere {
                    None
                } else {
                    Some(Decision {
                        action: PolicyAction::Deny,
                        policy: DEFAULT_DENY_ID,
                    })
                }
            }
        }
    }

    /// Classifies a PacketIn burst against this one frozen snapshot in a
    /// single pass, appending one decision per flow to `out`. Reusing
    /// `out` across bursts keeps the batch path allocation-free too;
    /// every flow in the burst is guaranteed a decision from the *same*
    /// policy version (no torn reads mid-burst).
    pub fn classify_batch(&self, flows: &[FlowView], out: &mut Vec<Decision>) {
        out.reserve(flows.len());
        for flow in flows {
            out.push(self.classify(flow));
        }
    }
}

/// A compiled snapshot must be able to cross worker-thread boundaries;
/// this fails to compile the moment anyone threads an `Rc`/`Cell` into it.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PolicySnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::model::{EndpointPattern, EndpointView};

    fn flow(src_host: &str, dst_host: &str) -> FlowView {
        FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            src: EndpointView {
                hostnames: vec![src_host.to_string()],
                ..EndpointView::default()
            },
            dst: EndpointView {
                hostnames: vec![dst_host.to_string()],
                ..EndpointView::default()
            },
        }
    }

    #[test]
    fn empty_snapshot_default_denies() {
        let snap = PolicySnapshot::empty();
        let d = snap.classify(&flow("a", "b"));
        assert_eq!(d.policy, DEFAULT_DENY_ID);
        assert_eq!(d.action, PolicyAction::Deny);
        assert_eq!(snap.rule_count(), 0);
        assert_eq!(snap.epoch(), 0);
    }

    #[test]
    fn classify_matches_query_on_a_small_mixed_set() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host("srv")),
            10,
            "t",
        );
        pm.insert(
            PolicyRule::deny(EndpointPattern::host("evil"), EndpointPattern::any()),
            20,
            "t",
        );
        pm.insert(PolicyRule::allow_all(), 1, "t");
        let snap = PolicySnapshot::compile(&pm, 1);
        for f in [
            flow("alice", "srv"),
            flow("evil", "srv"),
            flow("x", "y"),
            flow("EVIL", "SRV"),
        ] {
            assert_eq!(snap.classify(&f), pm.query_linear(&f), "flow {f:?}");
        }
    }

    #[test]
    fn name_lookup_is_case_insensitive_and_allocation_free_of_keys() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host("SrV")),
            5,
            "t",
        );
        let snap = PolicySnapshot::compile(&pm, 1);
        assert_eq!(snap.classify(&flow("h", "sRv")).action, PolicyAction::Deny);
        assert_ne!(snap.classify(&flow("h", "sRv")).policy, DEFAULT_DENY_ID);
        assert_eq!(snap.classify(&flow("h", "other")).policy, DEFAULT_DENY_ID);
    }

    #[test]
    fn classify_class_detects_port_splits() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host("srv")),
            5,
            "t",
        );
        let snap = PolicySnapshot::compile(&pm, 1);
        let f = flow("h", "srv");
        assert_eq!(snap.classify_class(&f), pm.query_class_linear(&f));
        assert!(snap.classify_class(&f).is_some());

        // A port-pinning Deny in the same group splits the Allow class.
        pm.insert(
            PolicyRule::deny(
                EndpointPattern::any(),
                EndpointPattern::host_port("srv", 445),
            ),
            5,
            "t",
        );
        let snap = PolicySnapshot::compile(&pm, 2);
        assert_eq!(snap.classify_class(&f), pm.query_class_linear(&f));
        assert!(snap.classify_class(&f).is_none());
    }

    #[test]
    fn batch_classification_matches_singles_and_reuses_the_out_buffer() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host("srv")),
            5,
            "t",
        );
        let snap = PolicySnapshot::compile(&pm, 1);
        let flows = vec![flow("a", "srv"), flow("b", "x"), flow("c", "srv")];
        let mut out = Vec::new();
        snap.classify_batch(&flows, &mut out);
        assert_eq!(out.len(), 3);
        for (f, d) in flows.iter().zip(&out) {
            assert_eq!(*d, snap.classify(f));
        }
        out.clear();
        snap.classify_batch(&flows, &mut out);
        assert_eq!(out.len(), 3);
    }

    /// The residual-precompilation regimes: a uniform-priority dst-host
    /// bucket of trivial entries (pre-computed verdict), the same bucket
    /// with a trivial Deny (verdict flips at compile time), and a bucket
    /// mixing trivial with residually constrained (src-pinned) entries,
    /// where the fast path must stand down and interpretation decides.
    #[test]
    fn precompiled_fast_verdicts_match_the_interpreted_paths() {
        let mut pm = PolicyManager::new();
        for _ in 0..6 {
            pm.insert(
                PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host("srv")),
                7,
                "t",
            );
        }
        let snap = PolicySnapshot::compile(&pm, 1);
        let f = flow("anyone", "srv");
        assert_eq!(snap.classify(&f), pm.query_linear(&f));
        assert_eq!(snap.classify_class(&f), pm.query_class_linear(&f));

        // A same-priority trivial Deny wins the whole bucket at compile
        // time — every flow reaching it, by any name casing, is denied.
        let (deny, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host("SRV")),
            7,
            "t",
        );
        let snap = PolicySnapshot::compile(&pm, 2);
        for f in [flow("anyone", "srv"), flow("x", "SrV")] {
            assert_eq!(snap.classify(&f), pm.query_linear(&f), "flow {f:?}");
            assert_eq!(snap.classify(&f).policy, deny);
            assert_eq!(snap.classify_class(&f), pm.query_class_linear(&f));
        }

        // A higher-priority src-pinned rule makes the top run residually
        // constrained: the verdict depends on the flow again, and the
        // interpreted merge must take over (both src cases).
        pm.insert(
            PolicyRule::allow(EndpointPattern::host("ops"), EndpointPattern::host("srv")),
            9,
            "t",
        );
        let snap = PolicySnapshot::compile(&pm, 3);
        for f in [flow("ops", "srv"), flow("anyone", "srv")] {
            assert_eq!(snap.classify(&f), pm.query_linear(&f), "flow {f:?}");
            assert_eq!(snap.classify_class(&f), pm.query_class_linear(&f));
        }
    }

    #[test]
    fn spill_cursors_beyond_inline_capacity_stay_correct() {
        let mut pm = PolicyManager::new();
        // One rule per hostname so every identifier contributes a cursor.
        for i in 0..24 {
            pm.insert(
                PolicyRule::allow(
                    EndpointPattern::any(),
                    EndpointPattern::host(&format!("h{i}")),
                ),
                3,
                "t",
            );
        }
        let snap = PolicySnapshot::compile(&pm, 1);
        let mut f = flow("src", "h0");
        f.dst.hostnames = (0..24).map(|i| format!("h{i}")).collect();
        assert_eq!(snap.classify(&f), pm.query_linear(&f));
        assert_eq!(snap.classify_class(&f), pm.query_class_linear(&f));
    }
}
