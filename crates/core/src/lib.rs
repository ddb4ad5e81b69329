//! Dynamic Flow Isolation (DFI): controller-oblivious, event-driven,
//! fine-grained network access control for OpenFlow 1.3 SDNs.
//!
//! This crate is the paper's primary contribution — a faithful
//! reimplementation of the DSN 2019 system *"Controller-Oblivious Dynamic
//! Access Control in Software-Defined Networks"*:
//!
//! * [`policy`] — rules over high-level identifiers (usernames, hostnames,
//!   …) with wildcards; the Policy Manager with insert-time conflict
//!   detection and revocation.
//! * [`erm`] — the Entity Resolution Manager: the four identifier-binding
//!   classes, fed only by authoritative sources, resolved *upward* at
//!   flow-decision time; anti-spoofing consistency checks.
//! * [`pdp`] — Policy Decision Points: baseline, S-RBAC, AT-RBAC
//!   (authentication-triggered, the policy DFI uniquely enables), and
//!   quarantine.
//! * [`rewrite`] — the table-id shifting that hides Table 0 from the
//!   controller.
//! * [`DataShard`] — the proxy that interposes between switches and the
//!   controller, and the Policy Compilation Point that turns packet-ins
//!   into exact-match, cookie-tagged Table-0 rules, for the switches one
//!   shard owns.
//! * [`front`] — the [`ControlFront`]: the one control plane (Policy
//!   Manager, certify → compile → publish, deferral, rollback, binding
//!   routing) every mode runs over its shards.
//! * [`Dfi`] ([`shard`]) — the assembled proxy: one front over N direct
//!   shards on one simulation. [`Dfi::new`] is the paper's single proxy;
//!   [`Dfi::sharded`] partitions a fleet's switches by dpid.
//! * [`par`] — [`ParallelShardedDfi`]: the same front over one shard per
//!   OS thread, publishing behind an epoch barrier.
//! * [`events`] — sensor events and message-bus wiring.
//!
//! # Quick start
//!
//! ```
//! use dfi_core::{Dfi, DfiConfig};
//! use dfi_core::policy::{PolicyRule, EndpointPattern};
//! use dfi_core::pdp::priority;
//! use dfi_simnet::Sim;
//!
//! let mut sim = Sim::new(1);
//! let dfi = Dfi::with_defaults();
//! // "Any machine Alice is using may talk to any machine Bob is using."
//! dfi.insert_policy(
//!     &mut sim,
//!     PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob")),
//!     priority::AT_RBAC,
//!     "example-pdp",
//! );
//! assert_eq!(dfi.with_pm(|pm| pm.len()), 1);
//! ```

#![warn(missing_docs)]

mod dfi;
pub mod erm;
pub mod events;
pub mod front;
pub mod par;
pub mod pdp;
pub mod policy;
pub mod rewrite;
pub mod shard;

pub use dfi::{
    binding_op_of_event, BindingBatch, BindingOp, BufPool, DataShard, DfiConfig, DfiMetrics,
};
pub use front::{
    ControlFront, FrontHandle, GateVerdict, ShardFanoutMetrics, ShardLink, SnapshotGate,
};
pub use par::{
    CookieSets, DrainReport, FleetReport, HostDeliveries, ObserveFn, Outbox, ParallelShardedDfi,
    RelayFrame, WorkerWorld, Workers, WorldBuilder,
};
pub use shard::{Dfi, DirectShards};
// Exported for the criterion bench harness; not part of the stable API.
#[doc(hidden)]
pub use dfi::{CachedDecision, DecisionCache, FlowKey};
