//! The DFI policy layer: the rule model, the Policy Manager, and role
//! definitions.

mod manager;
mod model;
mod roles;
mod snapshot;

pub use manager::{
    CommitOutcome, Decision, PolicyDelta, PolicyId, PolicyIndexStats, PolicyManager,
    PolicyMutation, StoredPolicy, DEFAULT_DENY_ID,
};
pub use model::{
    EndpointPattern, EndpointView, FlowProperties, FlowView, PolicyAction, PolicyRule, Wild,
    WildName,
};
pub use roles::RbacRoles;
pub use snapshot::{PolicySnapshot, INLINE_CURSORS};
