//! Imitation-learning policies for dynamic resource management.
//!
//! Section IV-A of the DAC 2020 paper builds its resource manager in two
//! stages:
//!
//! 1. an **offline IL policy** trained from Oracle demonstrations collected at
//!    design time ([`offline::OfflineIlPolicy`]), and
//! 2. a **model-guided online IL policy** ([`online::OnlineIlPolicy`]) that
//!    starts from the offline policy and keeps adapting at run time: online
//!    power and performance models evaluate candidate configurations in a
//!    local neighbourhood of the current one, the best candidate becomes the
//!    runtime approximation of the Oracle, disagreements are aggregated in a
//!    buffer, and the policy network is periodically re-trained by
//!    back-propagation.
//!
//! Both policies implement [`soclearn_soc_sim::DvfsPolicy`], so they plug into
//! the same evaluation harness as the Oracle, the governors and the RL
//! baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod offline;
pub mod online;

pub use features::{candidate_features, policy_features, CandidateFeatureBasis};
pub use offline::{OfflineIlPolicy, PolicyModelKind};
pub use online::{
    pretrain_candidate_models, CandidateModel, CandidateStats, OnlineIlConfig, OnlineIlPolicy,
    OnlineIlStats,
};
