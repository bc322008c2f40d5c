//! # qt-dist — distributed substrate and communication schemes
//!
//! A thread-backed MPI-like world with exact byte accounting, the paper's
//! two data distributions (OMEN's momentum×energy and DaCe's energy×atom
//! tiling), the OMEN baseline and the communication-avoiding SSE exchange
//! executed for real on N ranks (with measured volumes that follow the
//! closed forms of §4.1), and the supervised distributed GF+SSE iteration.

pub mod comm;
pub mod decomp;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod pool;
pub mod runner;
pub mod schemes;
pub mod volume;

#[cfg(feature = "fault-inject")]
pub use comm::run_world_with_faults;
pub use comm::{run_elastic_world, run_world, CommError, LivenessConfig, ThreadComm};
pub use decomp::ElasticTiling;
#[cfg(feature = "fault-inject")]
pub use fault::{FaultAction, FaultPlan, RetryPolicy};
pub use pool::{RankLease, RankPool};
pub use runner::{
    distributed_iteration_elastic, distributed_iteration_tiled, maybe_rebalance,
    ElasticIterationResult, ElasticPolicy,
};
pub use schemes::{elastic_sse_exchange, elastic_sse_exchange_with, BalanceStats, ElasticExchange};
