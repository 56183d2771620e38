//! The five workloads. Each isolates the layers a ROADMAP item is about to
//! touch: one workload does most of its work there and another bypasses it.

pub mod nvme;
pub mod query;
pub mod ransom;
pub mod replay;
