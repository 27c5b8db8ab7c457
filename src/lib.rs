#![deny(missing_docs)]

//! Facade: re-exports all qcat crates. See crate docs in each member.
pub use qcat_core as core;
pub use qcat_data as data;
pub use qcat_datagen as datagen;
pub use qcat_exec as exec;
pub use qcat_explore as explore;
pub use qcat_fault as fault;
pub use qcat_obs as obs;
pub use qcat_pool as pool;
pub use qcat_serve as serve;
pub use qcat_sql as sql;
pub use qcat_study as study;
pub use qcat_workload as workload;
