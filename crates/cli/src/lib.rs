//! # gs-cli — the `gs` command-line tool
//!
//! What a downstream user actually runs:
//!
//! ```text
//! gs table1 > grid.platform            # start from the paper's testbed
//! gs plan grid.platform --items 817101 # counts/displs + predicted schedule
//! gs plan grid.platform --items 817101 --emit-c   # C arrays for MPI_Scatterv
//! gs simulate grid.platform --items 817101        # figure-style rendering
//! gs transform app.c grid.platform --items 817101 # rewrite MPI_Scatter calls
//! ```
//!
//! The platform file is a plain-text description (one processor per line)
//! parsed by [`gs_scatter::platform_file`]; no configuration framework, no
//! serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod serve_cmd;

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<gs_scatter::error::PlanError> for CliError {
    fn from(e: gs_scatter::error::PlanError) -> Self {
        CliError(format!("planning failed: {e}"))
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

impl From<gs_scatter::platform_file::PlatformFileError> for CliError {
    fn from(e: gs_scatter::platform_file::PlatformFileError) -> Self {
        CliError(e.0)
    }
}
