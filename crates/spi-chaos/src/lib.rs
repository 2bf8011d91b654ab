//! Deterministic simulation & fault-injection harness for the exploration
//! service (FoundationDB-style).
//!
//! One simulated run drives a real [`spi_explore::JobRegistry`] from a
//! single thread under a seeded [`FaultPlan`]: workers crash before and
//! after staging, simulated time jumps past lease deadlines, duplicate
//! hedged runners race, the durability sink fails and tears appends, and
//! `kill -9` drops the whole registry mid-schedule to be recovered from a
//! (possibly tail-chopped) store. After every kill and at the end, five
//! property oracles must hold:
//!
//! 1. exactly-once shard census,
//! 2. bit-identical optimum versus the serial reference,
//! 3. clean decision-trace replay ([`spi_store::trace::TraceReplay`]),
//! 4. valid waitgraph snapshot,
//! 5. conservation laws over the traced lease fates and queue traffic.
//!
//! A failing plan is shrunk by greedy delta debugging
//! ([`shrink::shrink`]) to a minimal reproducer and printed as **one
//! replayable JSON line** (see [`shrink::Reproducer`]); the `spi-chaos`
//! binary replays such lines and runs seed corpora in CI.
//!
//! ```text
//! spi-chaos corpus --seeds 256        # run seeds 0..256, shrink any failure
//! spi-chaos replay '{"chaos":1,…}'    # re-run a printed reproducer
//! spi-chaos check-census < out.ndjson # audit wire status lines (kill -9 smoke test)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod oracle;
pub mod shrink;
pub mod sim;
pub mod sink;

pub use fault::{FaultEvent, FaultPlan};
pub use shrink::Reproducer;
pub use sim::{run_plan, run_seed, SimConfig, SimFailure, SimStats};
pub use sink::{AppendFault, FaultScript, FaultSink};
/// The workspace's shared deterministic LCG, re-exported so chaos tests and
/// downstream property suites draw from one generator.
pub use spi_testutil::Lcg;
