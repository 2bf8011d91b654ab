//! Error type of the exploration service.

use std::fmt;

use crate::registry::{JobId, LeaseId};

/// Error raised by the exploration service and its protocol frontends.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The referenced job was never submitted.
    UnknownJob(JobId),
    /// The referenced job finished and has since been retired: more than
    /// 1,024 jobs finished after it, so its status was evicted. Its answer is gone for good; asking again never blocks.
    Retired(JobId),
    /// The lease is no longer valid: it expired and was re-queued, its job was
    /// cancelled, or it was already completed. Work reported under a stale
    /// lease is discarded — this is what makes re-leased shards count once.
    StaleLease(LeaseId),
    /// The job specification is unusable (zero shards, empty space rejected by
    /// policy, bad evaluator parameters, ...).
    InvalidSpec(String),
    /// A wire-protocol request could not be interpreted.
    Protocol(String),
    /// The durable store refused a transition (sink append/compact failure,
    /// malformed record during recovery). The transition did not happen.
    Store(String),
    /// Error from the variants layer (system validation, flattening).
    Variants(spi_variants::VariantError),
    /// Error from the synthesis layer (problem derivation, optimization).
    Synth(spi_synth::SynthError),
    /// Error from the workloads layer (scenario construction).
    Workload(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::UnknownJob(job) => write!(f, "unknown job {job}"),
            ExploreError::Retired(job) => write!(f, "job {} was retired", job.raw()),
            ExploreError::StaleLease(lease) => write!(f, "stale lease {lease}"),
            ExploreError::InvalidSpec(message) => write!(f, "invalid job spec: {message}"),
            ExploreError::Protocol(message) => write!(f, "protocol error: {message}"),
            ExploreError::Store(message) => write!(f, "store error: {message}"),
            ExploreError::Variants(e) => write!(f, "variants error: {e}"),
            ExploreError::Synth(e) => write!(f, "synthesis error: {e}"),
            ExploreError::Workload(message) => write!(f, "workload error: {message}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Variants(e) => Some(e),
            ExploreError::Synth(e) => Some(e),
            _ => None,
        }
    }
}

impl From<spi_variants::VariantError> for ExploreError {
    fn from(e: spi_variants::VariantError) -> Self {
        ExploreError::Variants(e)
    }
}

impl From<spi_synth::SynthError> for ExploreError {
    fn from(e: spi_synth::SynthError) -> Self {
        ExploreError::Synth(e)
    }
}

impl From<spi_workloads::WorkloadError> for ExploreError {
    fn from(e: spi_workloads::WorkloadError) -> Self {
        ExploreError::Workload(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let unknown = ExploreError::UnknownJob(JobId::from_raw(7));
        assert!(unknown.to_string().contains("job#7"));
        let retired = ExploreError::Retired(JobId::from_raw(5));
        assert_eq!(retired.to_string(), "job 5 was retired");
        let stale = ExploreError::StaleLease(LeaseId::from_raw(3));
        assert!(stale.to_string().contains("lease#3"));
        let synth: ExploreError = spi_synth::SynthError::NoApplications.into();
        assert!(std::error::Error::source(&synth).is_some());
        let variants: ExploreError = spi_variants::VariantError::Validation("x".into()).into();
        assert!(variants.to_string().contains("variants error"));
    }
}
