//! What every workload provides to the benchmark's main loop.

use crate::trace::Record;
use minedig::primitives::retry::RetryPolicy;

/// Input size: `Full` is what the benchmark measures; `Small` is a
/// seconds-long version the benchmark's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// What one repetition of a campaign produced, reduced to what the
/// main loop checks and counts.
#[derive(Clone, Debug, PartialEq)]
pub struct RepOutcome {
    /// Digest of the campaign's complete result.
    pub digest: u64,
    /// Operations attempted (polls, domain fetches, ID probes,
    /// checkpoint saves).
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// Invariants the library's own accounting must satisfy, by name.
    pub invariants: Vec<(&'static str, bool)>,
    /// Work counts that must repeat exactly across repetitions and
    /// between the traced and untraced runs.
    pub counts: Vec<(&'static str, u64)>,
}

/// A workload's per-layer figures from one traced repetition: the span
/// record plus figures the workload reads off its own results.
pub struct Traced {
    pub outcome: RepOutcome,
    pub record: Record,
    pub extra: Vec<(&'static str, f64)>,
}

/// One of the benchmark's campaigns.
pub trait Workload {
    /// The generated input a repetition runs on.
    type Input;

    /// Generates the input from the seed (the timed set-up).
    fn setup(&self, seed: u64) -> Self::Input;

    /// One untraced repetition through the library's public entry
    /// point. Any figure it returns beside the outcome is reported by
    /// the traced run.
    fn run(&self, input: &Self::Input) -> (RepOutcome, Vec<(&'static str, f64)>);

    /// One traced repetition: the same campaign recomposed from the
    /// public calls of each layer, each wrapped in a span.
    fn run_traced(&self, input: &Self::Input) -> Traced;

    /// Digest of the library's sequential reference result for the
    /// same input, which every repetition must match.
    fn reference(&self, input: &Self::Input) -> u64;

    /// Result digest recorded for [`DEFAULT_SEED`] at `scale`.
    fn recorded_digest(&self, scale: Scale) -> u64;
}

/// The seed whose result digest the benchmark records (the paper
/// binaries' default seed).
pub const DEFAULT_SEED: u64 = 2018;

/// The retry policy every campaign runs with, written out so a change
/// to the library's default cannot change what is measured.
pub fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay_ms: 50,
        max_delay_ms: 2_000,
        jitter: 0.2,
        deadline_ms: None,
    }
}

/// FNV-1a over a canonical rendering of a result: the fields the paper
/// reports, not the library's in-memory layout, so internal changes
/// that keep results leave the digest alone.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
