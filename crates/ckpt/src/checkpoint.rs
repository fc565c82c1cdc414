//! The versioned, serde-round-trip-exact checkpoint model.
//!
//! A [`Checkpoint`] captures everything a training run needs to resume
//! bit-identically: per-stage weights, optimizer state, the seeded RNG
//! stream position, the iteration index, and the frozen [`Schedule`] the
//! run was produced under. Three guards protect a restore:
//!
//! 1. **Schema version** — the on-disk envelope names its format version;
//!    an unknown version is a typed [`CkptError::SchemaVersion`], not a
//!    parse explosion.
//! 2. **Config fingerprint** — [`config_fingerprint`] hashes the schedule,
//!    replication width, learning rate bits, loss kind, recompute mode and
//!    stage shapes. Restoring under a different configuration is refused
//!    with [`CkptError::Fingerprint`] (resume-equivalence only holds when
//!    the program is the same program).
//! 3. **CRC-32 integrity** — the envelope carries a CRC over the canonical
//!    payload rendering; a flipped bit surfaces as [`CkptError::Integrity`].
//!
//! Exactness: every `f32` in the payload widens losslessly to `f64`, the
//! JSON writer emits the shortest round-trip rendering, and parsing
//! narrows back to the original bits — so "the weights in the file" and
//! "the weights in memory" are the same bits, which is what makes
//! resume-equals-uninterrupted provable rather than approximate.

use hanayo_core::action::Schedule;
use hanayo_model::Recompute;
use hanayo_tensor::Stage;
use hanayo_trace::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Version of the on-disk checkpoint format. Bump when the payload shape
/// changes; loaders refuse anything they do not understand.
pub const SCHEMA_VERSION: u32 = 1;

/// Position of the pinned `hanayo_tensor::rng::seeded` stream a run draws
/// its synthetic data from: `draws` scalar draws have been consumed from
/// stream `seed`. Resume reconstructs the stream with
/// `hanayo_tensor::rng::seeded_at(seed, draws)` and continues generating
/// the *same* data the uninterrupted run would have seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngCursor {
    /// Seed of the data stream.
    pub seed: u64,
    /// Scalar draws consumed so far.
    pub draws: u64,
}

/// Optimizer state at the checkpoint boundary.
///
/// The threaded runtime trains with plain SGD, stateless beyond the
/// learning rate. A document naming any other optimizer fails to parse
/// ([`CkptError::Parse`]) instead of resuming under a different update
/// rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptimizerState {
    /// Stochastic gradient descent: the whole state is the learning rate.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
}

/// A complete, resumable snapshot of a training run at a flush boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// [`config_fingerprint`] of the configuration that produced this
    /// checkpoint; restores under a different configuration are refused.
    pub fingerprint: u64,
    /// Completed iterations — the checkpoint sits on the boundary between
    /// iteration `iteration - 1` and `iteration`.
    pub iteration: u32,
    /// Data-parallel replica count of the run (1 = single pipeline).
    pub world: u32,
    /// The frozen schedule the run executes (action lists + stage map).
    pub schedule: Schedule,
    /// Global stage modules at the boundary (replicas are bit-identical,
    /// so one copy suffices even for data-parallel runs).
    pub stages: Vec<Stage>,
    /// Optimizer state at the boundary.
    pub optimizer: OptimizerState,
    /// Mean loss of every completed iteration.
    pub losses: Vec<f32>,
    /// Per-device peak of the live activation-stash counter over the
    /// completed iterations (device order; `world · P` entries for
    /// data-parallel runs).
    pub peak_stash_bytes: Vec<u64>,
    /// Data-stream position for runs that draw synthetic data from the
    /// pinned seeded stream (`None` when the caller supplies data).
    pub rng: Option<RngCursor>,
    /// The cluster-level `ParallelPlan` the run was tuned under, as its
    /// canonical JSON rendering (opaque here — the plan type lives above
    /// this crate in `hanayo-sim`).
    pub plan_json: Option<String>,
    /// Execution trace of the completed iterations, when the run traced.
    /// Resumed runs append their spans shifted past this trace's makespan,
    /// so the merged timeline stays on one clock.
    pub trace: Option<Trace>,
}

/// A restore that cannot (or must not) proceed, with enough context to say
/// why.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// The file's schema version is not one this build understands.
    SchemaVersion {
        /// Version found in the envelope.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The checkpoint was produced under a different configuration.
    Fingerprint {
        /// Fingerprint of the configuration attempting the restore.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The payload does not match its CRC — the file was corrupted.
    Integrity {
        /// CRC stored in the envelope.
        stored: u32,
        /// CRC computed over the parsed payload's canonical rendering.
        computed: u32,
    },
    /// The file is not parseable as a checkpoint at all.
    Parse(String),
    /// Rendering the checkpoint as JSON failed (unreachable for this
    /// schema; surfaced as a typed error rather than a panic).
    Serialize(String),
    /// Reading or writing the file failed.
    Io(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::SchemaVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint schema v{found} not supported (this build reads v{supported})"
                )
            }
            CkptError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint was produced under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CkptError::Integrity { stored, computed } => write!(
                f,
                "checkpoint payload corrupt: CRC32 {computed:#010x} != stored {stored:#010x}"
            ),
            CkptError::Parse(msg) => write!(f, "checkpoint unparseable: {msg}"),
            CkptError::Serialize(msg) => write!(f, "checkpoint unserializable: {msg}"),
            CkptError::Io(msg) => write!(f, "checkpoint I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// The on-disk wrapper: schema version + CRC around the payload.
#[derive(Serialize, Deserialize)]
struct Envelope {
    schema_version: u32,
    crc32: u32,
    checkpoint: Checkpoint,
}

/// Version/CRC probe parsed *before* the payload, so an unknown schema is
/// reported as such instead of as a missing-field parse error (extra
/// fields are ignored by the value-tree deserializer).
#[derive(Deserialize)]
struct Header {
    schema_version: u32,
}

impl Checkpoint {
    /// Canonical (compact) payload rendering — the bytes the CRC covers.
    /// Deterministic because every container this type uses renders in a
    /// fixed order. Serialization of this schema cannot fail in practice;
    /// the `Result` keeps the write path panic-free regardless.
    pub(crate) fn payload_json(&self) -> Result<String, CkptError> {
        serde_json::to_string(self).map_err(|e| CkptError::Serialize(e.to_string()))
    }

    /// Render the full envelope (pretty-printed; the CRC is computed over
    /// the canonical compact payload, so formatting never affects it).
    pub fn to_json(&self) -> Result<String, CkptError> {
        let envelope = Envelope {
            schema_version: SCHEMA_VERSION,
            crc32: crc32(self.payload_json()?.as_bytes()),
            checkpoint: self.clone(),
        };
        serde_json::to_string_pretty(&envelope).map_err(|e| CkptError::Serialize(e.to_string()))
    }

    /// Parse an envelope, guarding schema version and payload integrity.
    pub fn from_json(text: &str) -> Result<Checkpoint, CkptError> {
        let header: Header =
            serde_json::from_str(text).map_err(|e| CkptError::Parse(e.to_string()))?;
        if header.schema_version != SCHEMA_VERSION {
            return Err(CkptError::SchemaVersion {
                found: header.schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        let envelope: Envelope =
            serde_json::from_str(text).map_err(|e| CkptError::Parse(e.to_string()))?;
        // Round-tripping is exact, so re-rendering the parsed payload
        // reproduces the canonical bytes the writer hashed; any value the
        // file lost or altered changes this CRC.
        let metrics_on = hanayo_metrics::enabled();
        let t0 = if metrics_on { hanayo_metrics::monotonic_nanos() } else { 0 };
        let computed = crc32(envelope.checkpoint.payload_json()?.as_bytes());
        if metrics_on {
            hanayo_metrics::observe(
                "hanayo_ckpt_crc_verify_ns",
                &[],
                hanayo_metrics::NANOS_BUCKETS,
                hanayo_metrics::monotonic_nanos().saturating_sub(t0),
            );
        }
        if computed != envelope.crc32 {
            if metrics_on {
                hanayo_metrics::counter_add("hanayo_ckpt_integrity_failures_total", &[], 1);
            }
            return Err(CkptError::Integrity { stored: envelope.crc32, computed });
        }
        Ok(envelope.checkpoint)
    }

    /// Write the envelope to a file.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        let json = self.to_json()?;
        std::fs::write(path, &json).map_err(|e| CkptError::Io(format!("{path:?}: {e}")))?;
        if hanayo_metrics::enabled() {
            hanayo_metrics::counter_add("hanayo_ckpt_writes_total", &[], 1);
            hanayo_metrics::counter_add("hanayo_ckpt_bytes_written_total", &[], json.len() as u64);
        }
        Ok(())
    }

    /// Read and fully validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, CkptError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| CkptError::Io(format!("{path:?}: {e}")))?;
        let ckpt = Checkpoint::from_json(&text)?;
        if hanayo_metrics::enabled() {
            hanayo_metrics::counter_add("hanayo_ckpt_resume_total", &[], 1);
        }
        Ok(ckpt)
    }

    /// Refuse a restore under a configuration whose fingerprint differs
    /// from the one this checkpoint was produced under.
    pub fn guard(&self, expected_fingerprint: u64) -> Result<(), CkptError> {
        if self.fingerprint != expected_fingerprint {
            return Err(CkptError::Fingerprint {
                expected: expected_fingerprint,
                found: self.fingerprint,
            });
        }
        Ok(())
    }

    /// Bytes of checkpointable model state (the f32 parameters; SGD keeps
    /// no per-parameter state) — the payload a recovery model charges for
    /// draining to durable storage.
    pub fn state_bytes(&self) -> u64 {
        let params: usize = self.stages.iter().map(Stage::param_count).sum();
        (params * 4) as u64
    }
}

/// CRC-32 (IEEE 802.3, reflected) over a byte string. Bitwise — no table —
/// which is plenty for checkpoint-sized payloads.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit over length-delimited parts (so part boundaries cannot
/// alias: `["ab","c"]` and `["a","bc"]` hash differently).
pub fn fingerprint_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

/// Fingerprint of a training configuration: the frozen schedule (canonical
/// JSON), replication width, learning-rate bits, loss kind label,
/// recompute mode and per-stage parameter shapes. Two configurations with
/// equal fingerprints run the same program on the same shapes — the
/// precondition for bitwise resume-equivalence.
pub fn config_fingerprint(
    schedule: &Schedule,
    world: u32,
    lr: f32,
    loss_label: &str,
    recompute: Recompute,
    stages: &[Stage],
) -> u64 {
    // A schedule is a plain tree of structs and vecs, so serialization
    // cannot fail; if it ever did, folding the (deterministic) error text
    // into the hash keeps the guard sound — writer and reader derive the
    // same token either way — instead of panicking mid-training.
    let schedule_json =
        serde_json::to_string(schedule).unwrap_or_else(|e| format!("unserializable schedule: {e}"));
    let shape: Vec<u8> = stages
        .iter()
        .flat_map(|s| {
            (s.param_count() as u64)
                .to_le_bytes()
                .into_iter()
                .chain((s.blocks.len() as u64).to_le_bytes())
        })
        .collect();
    fingerprint_parts(&[
        schedule_json.as_bytes(),
        &world.to_le_bytes(),
        &lr.to_bits().to_le_bytes(),
        loss_label.as_bytes(),
        recompute.label().as_bytes(),
        &shape,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_core::config::{PipelineConfig, Scheme};
    use hanayo_core::schedule::build_schedule;
    use hanayo_tensor::rng::seeded;

    fn sample() -> Checkpoint {
        let cfg = PipelineConfig::new(2, 2, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let stages: Vec<Stage> = (0..2).map(|i| Stage::mlp(&mut seeded(40 + i), 6, 1)).collect();
        let fingerprint = config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &stages);
        Checkpoint {
            fingerprint,
            iteration: 3,
            world: 1,
            schedule,
            stages,
            optimizer: OptimizerState::Sgd { lr: 0.05 },
            losses: vec![0.75, 0.5, 0.1 + 0.2],
            peak_stash_bytes: vec![1234, 5678],
            rng: Some(RngCursor { seed: 7, draws: 96 }),
            plan_json: None,
            trace: None,
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let c = sample();
        let back = Checkpoint::from_json(&c.to_json().unwrap()).unwrap();
        assert_eq!(back, c);
        let bits = |c: &Checkpoint| {
            c.stages.iter().flat_map(|s| s.flat_params()).map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&c), "weights drifted through the file format");
        assert_eq!(
            back.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            c.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn save_load_roundtrip() {
        let c = sample();
        let path = std::env::temp_dir().join("hanayo_ckpt_test.json");
        c.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_schema_version_is_a_typed_error() {
        let json = sample().to_json().unwrap().replacen(
            "\"schema_version\": 1",
            "\"schema_version\": 99",
            1,
        );
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert_eq!(err, CkptError::SchemaVersion { found: 99, supported: SCHEMA_VERSION });
        assert!(err.to_string().contains("v99"));
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let c = sample();
        let json = c.to_json().unwrap();
        // Flip one stored loss value; the envelope still parses but the
        // payload no longer matches its CRC.
        let needle = "0.75";
        assert!(json.contains(needle), "test needle missing from rendering");
        let tampered = json.replacen(needle, "0.76", 1);
        match Checkpoint::from_json(&tampered) {
            Err(CkptError::Integrity { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected Integrity error, got {other:?}"),
        }
    }

    #[test]
    fn whitespace_changes_do_not_trip_the_crc() {
        // The CRC covers the canonical payload, not the file formatting.
        let c = sample();
        let json = c.to_json().unwrap().replace('\n', " ");
        assert_eq!(Checkpoint::from_json(&json).unwrap(), c);
    }

    #[test]
    fn fingerprint_guard_names_both_sides() {
        let c = sample();
        c.guard(c.fingerprint).unwrap();
        let err = c.guard(42).unwrap_err();
        assert_eq!(err, CkptError::Fingerprint { expected: 42, found: c.fingerprint });
        assert!(err.to_string().contains("different configuration"));
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_axis() {
        let cfg = PipelineConfig::new(2, 2, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let other_schedule =
            build_schedule(&PipelineConfig::new(2, 2, Scheme::GPipe).unwrap()).unwrap();
        let stages: Vec<Stage> = (0..2).map(|i| Stage::mlp(&mut seeded(50 + i), 6, 1)).collect();
        let base = config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &stages);
        assert_ne!(
            base,
            config_fingerprint(&other_schedule, 1, 0.05, "mse", Recompute::None, &stages)
        );
        assert_ne!(base, config_fingerprint(&schedule, 2, 0.05, "mse", Recompute::None, &stages));
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.06, "mse", Recompute::None, &stages));
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.05, "xent", Recompute::None, &stages));
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::Full, &stages));
        let fatter: Vec<Stage> = (0..2).map(|i| Stage::mlp(&mut seeded(50 + i), 8, 1)).collect();
        assert_ne!(base, config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &fatter));
        // Same inputs, same fingerprint (it is a pure function).
        assert_eq!(base, config_fingerprint(&schedule, 1, 0.05, "mse", Recompute::None, &stages));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fingerprint_parts_are_length_delimited() {
        assert_ne!(fingerprint_parts(&[b"ab", b"c"]), fingerprint_parts(&[b"a", b"bc"]));
    }

    #[test]
    fn state_bytes_counts_params() {
        let c = sample();
        let params: usize = c.stages.iter().map(Stage::param_count).sum();
        assert_eq!(c.state_bytes(), (params * 4) as u64);
    }

    #[test]
    fn sgd_bytes_are_pinned_and_any_other_optimizer_is_refused() {
        let c = sample();
        let payload = c.payload_json().unwrap();
        // The f32 learning rate widens losslessly to f64 on the way out.
        let sgd = "\"optimizer\":{\"Sgd\":{\"lr\":0.05000000074505806}}";
        assert!(payload.contains(sgd), "the SGD rendering moved");
        // A checkpoint carrying Adam moments would resume under plain SGD,
        // a silently different run: the document must not load at all.
        let adam = "\"optimizer\":{\"Adam\":{\"states\":[{\"t\":3,\"lr\":0.01}]}}";
        let crc = crc32(payload.as_bytes());
        let envelope = |payload: &str| {
            format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"crc32\":{crc},\"checkpoint\":{payload}}}"
            )
        };
        assert_eq!(Checkpoint::from_json(&envelope(&payload)).unwrap(), c);
        let err = Checkpoint::from_json(&envelope(&payload.replacen(sgd, adam, 1))).unwrap_err();
        assert!(matches!(err, CkptError::Parse(_)), "{err:?}");
    }
}
