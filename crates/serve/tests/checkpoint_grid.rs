//! CIRD checkpoint round-trips across the predictor × mechanism spec
//! grid.
//!
//! Three properties, each over the whole grid:
//!
//! 1. **Codec round-trip** — `Session::to_checkpoint` → `encode` →
//!    `decode` → `from_checkpoint` continues bit-identically to the
//!    session that never stopped (the batched/SWAR kernel path).
//! 2. **Kernel agnosticism** — a checkpoint written by the vectorized
//!    kernel restores into a scalar-pinned engine (and vice versa) and
//!    still finishes bit-identical to a single uninterrupted run: the
//!    state blobs are canonical, not kernel-private.
//! 3. **Corruption rejection** — any truncation and any single-byte flip
//!    of the encoded image is refused by `decode`, never half-trusted.
//! 4. **Pinned state bytes** — one seeded stream through each confidence
//!    mechanism yields recorded digests of its keys and state blob, so a
//!    session parked by an older build still resumes bit-identically.
//! 5. **Old images resume** — CIRD version-1 images recorded by a build
//!    that wrote every table entry as 4 bytes, and version-2 images
//!    recorded by a build that checksummed them with byte-serial FNV-1a,
//!    restore and continue bit-identically to sessions that never parked.
//! 6. **Refused loads change nothing** — a state blob that fails any
//!    check leaves the predictor or mechanism exactly as it was.

use cira_analysis::engine::replay::StreamingReplay;
use cira_analysis::spec::{parse_init, parse_mechanism, parse_predictor, IndexForm};
use cira_core::ScalarObserve;
use cira_predictor::ScalarKernel;
use cira_serve::proto::HelloConfig;
use cira_serve::session::Session;
use cira_store::Checkpoint;
use cira_trace::codec::PackedTrace;
use cira_trace::BranchRecord;

const PREDICTORS: [&str; 10] = [
    "gshare:10:10",
    "gshare:10:6",
    "gselect:10:4",
    "bimodal:10",
    "local:8:6",
    "agree:10:10:8",
    // TAGE-class predictors checkpoint their tagged components, policy
    // counters, and (sc-lite) loop/corrector tables through the same
    // CIRD blob discipline.
    "tage:10:4:2:32:9",
    "tage-sc-lite:10:4:2:32:9",
    "taken",
    "not-taken",
];

const MECHANISMS: [&str; 6] = [
    "cir:8",
    "ones-count:8",
    "saturating:16",
    "resetting:16",
    "two-level:pcxorbhr-cir",
    // The shadow-predictor mechanism checkpoints its shadow's state.
    "self:tage:10:4:2:32:9",
];

const INDICES: [&str; 5] = ["pc:10", "bhr:10", "pcxorbhr:10", "pcconcatbhr:10", "gcir:6"];

const INITS: [&str; 4] = ["ones", "zeros", "lastbit", "random:7"];

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.max(1);
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// A synthetic trace with a small hot site set and per-site bias (same
/// construction as the kernel differential suite).
fn synth_trace(seed: u64, len: usize) -> PackedTrace {
    let mut rng = xorshift(seed);
    (0..len)
        .map(|_| {
            let site = rng() % 97;
            let pc = 0x40_0000 + (site << 2);
            let taken = rng() % 100 < 20 + (site * 7) % 75;
            BranchRecord::new(pc, taken)
        })
        .collect()
}

fn config(predictor: &str, mechanism: &str, index: &str, init: &str) -> HelloConfig {
    HelloConfig {
        predictor: predictor.into(),
        mechanism: mechanism.into(),
        index: index.into(),
        init: init.into(),
        threshold: 8,
    }
}

/// Property 1 for one spec cell: park mid-stream through the codec, then
/// finish both sessions and require identical acks and snapshots.
fn assert_round_trip(head: &PackedTrace, tail: &PackedTrace, cfg: &HelloConfig) {
    let label = format!(
        "{} / {} @ {} init {}",
        cfg.predictor, cfg.mechanism, cfg.index, cfg.init
    );
    let mut original = Session::from_hello(cfg, 0xA5A5).expect(&label);
    original.apply_batch(0, head);

    let checkpoint = original.to_checkpoint(42);
    let bytes = checkpoint.encode();
    let decoded = Checkpoint::decode(&bytes).unwrap_or_else(|e| panic!("{label}: decode: {e}"));
    assert_eq!(decoded, checkpoint, "{label}: codec round-trip");

    let mut restored =
        Session::from_checkpoint(&decoded, 0xA5A5).unwrap_or_else(|e| panic!("{label}: {e}"));
    let a = original.apply_batch(1, tail);
    let b = restored.apply_batch(1, tail);
    assert_eq!(a, b, "{label}: tail acks diverge after restore");
    assert_eq!(
        original.snapshot(),
        restored.snapshot(),
        "{label}: snapshots diverge after restore"
    );
}

#[test]
fn session_checkpoints_round_trip_across_the_spec_grid() {
    let trace = synth_trace(0xC14D, 3_000);
    let head: PackedTrace = (0..2_000).map(|i| trace.get(i).unwrap()).collect();
    let tail: PackedTrace = (2_000..3_000).map(|i| trace.get(i).unwrap()).collect();
    for predictor in PREDICTORS {
        for mechanism in MECHANISMS {
            assert_round_trip(
                &head,
                &tail,
                &config(predictor, mechanism, "pcxorbhr:10", "ones"),
            );
        }
    }
    // Index functions and init policies sweep with a fixed pairing.
    for index in INDICES {
        for init in INITS {
            assert_round_trip(
                &head,
                &tail,
                &config("gshare:10:10", "resetting:16", index, init),
            );
        }
    }
}

/// Builds a replay pinned to the trait-default scalar loops.
fn scalar_replay(cfg: &HelloConfig) -> StreamingReplay {
    let predictor = ScalarKernel(parse_predictor(&cfg.predictor).unwrap());
    let index = cfg.index.parse::<IndexForm>().unwrap().build();
    let init = parse_init(&cfg.init).unwrap();
    let mechanism = ScalarObserve(parse_mechanism(&cfg.mechanism, index, init).unwrap());
    StreamingReplay::new(Box::new(predictor), Box::new(mechanism))
}

/// Builds a replay on the default (vectorized/SWAR) kernels.
fn swar_replay(cfg: &HelloConfig) -> StreamingReplay {
    let predictor = parse_predictor(&cfg.predictor).unwrap();
    let index = cfg.index.parse::<IndexForm>().unwrap().build();
    let init = parse_init(&cfg.init).unwrap();
    let mechanism = parse_mechanism(&cfg.mechanism, index, init).unwrap();
    StreamingReplay::new(predictor, mechanism)
}

/// Moves a mid-stream replay's state into a fresh replay through the raw
/// state blobs — exactly what the CIRD codec carries.
fn transfer(from: &StreamingReplay, into: &mut StreamingReplay) {
    into.set_bhr(from.bhr_value());
    into.load_predictor_state(&from.predictor_state())
        .expect("predictor state loads");
    into.load_mechanism_state(&from.mechanism_state())
        .expect("mechanism state loads");
    into.restore_cells(&from.cells()).expect("cells restore");
    into.restore_run(from.run());
}

#[test]
fn checkpoint_state_blobs_are_kernel_agnostic() {
    let trace = synth_trace(0x5CA1, 3_000);
    let head: PackedTrace = (0..2_000).map(|i| trace.get(i).unwrap()).collect();
    let tail: PackedTrace = (2_000..3_000).map(|i| trace.get(i).unwrap()).collect();
    for predictor in PREDICTORS {
        for mechanism in MECHANISMS {
            let cfg = config(predictor, mechanism, "pcxorbhr:10", "ones");
            let label = format!("{predictor} / {mechanism}");

            let mut reference = swar_replay(&cfg);
            reference.feed(&trace);

            // SWAR writes the state, a scalar engine finishes the run.
            let mut writer = swar_replay(&cfg);
            writer.feed(&head);
            let mut scalar = scalar_replay(&cfg);
            transfer(&writer, &mut scalar);
            scalar.feed(&tail);
            assert_eq!(scalar.stats(), reference.stats(), "{label}: SWAR→scalar");
            assert_eq!(scalar.run(), reference.run(), "{label}: SWAR→scalar run");

            // Scalar writes the state, the SWAR engine finishes the run.
            let mut writer = scalar_replay(&cfg);
            writer.feed(&head);
            let mut swar = swar_replay(&cfg);
            transfer(&writer, &mut swar);
            swar.feed(&tail);
            assert_eq!(swar.stats(), reference.stats(), "{label}: scalar→SWAR");
            assert_eq!(swar.run(), reference.run(), "{label}: scalar→SWAR run");
        }
    }
}

#[test]
fn truncated_and_corrupted_checkpoints_are_rejected() {
    // A small-table cell keeps the image a few KiB, so exhaustive
    // truncation and byte-flip sweeps stay fast.
    let trace = synth_trace(0xBADC, 1_500);
    let mut session = Session::from_hello(
        &config("gshare:6:6", "resetting:4", "pcxorbhr:6", "ones"),
        7,
    )
    .expect("session");
    session.apply_batch(0, &trace);
    let bytes = session.to_checkpoint(7).encode();
    assert!(Checkpoint::decode(&bytes).is_ok(), "pristine image decodes");

    for len in 0..bytes.len() {
        assert!(
            Checkpoint::decode(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes must be rejected",
            bytes.len()
        );
    }
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x40;
        assert!(
            Checkpoint::decode(&flipped).is_err(),
            "flip at byte {i} of {} must be rejected",
            bytes.len()
        );
    }
}

/// Continues an FNV-1a-64 hash over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PIN_MECHANISMS: [&str; 5] = [
    "cir:8",
    "cir:32",
    "ones-count:8",
    "saturating:16",
    "resetting:16",
];

/// A compiled-XOR index (batched gather) and a global-CIR index (the
/// per-record interpreter).
const PIN_INDICES: [&str; 2] = ["pcxorbhr:10", "gcir:6"];

/// The two-level variants carry their own indexing and init policy.
const PIN_TWO_LEVEL: [&str; 3] = [
    "two-level:pc-cir",
    "two-level:pcxorbhr-cir",
    "two-level:pcxorbhr-cirxorpcxorbhr",
];

/// Rewrites the table state at the front of `state` in the 4-byte layout
/// of tag 0, the only one CIRD version 1 wrote (a plain `u32` count, then
/// `u32` entries), and returns it with the bytes after the table.
fn widen_table(state: &[u8]) -> (Vec<u8>, &[u8]) {
    let word = u32::from_le_bytes(state[..4].try_into().unwrap());
    let (tag, count) = (word >> 29, (word & ((1 << 29) - 1)) as usize);
    let width = [4, 1, 2][tag as usize];
    let mut wide = (count as u32).to_le_bytes().to_vec();
    for entry in state[4..4 + width * count].chunks_exact(width) {
        let mut word = [0u8; 4];
        word[..width].copy_from_slice(entry);
        wide.extend_from_slice(&word);
    }
    (wide, &state[4 + width * count..])
}

/// `mechanism`'s state blob with every table widened to the 4-byte
/// layout: one table then the global CIR, or two for the two-level
/// variants.
fn widen_state(mechanism: &str, state: &[u8]) -> Vec<u8> {
    let tables = if mechanism.starts_with("two-level") {
        2
    } else {
        1
    };
    let mut out = Vec::new();
    let mut rest = state;
    for _ in 0..tables {
        let (wide, after) = widen_table(rest);
        out.extend_from_slice(&wide);
        rest = after;
    }
    out.extend_from_slice(rest);
    out
}

/// Digest of every key read plus the final `mechanism_state()` bytes
/// widened to the 4-byte table layout, one per cell in `pinned_cells()`
/// order. These are the bytes a CIRD version-1 checkpoint carries, which
/// sessions parked by older builds still resume from; a change to any
/// key or table entry changes a digest.
#[rustfmt::skip]
const PINNED: [u64; 43] = [
    0xbf78775caa30cf84, 0xa14388f4f03e1d86, 0x6c35e6d207d0c286,
    0xe28e0910f424b51c, 0x008144cc26d9b69c, 0x2c71f22e2c7261dc,
    0x50537f96c12429dc, 0xf17da8a64bc04346, 0x53354c9ab0a6b967,
    0x732ce10c4c152849, 0x7a6a79a34c6bb449, 0xed7bca16321a0efd,
    0x02b759fbd21739fc, 0xd38b9265bccab784, 0x0345fe162bdc4e84,
    0x1155299a58a8c18f, 0xfcbfd1e45a2ff2bf, 0x98a732de0ebd7743,
    0xf45a33c146cac39e, 0xdd102a8b58293867, 0x007f3a911dd08c6e,
    0x6cccce52ed781712, 0x93f1537b3d4fead2, 0x7c85f46a9c230916,
    0xe1b7338e3bf4c8a2, 0xf6ce853c1c893f46, 0x6539895d671f9d95,
    0xe6538dab52f601ea, 0x6c68b0440a99c9cc, 0xf9acedab0d26cc72,
    0xd2a3e2c1ad5525ee, 0xf0c0f66b8061f76e, 0xb6e39986d62dcd5f,
    0x00474322b8a41d25, 0x21135ef2a00fdb05, 0x8124a5f0eb7cbe43,
    0x08352e36c07912b3, 0xe69d91232b6b2b8f, 0x90bfca7947f419cf,
    0xc184e8d9982c58f4, 0xd20f0a760713b16d, 0xa1ea9a3966646eb4,
    0x10f208e155926bda,
];

/// Every pinned `(mechanism, index, init)` cell, in `PINNED` order.
fn pinned_cells() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut cells = Vec::new();
    for mechanism in PIN_MECHANISMS {
        for index in PIN_INDICES {
            for init in INITS {
                cells.push((mechanism, index, init));
            }
        }
    }
    for mechanism in PIN_TWO_LEVEL {
        cells.push((mechanism, "pcxorbhr:10", "ones"));
    }
    cells
}

#[test]
fn mechanism_state_bytes_match_the_pinned_digests() {
    let trace = synth_trace(0x91E5, 4_000);
    // Two uneven batches, so deferred global-CIR pushes cross a batch edge.
    let head: PackedTrace = (0..1_500).map(|i| trace.get(i).unwrap()).collect();
    let tail: PackedTrace = (1_500..4_000).map(|i| trace.get(i).unwrap()).collect();
    let cells = pinned_cells();
    assert_eq!(cells.len(), PINNED.len());
    let digests: Vec<u64> = cells
        .iter()
        .map(|&(mechanism, index, init)| {
            let mut replay = swar_replay(&config("gshare:10:10", mechanism, index, init));
            let mut hash = FNV_OFFSET;
            for batch in [&head, &tail] {
                for key in replay.feed(batch).keys {
                    hash = fnv1a(hash, &key.to_le_bytes());
                }
            }
            fnv1a(hash, &widen_state(mechanism, &replay.mechanism_state()))
        })
        .collect();
    for ((cell, got), want) in cells.iter().zip(&digests).zip(PINNED) {
        assert_eq!(
            *got, want,
            "{cell:?}: digest {got:#018x}; all digests: {digests:#018x?}"
        );
    }
}

#[test]
fn sessions_in_the_same_state_encode_the_same_bytes() {
    let trace = synth_trace(0x5A3E, 3_000);
    for mechanism in MECHANISMS {
        let cfg = config("gshare:10:10", mechanism, "pcxorbhr:10", "ones");
        let encode = || {
            let mut session = Session::from_hello(&cfg, 9).expect(mechanism);
            session.apply_batch(0, &trace);
            session.to_checkpoint(9).encode()
        };
        assert_eq!(encode(), encode(), "{mechanism}: CIRD bytes differ");
    }
}

#[test]
fn checkpoints_with_cells_in_any_order_restore_bit_identically() {
    // Older builds wrote cells in hash-map order; a restore must not care.
    let trace = synth_trace(0x0DD5, 3_000);
    let head: PackedTrace = (0..2_000).map(|i| trace.get(i).unwrap()).collect();
    let tail: PackedTrace = (2_000..3_000).map(|i| trace.get(i).unwrap()).collect();
    let mut rng = xorshift(0x5EED);
    for mechanism in ["cir:8", "resetting:16", "saturating:16"] {
        let cfg = config("gshare:10:10", mechanism, "pcxorbhr:10", "ones");
        let mut original = Session::from_hello(&cfg, 1).expect(mechanism);
        original.apply_batch(0, &head);
        let mut checkpoint = original.to_checkpoint(1);
        assert!(
            checkpoint.cells.len() > 2,
            "{mechanism}: too few cells to shuffle"
        );
        // Fisher-Yates shuffle of the cell list.
        for i in (1..checkpoint.cells.len()).rev() {
            checkpoint.cells.swap(i, (rng() % (i as u64 + 1)) as usize);
        }
        let mut restored = Session::from_checkpoint(&checkpoint, 1).expect(mechanism);
        assert_eq!(
            restored.to_checkpoint(1),
            original.to_checkpoint(1),
            "{mechanism}: restore re-sorts the cells"
        );
        assert_eq!(
            original.apply_batch(1, &tail),
            restored.apply_batch(1, &tail)
        );
        assert_eq!(original.snapshot(), restored.snapshot(), "{mechanism}");
    }
}

#[test]
fn checkpoints_whose_cells_disagree_with_their_totals_are_refused() {
    let trace = synth_trace(0xCE11, 2_000);
    let mut session =
        Session::from_hello(&config("gshare:10:10", "cir:8", "pcxorbhr:10", "ones"), 3)
            .expect("session");
    session.apply_batch(0, &trace);
    let good = session.to_checkpoint(3);
    assert!(Session::from_checkpoint(&good, 3).is_ok());
    let (key, refs, miss) = good.cells[0];

    // A key listed twice, totals adjusted so the sums still hold.
    let mut twice = good.clone();
    twice.cells.push((key, refs, miss));
    twice.branches += refs;
    twice.mispredicts += miss;
    let err = Session::from_checkpoint(&twice, 3).unwrap_err();
    assert!(err.contains("listed twice"), "{err}");

    // Counts that would overflow a u64 if added.
    let mut overflow = good.clone();
    overflow.cells.push((key, u64::MAX, 0));
    let err = Session::from_checkpoint(&overflow, 3).unwrap_err();
    assert!(err.contains("do not sum"), "{err}");

    // Refs or mispredicts that miss the run's totals.
    for (dr, dm) in [(1, 0), (0, 1)] {
        let mut off = good.clone();
        off.cells[0] = (key, refs + dr, miss + dm);
        let err = Session::from_checkpoint(&off, 3).unwrap_err();
        assert!(err.contains("do not sum"), "{err}");
    }
}

/// The mechanisms of the CIRD version-1 images in `tests/cird_v1/`, one
/// file each, named after the spec with `:` as `-`. A build that wrote
/// every table entry as 4 bytes recorded them: predictor `gshare:6:6`,
/// index `pcxorbhr:6`, init `ones`, threshold 8, session id 0x51, parked
/// after the first 1,800 records of `synth_trace(0xC1D1, 3_000)`.
const V1_IMAGES: [&str; 8] = [
    "cir:8",
    "cir:16",
    "cir:32",
    "resetting:16",
    "saturating:16",
    "two-level:pc-cir",
    "two-level:pcxorbhr-cir",
    "two-level:pcxorbhr-cirxorpcxorbhr",
];

/// The mechanisms of the CIRD version-2 images in `tests/cird_v2/`,
/// recorded like the version-1 images by the last build that wrote
/// version 2 (narrow tables, FNV-1a trailer): one per one-level table
/// layout.
const V2_IMAGES: [&str; 5] = ["cir:8", "cir:16", "cir:32", "resetting:16", "saturating:16"];

/// Decodes each `version` image in `tests/{dir}/`, requires it to equal
/// today's checkpoint of the same state (with tables widened to 4-byte
/// entries for version 1), and requires the resumed session to continue
/// bit-identically to one that never parked.
fn assert_images_resume(version: u32, dir: &str, mechanisms: &[&str]) {
    let trace = synth_trace(0xC1D1, 3_000);
    let head: PackedTrace = (0..1_800).map(|i| trace.get(i).unwrap()).collect();
    let tail: PackedTrace = (1_800..3_000).map(|i| trace.get(i).unwrap()).collect();
    for &mechanism in mechanisms {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join(dir)
            .join(format!("{}.cird", mechanism.replace(':', "-")));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            bytes[4..8],
            version.to_le_bytes(),
            "{mechanism}: a version-{version} image"
        );
        let parked = Checkpoint::decode(&bytes).unwrap_or_else(|e| panic!("{mechanism}: {e}"));

        let cfg = config("gshare:6:6", mechanism, "pcxorbhr:6", "ones");
        let mut never = Session::from_hello(&cfg, 0xA5A5).expect(mechanism);
        never.apply_batch(0, &head);
        let mut today = never.to_checkpoint(0x51);
        if version == 1 {
            today.mechanism_state = widen_state(mechanism, &today.mechanism_state);
        }
        assert_eq!(parked, today, "{mechanism}: the old build's image");

        let mut resumed = Session::from_checkpoint(&parked, 0xA5A5).expect(mechanism);
        assert_eq!(
            resumed.to_checkpoint(0x51),
            never.to_checkpoint(0x51),
            "{mechanism}: restored state"
        );
        assert_eq!(
            resumed.apply_batch(1, &tail),
            never.apply_batch(1, &tail),
            "{mechanism}: tail acks"
        );
        assert_eq!(resumed.snapshot(), never.snapshot(), "{mechanism}");
    }
}

#[test]
fn version_1_images_resume_bit_identically() {
    assert_images_resume(1, "cird_v1", &V1_IMAGES);
}

#[test]
fn version_2_images_resume_bit_identically() {
    assert_images_resume(2, "cird_v2", &V2_IMAGES);
}

#[test]
fn a_refused_state_load_changes_nothing() {
    let (ours, theirs) = (synth_trace(0x0BAD, 2_000), synth_trace(0x600D, 2_000));
    for predictor in PREDICTORS {
        for mechanism in MECHANISMS {
            let cfg = config(predictor, mechanism, "pcxorbhr:10", "ones");
            let label = format!("{predictor} / {mechanism}");
            let mut replay = swar_replay(&cfg);
            replay.feed(&ours);
            let mut other = swar_replay(&cfg);
            other.feed(&theirs);
            let (predictor_before, mechanism_before) =
                (replay.predictor_state(), replay.mechanism_state());

            let mut blob = other.predictor_state();
            blob.push(0);
            assert!(
                replay.load_predictor_state(&blob).is_err(),
                "{label}: predictor + 1 byte"
            );
            let mut blob = other.mechanism_state();
            blob.push(0);
            assert!(
                replay.load_mechanism_state(&blob).is_err(),
                "{label}: mechanism + 1 byte"
            );
            if mechanism.starts_with("two-level") {
                // Level 2's first entry above max, in the 4-byte layout
                // that can hold it: level 1 alone would load.
                let mut blob = widen_state(mechanism, &other.mechanism_state());
                let level2 = 4 + 4 * (1 << 16);
                blob[level2 + 4..level2 + 8].copy_from_slice(&u32::MAX.to_le_bytes());
                let err = replay.load_mechanism_state(&blob).unwrap_err();
                assert!(err.contains("exceeds max"), "{label}: {err}");
            }
            assert_eq!(replay.predictor_state(), predictor_before, "{label}");
            assert_eq!(replay.mechanism_state(), mechanism_before, "{label}");
        }
    }
}
