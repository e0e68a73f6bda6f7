//! Golden training pins: two short `fit` runs on the tiny fixture must
//! land on exactly the parameters and final loss they always have.
//!
//! Each case hashes every parameter's f32 bits (in `ParamStore` order)
//! plus the final loss bits with FNV-1a and compares against a constant.
//! Any change to the training arithmetic — op order, accumulation
//! order, a kernel, the RNG stream — moves the hash. A change that only
//! restructures how the tape records the same arithmetic (for example a
//! fused op) must leave both hashes untouched. Each fit runs at 1 and 2
//! worker threads; `scripts/check.sh` reruns the suite under a shuffled
//! schedule (`DEKG_SHUFFLE_SCHEDULE=1`).

use dekg::prelude::*;
use dekg_datasets::tiny_fixture;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// 64-bit FNV-1a over a stream of 32-bit words (little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fits a fresh model for 2 epochs on `threads` rayon workers and
/// hashes its parameters plus the final loss.
fn fit_hash_on(cfg: &DekgIlpConfig, threads: usize) -> (u64, f32) {
    let data = tiny_fixture(5);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut model = DekgIlp::new(DekgIlpConfig { epochs: 2, ..cfg.clone() }, &data, &mut rng);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool");
    let report = pool.install(|| model.fit(&data, &mut rng));
    let params = model.params();
    let words = params
        .iter()
        .flat_map(|(_, _, t)| t.data().iter().map(|x| x.to_bits()))
        .chain(std::iter::once(report.final_loss.to_bits()));
    (fnv1a(words), report.final_loss)
}

/// [`fit_hash_on`] at 1 and 2 worker threads, which must agree.
fn fit_hash(cfg: &DekgIlpConfig) -> (u64, f32) {
    let one = fit_hash_on(cfg, 1);
    let two = fit_hash_on(cfg, 2);
    assert_eq!(one.0, two.0, "training depends on the thread count");
    one
}

#[test]
fn quick_config_training_is_golden() {
    let (hash, loss) = fit_hash(&DekgIlpConfig::quick());
    assert_eq!(loss.to_bits(), 0x3e2f_60a1, "quick fit final loss drifted: {loss:?}");
    assert_eq!(hash, 0x0155_3749_2e01_7791, "quick fit parameters drifted");
}

#[test]
fn three_layer_basis_dropout_training_is_golden() {
    let cfg = DekgIlpConfig {
        dim: 8,
        attn_dim: 4,
        gnn_layers: 3,
        num_bases: Some(2),
        edge_dropout: 0.5,
        ..DekgIlpConfig::quick()
    };
    let (hash, loss) = fit_hash(&cfg);
    assert_eq!(loss.to_bits(), 0x3f2d_fa7f, "3-layer basis fit final loss drifted: {loss:?}");
    assert_eq!(hash, 0x76ef_c609_fb22_dac7, "3-layer basis fit parameters drifted");
}
