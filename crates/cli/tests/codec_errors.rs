//! Codec error paths exercised through the CLI surface: damaged or alien
//! sketch files must produce a typed "corrupt sketch file" error from
//! `bed info` / `bed restore`, never a panic.

use std::fs;
use std::path::PathBuf;

use bed_cli::{run, CliError};

/// A fresh directory per test: the tests run in parallel, so each one
/// wipes and fills only its own `test` subdirectory.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bed-cli-codec-errors")
        .join(format!("pid-{}", std::process::id()))
        .join(test);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_sample(dir: &std::path::Path) -> PathBuf {
    let tsv = dir.join("s.tsv");
    let text: String = (0..300).map(|i| format!("{}\t{}\n", i % 8, i / 3)).collect();
    fs::write(&tsv, text).unwrap();
    let out = dir.join("s.bed");
    run([
        "build",
        "--input",
        tsv.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--universe",
        "8",
        "--seed",
        "3",
    ])
    .unwrap();
    out
}

fn expect_codec_err(path: &std::path::Path) {
    let err = run(["info", "--sketch", path.to_str().unwrap()]).unwrap_err();
    match err {
        CliError::Codec(_) => {}
        other => panic!("expected a codec error for {}, got: {other}", path.display()),
    }
}

#[test]
fn info_rejects_damaged_sketches_with_typed_errors() {
    let dir = scratch("info");
    let good = build_sample(&dir);
    let bytes = fs::read(&good).unwrap();

    // Truncated header: not even a full magic tag.
    let p = dir.join("truncated-header.bed");
    fs::write(&p, &bytes[..3]).unwrap();
    expect_codec_err(&p);

    // Wrong magic: a format this CLI has never heard of.
    let p = dir.join("wrong-magic.bed");
    let mut alien = bytes.clone();
    alien[..4].copy_from_slice(b"ZZZZ");
    fs::write(&p, alien).unwrap();
    expect_codec_err(&p);

    // A CMPB record is a valid format elsewhere in the workspace, but not
    // a loadable top-level sketch.
    let p = dir.join("cmpb-magic.bed");
    let mut cmpb = bytes.clone();
    cmpb[..4].copy_from_slice(b"CMPB");
    fs::write(&p, cmpb).unwrap();
    expect_codec_err(&p);

    // Version from the future.
    let p = dir.join("future-version.bed");
    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&902u16.to_le_bytes());
    fs::write(&p, future).unwrap();
    expect_codec_err(&p);

    // Mid-stream EOF: the record stops half way through.
    let p = dir.join("mid-eof.bed");
    fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
    expect_codec_err(&p);

    // The pristine file still loads, so the harness itself is sound.
    run(["info", "--sketch", good.to_str().unwrap()]).unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn error_text_names_the_corruption() {
    let dir = scratch("error-text");
    let good = build_sample(&dir);
    let mut bytes = fs::read(&good).unwrap();
    bytes[..4].copy_from_slice(b"ZZZZ");
    let p = dir.join("named.bed");
    fs::write(&p, bytes).unwrap();
    let msg = run(["info", "--sketch", p.to_str().unwrap()]).unwrap_err().to_string();
    assert!(msg.contains("corrupt sketch file"), "{msg}");
    let _ = fs::remove_dir_all(&dir);
}
