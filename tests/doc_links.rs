//! Documentation hygiene: every relative Markdown link in the repo's docs
//! resolves to a real file.  This is the repo's one doc-link check: it runs
//! under `cargo test` (locally and in CI), so broken cross-references
//! between README, docs/ and the per-crate sources fail the test step.

use std::path::{Path, PathBuf};

/// Extracts `](target)` link targets from one Markdown source.
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = markdown.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = markdown[i + 2..].find(')') {
                targets.push(markdown[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    targets
}

#[test]
fn relative_markdown_links_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = Vec::new();
    for name in [
        "README.md",
        "ROADMAP.md",
        "CHANGES.md",
        "PAPER.md",
        "PAPERS.md",
    ] {
        let path = root.join(name);
        if path.exists() {
            files.push(path);
        }
    }
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(files.len() >= 7, "the documentation suite is present");

    let mut broken: Vec<String> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let dir = file.parent().unwrap_or(Path::new("."));
        for target in link_targets(&text) {
            // External links, pure anchors and mail addresses are out of
            // scope; fragments on relative links are stripped.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
                || target.is_empty()
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap();
            if path_part.is_empty() {
                continue;
            }
            if !dir.join(path_part).exists() {
                broken.push(format!("{}: {target}", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}
