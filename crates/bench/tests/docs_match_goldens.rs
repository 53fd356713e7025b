//! Every table EXPERIMENTS.md shows is copied from the committed golden
//! report files (`goldens/`, written by `scripts/goldens.sh`), so every
//! number in the docs comes from a command. Runs no experiment.

use std::fs;
use std::path::Path;

/// The `### ` heading-plus-table blocks of a markdown document, each as
/// the exact text `report` prints for one table (heading, blank line,
/// table rows, each line newline-terminated).
fn table_blocks(doc: &str) -> Vec<String> {
    let lines: Vec<&str> = doc.lines().collect();
    let mut blocks = Vec::new();
    for (i, heading) in lines.iter().enumerate() {
        if !heading.starts_with("### ") {
            continue;
        }
        let rows: Vec<&str> = lines
            .get(i + 2..)
            .unwrap_or_default()
            .iter()
            .take_while(|l| l.starts_with('|'))
            .copied()
            .collect();
        assert!(
            lines.get(i + 1) == Some(&"") && rows.len() >= 2,
            "EXPERIMENTS.md: `{heading}` is not a heading, a blank line and a table"
        );
        let mut block = format!("{heading}\n\n");
        for row in rows {
            block.push_str(row);
            block.push('\n');
        }
        blocks.push(block);
    }
    blocks
}

#[test]
fn every_experiments_md_table_appears_verbatim_in_a_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut goldens = Vec::new();
    for entry in fs::read_dir(root.join("goldens")).expect("goldens/") {
        let path = entry.expect("golden entry").path();
        if path.extension().is_some_and(|e| e == "txt") {
            goldens.push(fs::read_to_string(&path).expect("golden text"));
        }
    }
    assert!(!goldens.is_empty(), "no goldens/*.txt");

    let blocks = table_blocks(&doc);
    assert!(!blocks.is_empty(), "EXPERIMENTS.md shows no tables");
    // A table ends where `report` prints a blank line, so a doc table
    // missing the golden's last rows does not match as a prefix.
    let stale: Vec<&str> = blocks
        .iter()
        .filter(|b| !goldens.iter().any(|g| g.contains(&format!("{b}\n"))))
        .map(|b| b.lines().next().unwrap_or_default())
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md tables not in any goldens/*.txt (copy them from there): {stale:#?}"
    );
}
