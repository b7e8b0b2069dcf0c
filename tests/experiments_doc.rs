//! EXPERIMENTS.md's paper-vs-measured tables quote `experiments_quick.txt`.
//! Every bold measured cell of the Figure 6–9 and §VII-C tables, every
//! measured cell of the §VI-E, §VII-A and §I/VIII-D tables, and every
//! number of the `mlp` and `channels` findings must carry the numbers of
//! the artefact lines it summarizes, so regenerating an artefact without
//! its summary fails here. README.md's artefact list must name every
//! artefact `exp` runs, and its crate table every crate under `crates/`.

use experiments::orchestrate::ARTEFACTS;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const QUICK: &str = include_str!("../experiments_quick.txt");
const README: &str = include_str!("../README.md");

/// The `===== name =====` section of `experiments_quick.txt`.
fn artefact(name: &str) -> &'static str {
    let head = format!("===== {name} =====\n");
    let start = QUICK.find(&head).expect("artefact section") + head.len();
    let len = QUICK[start..]
        .find("\n===== ")
        .unwrap_or(QUICK.len() - start);
    &QUICK[start..start + len]
}

/// The trimmed cells of a `| a | b |` table line.
fn cells(line: &str) -> Vec<&str> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// The cells of the artefact table row whose leading cells are `keys`.
fn artefact_row(section: &str, keys: &[&str]) -> Vec<&'static str> {
    let section: &'static str = artefact(section);
    section
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(cells)
        .find(|c| c.starts_with(keys))
        .unwrap_or_else(|| panic!("no row {keys:?} in {section}"))
}

/// The rows of a `mlp` or `channels` table: cells after the header, each
/// row's second cell its window size.
fn window_rows(name: &str) -> Vec<Vec<&'static str>> {
    artefact(name)
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(cells)
        .filter(|row| row[1].parse::<usize>().is_ok())
        .collect()
}

/// A table cell's number without its unit (`1.378x`, `72.9%`, `25.0 ns`).
fn value(cell: &str) -> f64 {
    let number = cell.trim_end_matches(" ns").trim_end_matches(['x', '%']);
    number
        .parse()
        .unwrap_or_else(|_| panic!("not a number: {cell}"))
}

/// The word after `marker` in `section`, without trailing punctuation.
fn after(section: &str, marker: &str) -> String {
    let rest = &section[section.find(marker).expect(marker) + marker.len()..];
    let word = rest
        .split_whitespace()
        .next()
        .expect("a word after the marker");
    word.trim_end_matches(|c: char| !c.is_ascii_alphanumeric())
        .to_string()
}

/// The EXPERIMENTS.md section under the heading that starts with `heading`.
fn doc_section(heading: &str) -> &'static str {
    let start = DOC.find(&format!("\n{heading}")).expect(heading) + 1;
    let len = DOC[start + 1..]
        .find("\n## ")
        .map_or(DOC.len() - start, |n| n + 1);
    &DOC[start..start + len]
}

/// The paragraph of `heading`'s section that starts with `start`.
fn doc_paragraph(heading: &str, start: &str) -> &'static str {
    let section = doc_section(heading);
    let from = &section[section.find(start).expect(start)..];
    &from[..from.find("\n\n").unwrap_or(from.len())]
}

/// The table row labelled `label` in `heading`'s section.
fn doc_row(heading: &str, label: &str) -> &'static str {
    doc_section(heading)
        .lines()
        .find(|l| l.starts_with('|') && cells(l)[0] == label)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md {heading}: no row {label:?}"))
}

/// The one bold span of the table row labelled `label` in `heading`'s
/// section.
fn doc_bold(heading: &str, label: &str) -> String {
    let row = doc_row(heading, label);
    let spans: Vec<&str> = row.split("**").skip(1).step_by(2).collect();
    assert_eq!(spans.len(), 1, "{heading} row {label:?}: {row}");
    spans[0].to_string()
}

/// The numbers of `text` as written (thousands commas dropped).
fn numbers(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find(|c: char| c.is_ascii_digit()) {
        let tail = &rest[i..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == ','))
            .unwrap_or(tail.len());
        out.push(tail[..end].trim_end_matches(['.', ',']).replace(',', ""));
        rest = &tail[end..];
    }
    out
}

/// `[min, max]` of `values`, printed at `decimals` places as the artefact
/// prints them.
fn span(values: impl Iterator<Item = f64>, decimals: usize) -> [String; 2] {
    let (lo, hi) = values.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    [format!("{lo:.decimals$}"), format!("{hi:.decimals$}")]
}

fn pct(cell: &str) -> String {
    cell.trim_end_matches('%').to_string()
}

/// A document's `m×10ⁿ` as the artefact prints it, `men`.
fn sci(text: &str) -> String {
    let (mantissa, power) = text.split_once("×10").expect("a power of ten");
    let exponent: String = power
        .chars()
        .map_while(|c| "⁰¹²³⁴⁵⁶⁷⁸⁹".chars().position(|d| d == c))
        .map(|d| char::from(b'0' + d as u8))
        .collect();
    format!("{}e{exponent}", mantissa.trim())
}

#[test]
fn figure_6_table_quotes_the_artefact() {
    let h = "## Figure 6";
    let fig6 = artefact("fig6");
    assert_eq!(
        numbers(&doc_bold(h, "mean slowdown (GMEAN)")),
        [after(fig6, "(slowdown ")]
    );
    let worst = after(fig6, "worst: ");
    let bold = doc_bold(h, "worst workload");
    assert!(bold.starts_with(&worst), "{bold} vs worst {worst}");
    assert_eq!(
        numbers(&bold),
        [
            after(fig6, &format!("worst: {worst} at ")),
            artefact_row("fig6", &[&worst])[3].to_string(),
        ]
    );
    let low_mpki = fig6
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(cells)
        .filter_map(|row| Some((row[2].strip_suffix('%')?, row[3].parse::<f64>().ok()?)))
        .filter(|&(_, mpki)| mpki < 5.0)
        .map(|(slowdown, _)| slowdown.parse::<f64>().unwrap());
    assert_eq!(
        numbers(&doc_bold(h, "low-MPKI workloads (<5)")),
        span(low_mpki, 2)
    );
}

#[test]
fn figure_7_table_quotes_the_artefact() {
    let h = "## Figure 7";
    let cell = |design: &str, lat: &str, col: usize| pct(artefact_row("fig7", &[design, lat])[col]);
    assert_eq!(
        numbers(&doc_bold(h, "PT-Guard avg")),
        [cell("PT-Guard", "5", 2), cell("PT-Guard", "20", 2)]
    );
    let opt_avg = numbers(&doc_bold(h, "Optimized avg"));
    for lat in ["5", "10", "15", "20"] {
        assert_eq!(
            opt_avg,
            [cell("Optimized PT-Guard", lat, 2)],
            "{lat} cycles"
        );
    }
    assert_eq!(
        numbers(&doc_bold(h, "Optimized worst")),
        [cell("Optimized PT-Guard", "10", 3), "10".to_string()]
    );
}

#[test]
fn figure_8_table_quotes_the_artefact() {
    let h = "## Figure 8";
    let fig8 = artefact("fig8");
    for (label, marker) in [
        ("zero PTEs", "zero = "),
        ("contiguous PFNs", "contiguous = "),
        ("non-contiguous", "non-contiguous = "),
        (
            "per-flag line uniformity",
            "flag uniformity across lines = ",
        ),
    ] {
        assert_eq!(
            numbers(&doc_bold(h, label)),
            [after(fig8, marker)],
            "{label}"
        );
    }
    let deciles: Vec<Vec<&str>> = fig8
        .lines()
        .filter(|l| l.starts_with("| P"))
        .map(cells)
        .collect();
    assert_eq!(deciles.len(), 11);
    let column = |c: usize| {
        deciles
            .iter()
            .map(move |row| row[c].parse::<f64>().unwrap())
    };
    let [contiguous, zero] = [span(column(2), 1), span(column(1), 1)];
    assert_eq!(
        numbers(&doc_bold(h, "per-process spread")),
        [contiguous, zero].concat()
    );
}

#[test]
fn figure_9_table_quotes_the_artefact() {
    let h = "## Figure 9";
    let average = artefact_row("fig9", &["average"]);
    for (label, col) in [
        ("1/1024", 1),
        ("1/512 (DDR4 worst case)", 2),
        ("1/256", 3),
        ("1/128 (LPDDR4 worst case)", 4),
    ] {
        assert_eq!(numbers(&doc_bold(h, label)), [pct(average[col])], "{label}");
    }
    let fig9 = artefact("fig9");
    let coverage = doc_section(h)
        .lines()
        .find(|l| l.contains("erroneous lines:"))
        .expect("the detection-coverage line");
    assert_eq!(
        numbers(coverage),
        [
            after(fig9, "detection coverage: "),
            after(fig9, "lines, "),
            after(fig9, "undetected, "),
        ]
    );
}

#[test]
fn section_vii_c_table_quotes_the_artefact() {
    let h = "## §VII-C";
    let multicore = artefact("multicore");
    assert_eq!(
        numbers(&doc_bold(h, "average slowdown")),
        [after(multicore, "average = ")]
    );
    let worst = after(multicore, "worst = ");
    let bundle = after(multicore, &format!("worst = {worst}% ("));
    let bold = doc_bold(h, "worst bundle");
    assert!(bold.contains(&format!("({bundle})")), "{bold} vs {bundle}");
    assert_eq!(numbers(&bold), [worst]);
}

#[test]
fn section_vi_e_table_quotes_the_artefact() {
    let h = "## §VI-E";
    let security = artefact("security");
    for (label, marker) in [
        ("selected k at p_flip = 1 %", "selected k at p_flip=1%: "),
        ("p_uncorrectable at k = 4, p = 1 %", "p_uncorrectable = "),
        ("effective MAC bits (k = 4, G_max = 372)", "-> n_eff = "),
    ] {
        assert_eq!(
            numbers(&doc_bold(h, label)),
            [after(security, marker)],
            "{label}"
        );
    }
    let raw = security
        .lines()
        .find(|l| l.starts_with("without correction"))
        .expect("the raw-MAC line");
    for (label, years) in [
        (
            "attack time (corrected design)",
            after(security, "%, attack time "),
        ),
        ("attack time (raw 96-bit MAC)", after(raw, "bits, ")),
    ] {
        assert_eq!(sci(&doc_bold(h, label)), years, "{label}");
    }
}

#[test]
fn section_vii_a_table_quotes_the_artefact() {
    let h = "## §VII-A";
    let ablation = artefact("ablation");
    let sampled = ablation[ablation.find('[').expect("the sampled workloads")..]
        .split(']')
        .next()
        .unwrap()
        .split(',')
        .count();
    let header = doc_row(h, "design");
    assert!(
        header.contains(&format!("({sampled} workloads)")),
        "{header} vs {sampled} sampled workloads"
    );
    for (label, design) in [
        (
            "96-bit + correction (paper)",
            "96-bit MAC + correction (paper)",
        ),
        ("96-bit detection-only", "96-bit MAC, detection only"),
        (
            "64-bit detection-only @7cy",
            "64-bit MAC, detection only (7cy)",
        ),
    ] {
        let doc = cells(doc_row(h, label));
        let art = artefact_row("ablation", &[design]);
        assert_eq!(doc[1], art[3], "{label}: n_eff");
        assert_eq!(sci(doc[2]), art[4], "{label}: attack years");
        for col in [3, 4] {
            assert_eq!(numbers(doc[col]), [pct(art[col + 2])], "{label}: {col}");
        }
    }
}

#[test]
fn sections_i_viii_d_table_quotes_the_artefact() {
    let h = "## Sections I / VIII-D";
    let workloads = artefact("fullmem")
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(cells)
        .filter(|row| !["workload", "average"].contains(&row[0]))
        .count();
    for label in [
        "xalancbmk",
        "lbm (streaming)",
        "sssp (pointer-chase)",
        &format!("average ({workloads} workloads)"),
    ] {
        let doc = cells(doc_row(h, label));
        let key = label.split(' ').next().unwrap();
        let art = artefact_row("fullmem", &[key]);
        for col in 1..=3 {
            assert_eq!(
                numbers(doc[col]).first(),
                Some(&pct(art[col + 1])),
                "{label}: column {col}"
            );
        }
    }
}

#[test]
fn mlp_section_quotes_the_artefact() {
    fn batches(r: &[&str]) -> Vec<f64> {
        r[10].split(" / ").map(value).collect()
    }
    let rows = window_rows("mlp");
    let at = |mlp: &'static str| rows.iter().filter(move |r| r[1] == mlp);
    let span_at = |mlp, decimals, cell: fn(&[&str]) -> f64| {
        span(at(mlp).map(|r| cell(r)), decimals).join(" ")
    };
    let fired = |r: &[&str]| value(r[8].split('/').nth(1).unwrap());
    let smaller = at("4")
        .map(|r| batches(r)[..2].iter().sum::<f64>())
        .fold(0.0, f64::max);
    let quoted = format!(
        "4 {} 1 {} 4 {} {} 1 {} {} 4 3 4 {} {smaller}",
        span_at("4", 3, |r| value(r[4])),
        span_at("4", 1, |r| value(r[7])),
        span_at("4", 0, fired),
        span_at("1", 0, fired),
        span_at("4", 1, |r| value(r[9])),
        span_at("1", 1, |r| value(r[9])),
        span_at("4", 0, |r| batches(r)[2]),
    );
    let paragraph = doc_paragraph("## Event-driven memory pipeline", "At `--quick` scale");
    assert_eq!(numbers(paragraph).join(" "), quoted);
}

#[test]
fn channels_section_quotes_the_artefact() {
    let paragraph = doc_paragraph("## Multi-channel memory system", "At `--quick` scale");
    let rows = window_rows("channels");
    let speedup4 = |mlp: &'static str| {
        rows.iter()
            .filter(move |r| r[1] == mlp)
            .map(|r| (r[0], value(r[6])))
    };
    let by_speedup = |a: &(&str, f64), b: &(&str, f64)| a.1.total_cmp(&b.1);
    let (_, serial_best) = speedup4("1").max_by(by_speedup).unwrap();
    let (worst, serial_worst) = speedup4("1").min_by(by_speedup).unwrap();
    let (best, window_best) = speedup4("4").max_by(by_speedup).unwrap();
    assert_eq!(after(paragraph, "worst `"), worst);
    assert_eq!(after(paragraph, "best `"), best);
    assert_eq!(after(paragraph, "streamer `"), "lbm");
    let lbm = value(artefact_row("channels", &["lbm", "4"])[6]);
    let balance = span(rows.iter().map(|r| value(r[7])), 2).join(" ");
    assert_eq!(
        numbers(paragraph).join(" "),
        format!("1 {serial_best:.3} {serial_worst:.3} 4 4 {window_best:.3} {lbm:.3} 4 {balance}")
    );
}

#[test]
fn readme_lists_every_artefact() {
    let marker = "Artefacts: `";
    let start = README.find(marker).expect("the artefact list") + marker.len();
    let list = &README[start..start + README[start..].find('`').unwrap()];
    let names: Vec<&str> = ARTEFACTS.iter().copied().chain(["all"]).collect();
    assert_eq!(list.split_whitespace().collect::<Vec<_>>(), names);
}

#[test]
fn readme_crate_table_names_every_crate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates");
    let crates: Vec<String> = std::fs::read_dir(dir)
        .expect("the crates directory")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(crates.len() > 10, "found only {crates:?}");
    let missing: Vec<&String> = crates
        .iter()
        .filter(|c| !README.contains(&format!("\n| `crates/{c}` | ")))
        .collect();
    assert!(
        missing.is_empty(),
        "README's crate table has no row for {missing:?}"
    );
}
