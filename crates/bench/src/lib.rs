//! Shared support for the experiment binaries that regenerate every table
//! and figure of the paper.

#![warn(missing_docs)]

use mlkit::Classifier;
use perspectron::{CollectedCorpus, CorpusSpec, LabeledTrace, PerSpectron};

/// Standard corpus for the experiment binaries, collected in parallel
/// across all available cores through the streaming sample pipeline.
/// Setting `PERSPECTRON_QUICK=1` in the environment switches to a fast
/// smoke-test configuration.
pub fn experiment_corpus(interval: u64) -> CollectedCorpus {
    let quick = std::env::var("PERSPECTRON_QUICK").is_ok();
    let insts = if quick { 150_000 } else { 600_000 };
    CorpusSpec::paper()
        .with_interval(interval)
        .with_insts(insts)
        .collect()
}

/// Collects the 10K-interval corpus and trains the detector on it.
pub fn trained_detector() -> (CollectedCorpus, PerSpectron) {
    let corpus = experiment_corpus(10_000);
    let detector = PerSpectron::train(&corpus, 42);
    (corpus, detector)
}

/// The dense `f64` reference scorer, kept as an oracle for the packed
/// engine and as the baseline of the pipeline bench's detection arms: encode
/// every row at full schema width, project it onto the selected features
/// into a fresh `Vec`, take the dense dot product with the trained
/// perceptron, and normalize by |w|₁ + |b| (non-finite outputs read 0).
/// Bit-identical to [`PerSpectron::confidence_series`]: the
/// `pipeline` bench asserts it per sample before timing, and
/// `cross_core` compares confusion counts at run time.
pub fn dense_confidence_series(det: &PerSpectron, trace: &LabeledTrace) -> Vec<f64> {
    let p = det.perceptron();
    let norm = (p.weights().iter().map(|w| w.abs()).sum::<f64>() + p.bias().abs()).max(1e-12);
    let encoder = det.input_encoder();
    let mut buf = Vec::with_capacity(encoder.width());
    trace
        .trace
        .rows()
        .enumerate()
        .map(|(j, row)| {
            encoder.encode_into(row, j, &mut buf);
            let projected: Vec<f64> = det
                .selection()
                .selected
                .iter()
                .map(|&i| if buf[i].is_finite() { buf[i] } else { 0.0 })
                .collect();
            let score = p.score(&projected) / norm;
            if score.is_finite() {
                score
            } else {
                0.0
            }
        })
        .collect()
}

/// Renders a simple aligned table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a confidence series (range −1..1) as a terminal sparkline.
pub fn render_series(label: &str, values: &[f64]) -> String {
    let glyphs = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let line: String = values
        .iter()
        .map(|&v| {
            let clamped = v.clamp(-1.0, 1.0);
            let idx = (((clamped + 1.0) / 2.0) * (glyphs.len() - 1) as f64).round() as usize;
            glyphs[idx]
        })
        .collect();
    format!("{label:<28} {line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let t = render_table(
            &["model", "acc"],
            &[
                vec!["perceptron".into(), "0.99".into()],
                vec!["knn".into(), "0.94".into()],
            ],
        );
        assert!(t.contains("perceptron | 0.99"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn series_maps_range_to_glyphs() {
        let s = render_series("x", &[-1.0, 0.0, 1.0]);
        assert!(s.ends_with(" ▄█"));
    }
}
