//! Seeded frame generation: the only thing the program under test ever
//! sees of a workload.

use crate::workload::{FrameSource, Wire, Workload};
use dquag_datagen::errors::PAPER_ERROR_RATE;
use dquag_datagen::{
    inject_hidden, inject_ordinary, make_test_batches, BatchProtocol, InjectionReport,
    OrdinaryError,
};
use dquag_sources::WireFormat;
use dquag_tabular::{csv, DataFrame, Value};
use rand::Rng;
use std::collections::HashSet;
use std::fmt::Write as _;

/// One distinct frame: its rows, ground truth and both payload encodings.
pub struct Frame {
    pub df: DataFrame,
    /// Ground truth: the frame carries injected errors (mixed traffic) or
    /// was drawn from the dirty copy (Table 1 protocol).
    pub truth_dirty: bool,
    /// Row-level ground truth (mixed traffic only): which rows carry an
    /// injected error.
    pub dirty_rows: Option<Vec<bool>>,
    /// Table 1 cell index (0 for mixed traffic).
    pub cell: usize,
    /// Encoded payloads, indexed by [`CSV`] and [`NDJSON`].
    pub payloads: [Vec<u8>; 2],
}

/// Payload encoding index into [`Frame::payloads`].
pub const CSV: usize = 0;
pub const NDJSON: usize = 1;

pub fn wire_format(format: usize) -> WireFormat {
    if format == CSV {
        WireFormat::Csv
    } else {
        WireFormat::Ndjson
    }
}

/// Everything the load generator and the checks need.
pub struct FrameSet {
    pub frames: Vec<Frame>,
    /// Cell labels (Table 1) or a single `mixed` label.
    pub cells: Vec<String>,
    /// Seeded send order over frame indices; cycled.
    pub order: Vec<usize>,
}

impl FrameSet {
    /// `(frame, format)` of the `k`-th frame sent.
    pub fn pick(&self, k: usize, wire: Wire) -> (usize, usize) {
        let frame = self.order[k % self.order.len()];
        let format = match wire {
            Wire::RawCsv => CSV,
            Wire::HttpAlternating => k % 2,
        };
        (frame, format)
    }

    /// Every `(frame, format)` pair the generator can send, sorted: `pick`
    /// repeats after `2 × frames` sends. Every frame appears at least once.
    pub fn payloads(&self, wire: Wire) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = (0..2 * self.order.len())
            .map(|k| self.pick(k, wire))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

pub fn build(w: &Workload, seed: u64) -> FrameSet {
    let pool = w
        .dataset
        .generate_clean(w.pool_rows, seed.wrapping_add(1_000));
    let mut rng = dquag_datagen::rng(seed.wrapping_add(2_000));
    let (mut frames, cells) = match w.source {
        FrameSource::MixedTraffic { dirty_share } => {
            let (dirty, report) = dirty_copy(w, &pool, &all_errors(w), &mut rng);
            let affected: HashSet<usize> = report.affected_rows.into_iter().collect();
            let frames = (0..w.distinct_frames)
                .map(|d| {
                    // Evenly spaced so the dirty share is exact, not sampled.
                    let from_dirty =
                        (d as f64 * dirty_share).floor() != ((d + 1) as f64 * dirty_share).floor();
                    let rows: Vec<usize> = (0..w.frame_rows)
                        .map(|_| rng.gen_range(0..pool.n_rows()))
                        .collect();
                    let source = if from_dirty { &dirty } else { &pool };
                    let df = source
                        .select_rows(&rows)
                        .expect("sampled rows are in range");
                    let dirty_rows: Vec<bool> = rows
                        .iter()
                        .map(|r| from_dirty && affected.contains(r))
                        .collect();
                    let mut frame = encoded(df, dirty_rows.contains(&true), 0);
                    frame.dirty_rows = Some(dirty_rows);
                    frame
                })
                .collect();
            (frames, vec!["mixed".to_string()])
        }
        FrameSource::Table1 { per_class } => {
            let mut frames = Vec::new();
            let mut cells = Vec::new();
            for (cell, error) in all_errors(w).into_iter().enumerate() {
                cells.push(error.label().to_string());
                let (dirty, _) = dirty_copy(w, &pool, &[error], &mut rng);
                let protocol = BatchProtocol::fixed_size(per_class, per_class, w.frame_rows);
                for batch in make_test_batches(&pool, &dirty, protocol, &mut rng) {
                    frames.push(encoded(batch.data, batch.is_dirty, cell));
                }
            }
            (frames, cells)
        }
    };
    frames.shrink_to_fit();
    let mut order: Vec<usize> = (0..frames.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    FrameSet {
        frames,
        cells,
        order,
    }
}

/// One error kind of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
enum Injected {
    Ordinary(OrdinaryError),
    Hidden(dquag_datagen::HiddenError),
}

impl Injected {
    fn label(&self) -> &'static str {
        match self {
            Injected::Ordinary(e) => e.label(),
            Injected::Hidden(e) => e.label(),
        }
    }
}

/// N, S, M and every hidden conflict the paper defines for the dataset.
fn all_errors(w: &Workload) -> Vec<Injected> {
    let mut errors: Vec<Injected> = [
        OrdinaryError::NumericAnomalies,
        OrdinaryError::StringTypos,
        OrdinaryError::MissingValues,
    ]
    .into_iter()
    .map(Injected::Ordinary)
    .collect();
    errors.extend(w.dataset.hidden_errors().into_iter().map(Injected::Hidden));
    errors
}

/// A copy of `pool` with each error injected at the paper's 20% rate.
fn dirty_copy(
    w: &Workload,
    pool: &DataFrame,
    errors: &[Injected],
    rng: &mut rand::rngs::StdRng,
) -> (DataFrame, InjectionReport) {
    let mut dirty = pool.clone();
    let mut report = InjectionReport::default();
    let columns = w.dataset.default_ordinary_error_columns();
    for error in errors {
        report.merge(match error {
            Injected::Ordinary(e) => {
                inject_ordinary(&mut dirty, *e, &columns, PAPER_ERROR_RATE, rng)
            }
            Injected::Hidden(e) => inject_hidden(&mut dirty, *e, PAPER_ERROR_RATE, rng),
        });
    }
    (dirty, report)
}

fn encoded(df: DataFrame, truth_dirty: bool, cell: usize) -> Frame {
    let payloads = [
        csv::to_csv_string(&df).into_bytes(),
        to_ndjson(&df).into_bytes(),
    ];
    Frame {
        df,
        truth_dirty,
        dirty_rows: None,
        cell,
        payloads,
    }
}

/// One JSON object per row, keyed by column name.
fn to_ndjson(df: &DataFrame) -> String {
    let names: Vec<&str> = df
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    let mut out = String::new();
    for row in df.iter_rows() {
        out.push('{');
        for (c, value) in row.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            json_string(&mut out, names[c]);
            out.push(':');
            match value {
                Value::Null => out.push_str("null"),
                Value::Number(x) => write!(out, "{x}").expect("writing to a String"),
                Value::Text(t) => json_string(&mut out, t),
            }
        }
        out.push_str("}\n");
    }
    out
}

fn json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The bytes one send puts on the socket: framing plus payload.
pub fn wire_bytes(wire: Wire, format: usize, payload: &[u8]) -> Vec<u8> {
    let head = match wire {
        Wire::RawCsv => format!("BATCH csv {}\n", payload.len()),
        Wire::HttpAlternating => {
            let content_type = if format == CSV {
                "text/csv"
            } else {
                "application/x-ndjson"
            };
            format!(
                "POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                payload.len()
            )
        }
    };
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}
