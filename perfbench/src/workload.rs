//! The three named workloads. Each one exists to stress a different set of
//! layers; see `perfbench/README.md` for the reasoning and predictions.

use dquag_datagen::DatasetKind;

/// How frames travel over the loopback socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `BATCH csv <len>\n<payload>` on the raw line protocol.
    RawCsv,
    /// HTTP/1.1 keep-alive `POST /ingest`, CSV and NDJSON bodies alternating.
    HttpAlternating,
}

/// Where the frames' rows come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameSource {
    /// Random rows of a clean pool; a fixed share of frames is drawn from a
    /// dirty copy carrying every ordinary error type plus the dataset's
    /// hidden conflicts, each at the paper's 20% rate.
    MixedTraffic {
        /// Share of frames drawn from the dirty copy.
        dirty_share: f64,
    },
    /// The paper's Table 1 protocol: for each error cell (N, S, M and each
    /// hidden conflict) `per_class` clean and `per_class` dirty batches.
    Table1 {
        /// Clean (and dirty) batches per cell.
        per_class: usize,
    },
}

/// One workload: traffic shape, model fit and serving configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetKind,
    /// Rows per frame.
    pub frame_rows: usize,
    pub wire: Wire,
    /// Engine replicas (worker threads judging frames).
    pub replicas: usize,
    pub source: FrameSource,
    /// Distinct frames generated; the load generator cycles through them
    /// in a seeded order. Under `Table1` this is derived from the protocol.
    pub distinct_frames: usize,
    /// Rows of the clean pool frames are sampled from.
    pub pool_rows: usize,
    /// Clean rows and epochs of the fit done at set-up.
    pub train_rows: usize,
    pub epochs: usize,
    /// Offered rate of the open-loop segments, frames per second: a third
    /// to two fifths of the workload's saturation throughput on the one CPU
    /// the benchmark runs on, so that a slow spell of the shared host does
    /// not push the server into saturation and the generator off its
    /// schedule.
    pub open_rate: f64,
    /// Connections, each driven by its own load-generator thread, and the
    /// listener's poll workers. At most the machine's 2 cores.
    pub connections: usize,
    /// Outstanding frames per connection in the saturation segments.
    pub window: usize,
}

/// Paper hyper-parameters used by every fit: hidden width 64, four GNN
/// layers, mini-batches of 128.
pub const HIDDEN: usize = 64;
pub const LAYERS: usize = 4;
pub const TRAIN_BATCH: usize = 128;

/// Set-ups per run, before and after serving; `setup_s` is their median.
pub const SETUPS: (usize, usize) = (3, 2);

/// Open-loop verdicts per run at least: enough for ten samples beyond p99.
pub const MIN_OPEN_VERDICTS: usize = 1000;

/// Cycles of an open-loop, a closed-loop and a saturation segment per
/// run. Each cycle is one window of the end-to-end latency and throughput
/// figures.
pub const CYCLES: usize = 10;

/// Closed-loop verdicts per cycle at least, so each cycle's p50 rests on
/// a hundred samples or more.
pub const MIN_CYCLE_VERDICTS: usize = 100;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "stream_rows",
            dataset: DatasetKind::HotelBooking,
            frame_rows: 1,
            wire: Wire::RawCsv,
            replicas: 1,
            source: FrameSource::MixedTraffic { dirty_share: 0.2 },
            distinct_frames: 8192,
            pool_rows: 8000,
            train_rows: 4000,
            epochs: 2,
            open_rate: 3000.0,
            connections: 2,
            window: 16,
        },
        Workload {
            name: "stream_bulk",
            dataset: DatasetKind::NyTaxi,
            frame_rows: 64,
            wire: Wire::HttpAlternating,
            replicas: 2,
            source: FrameSource::MixedTraffic { dirty_share: 0.2 },
            distinct_frames: 256,
            pool_rows: 8000,
            train_rows: 4000,
            epochs: 2,
            open_rate: 100.0,
            connections: 2,
            window: 4,
        },
        Workload {
            name: "fit_detect",
            dataset: DatasetKind::CreditCard,
            frame_rows: 64,
            wire: Wire::RawCsv,
            replicas: 1,
            source: FrameSource::Table1 { per_class: 30 },
            distinct_frames: 0,
            pool_rows: 4000,
            train_rows: 6000,
            epochs: 3,
            open_rate: 120.0,
            connections: 1,
            window: 4,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The tiny variant the smoke test runs: same shape, a fraction of the
    /// data, one set-up.
    pub fn smoke(mut self) -> Self {
        self.distinct_frames = self.distinct_frames.min(64);
        self.pool_rows = self.pool_rows.min(800);
        self.train_rows = self.train_rows.min(300);
        self.epochs = 1;
        if let FrameSource::Table1 { per_class } = &mut self.source {
            *per_class = (*per_class).min(3);
        }
        self
    }
}
