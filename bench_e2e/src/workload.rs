//! The six workloads and how each one's engine is set up.

use crate::clock::now_ns;
use pop::{Catalog, CostModel, IndexKind, PopConfig, PopExecutor, QuerySpec};
use pop_storage::{StorageConfig, StorageKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Tpch,
    Dmv,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Tpch => "tpch",
            Dataset::Dmv => "dmv",
        }
    }

    /// The largest table, and the index the storage probe builds on it.
    pub fn largest_table(self) -> (&'static str, &'static str, IndexKind) {
        match self {
            Dataset::Tpch => ("lineitem", "l_shipdate", IndexKind::Sorted),
            Dataset::Dmv => ("violation", "car_id", IndexKind::Hash),
        }
    }
}

/// One workload: a dataset, a storage backend and an engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// `Some(pool bytes)` runs on the paged backend.
    pub pool_bytes: Option<u64>,
    pub threads: usize,
    /// `false` is `PopConfig::without_pop()`.
    pub pop: bool,
}

pub const PAGE_SIZE: usize = 4096;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tpch.mem",
        dataset: Dataset::Tpch,
        pool_bytes: None,
        threads: 1,
        pop: true,
    },
    Workload {
        name: "tpch.paged",
        dataset: Dataset::Tpch,
        pool_bytes: Some(384 << 10),
        threads: 1,
        pop: true,
    },
    Workload {
        name: "tpch.par",
        dataset: Dataset::Tpch,
        pool_bytes: None,
        threads: 2,
        pop: true,
    },
    Workload {
        name: "dmv.pop",
        dataset: Dataset::Dmv,
        pool_bytes: None,
        threads: 1,
        pop: true,
    },
    Workload {
        name: "dmv.static",
        dataset: Dataset::Dmv,
        pool_bytes: None,
        threads: 1,
        pop: false,
    },
    Workload {
        name: "dmv.paged",
        dataset: Dataset::Dmv,
        pool_bytes: Some(512 << 10),
        threads: 1,
        pop: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the command line fixes for a run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub smoke: bool,
    /// How long the timed passes run.
    pub seconds: f64,
}

impl Options {
    /// TPC-H scale factor / DMV scale. Sized so that a pass takes well
    /// under two seconds and a full run fits the driver's time cap.
    pub fn scale(&self, dataset: Dataset) -> f64 {
        match (dataset, self.smoke) {
            (Dataset::Tpch, false) => 0.02,
            (Dataset::Tpch, true) => 0.005,
            (Dataset::Dmv, false) => 0.004,
            (Dataset::Dmv, true) => 0.002,
        }
    }

    /// Timed passes never number fewer than this, whatever `seconds` says.
    pub fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Full set-ups per run; `setup_s` is their median. Five, because the
    /// first one in a process runs on a cold heap and any one can catch a
    /// slow spell.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// `<dataset>-<scale>-seed<n>`: what two runs must share for their
    /// results to be comparable.
    pub fn data_key(&self, dataset: Dataset) -> String {
        format!(
            "{}-{}-seed{}",
            dataset.name(),
            self.scale(dataset),
            self.seed
        )
    }
}

/// The benchmark's own directory; everything it writes goes under `out/`.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Page files of one paged catalog, removed when the guard is dropped.
#[derive(Debug)]
pub struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up engine, ready for its first query.
#[derive(Debug)]
pub struct Engine {
    // Dropped before `_dir`, so page files are closed before removal.
    pub exec: PopExecutor,
    pub queries: Vec<(String, QuerySpec)>,
    /// `(start, end)` of `generate` (build rows, bulk-load, index).
    pub generate_ns: (u64, u64),
    /// `(start, end)` of `PopExecutor::new` (ANALYZE of every table).
    pub new_ns: (u64, u64),
    _dir: Option<DataDir>,
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Storage configuration for a pool of `pool_bytes` (`None` is the
/// in-memory backend); a paged one gets a fresh directory under
/// `out/data/`, which must outlive every catalog built on it.
pub fn storage(pool_bytes: Option<u64>) -> (StorageConfig, Option<DataDir>) {
    let Some(pool_bytes) = pool_bytes else {
        return (StorageConfig::default(), None);
    };
    let dir = out_dir().join("data").join(format!(
        "{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let config = StorageConfig {
        kind: StorageKind::Paged,
        page_size: PAGE_SIZE,
        buffer_pool_bytes: pool_bytes,
        wal: true,
        dir: Some(dir.clone()),
    };
    (config, Some(DataDir(dir)))
}

/// Generate, bulk-load, index and analyze: everything up to the point
/// where the first query can run.
pub fn setup(w: &Workload, opts: &Options) -> Engine {
    let (storage, dir) = storage(w.pool_bytes);
    let mut config = if w.pop {
        PopConfig::default()
    } else {
        PopConfig::without_pop()
    };
    config.optimizer.threads = w.threads;
    if w.pool_bytes.is_some() {
        config.cost_model = CostModel::paged();
    }
    config.storage = storage.clone();

    let catalog = Catalog::with_storage(storage);
    let scale = opts.scale(w.dataset);
    let start = now_ns();
    let queries = match w.dataset {
        Dataset::Tpch => {
            pop_tpch::TpchGen {
                sf: scale,
                seed: 42 + opts.seed,
            }
            .generate(&catalog)
            .expect("generate TPC-H");
            pop_tpch::extended_queries()
                .into_iter()
                .map(|(name, spec)| (name.to_string(), spec))
                .collect()
        }
        Dataset::Dmv => {
            pop_dmv::DmvGen {
                scale,
                seed: 7 + opts.seed,
            }
            .generate(&catalog)
            .expect("generate DMV");
            pop_dmv::dmv_queries()
                .into_iter()
                .map(|q| (q.name, q.spec))
                .collect()
        }
    };
    let generated = now_ns();
    let exec = PopExecutor::new(catalog, config).expect("analyze");
    Engine {
        exec,
        queries,
        generate_ns: (start, generated),
        new_ns: (generated, now_ns()),
        _dir: dir,
    }
}
