//! The cost model: its coefficients, and one function per charged unit.
//!
//! Costs are abstract **work units** (one unit ≈ one sequentially processed
//! row). This module is the only code outside tests that reads a
//! coefficient. The optimizer evaluates the unit functions at estimated
//! counts; every operator charges the same functions at the counts it
//! observes, per chunk, batch, outer row or build. So *work charged = the
//! unit functions at the observed counts* (`crates/exec/tests/
//! cost_identity.rs`), and the nodes CHECK placement inserts are estimated
//! at that charge (`tests/cost_identity.rs`). Estimate and work differ only
//! where the counts do, and by three **runtime-only terms**, left out of
//! estimates because they would move join choice or the
//! `check_cost_threshold` test:
//!
//! * the random page transitions of NLJN and semi-probe fetches (the third
//!   count of [`CostModel::index_access`]; an index range scan estimates
//!   its pages by Cardenas' formula);
//! * [`CostModel::output`]: handing result rows to the application;
//! * [`CostModel::insert`] and [`CostModel::anti_join`]: an INSERT's
//!   writes, and the compensation anti-join the driver adds at
//!   re-optimization, after planning.
//!
//! Two properties of real cost functions that the paper leans on are
//! reproduced deliberately: they are **not smooth** (hash-join and sort
//! costs step when the input exceeds the memory budget — "a two-stage hash
//! join becomes a three-stage hash join", §2.2 — hence the guarded
//! Newton-Raphson of the validity ranges), and join methods **cross over**
//! (NLJN steep and linear in the outer, HSJN shallow plus a constant, MGJN
//! `n log n`), producing the plan-switch points CHECK ranges guard.

/// Cost-model coefficients (work units per row unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Sequential scan + predicate evaluation, per row.
    pub seq_row: f64,
    /// Inserting a row into a hash table (join build / aggregation).
    pub hash_build_row: f64,
    /// Probing a hash table, per probe row.
    pub hash_probe_row: f64,
    /// Index descent, per probe. Random access is dear against a
    /// sequential read (disk-era ratio): what makes a misestimated NLJN
    /// outer catastrophic and an accurate small one cheap.
    pub index_probe: f64,
    /// Random fetch of one row through an index.
    pub index_fetch_row: f64,
    /// Sort cost per row per `log2(n)`.
    pub sort_row_log: f64,
    /// Writing a row to a TEMP. Cheap: temps stay in memory — the paper
    /// keeps "a pointer to the actual runtime object" rather than writing
    /// intermediate results to disk (§2.3).
    pub temp_write_row: f64,
    /// Reading a row back from a TEMP / MV.
    pub temp_read_row: f64,
    /// Merge step of MGJN, per input row.
    pub merge_row: f64,
    /// Aggregation per input row.
    pub agg_row: f64,
    /// Emitting a result row.
    pub output_row: f64,
    /// CHECK operator per-row overhead (counting).
    pub check_row: f64,
    /// Memory budget in rows for hash builds and sorts; exceeding it
    /// triggers extra spill passes.
    pub mem_rows: f64,
    /// Spill partition fan-out for spilled hash joins / external sorts.
    pub spill_fanout: f64,
    /// Extra cost per row per additional spill pass (write + re-read).
    pub spill_row: f64,
    /// Planning-only robustness penalty (§7 "Checking Opportunities"):
    /// inflates NLJN and HSJN, which offer few re-optimization
    /// opportunities, by this fraction, steering volatile workloads toward
    /// merge joins, whose sorts are materialization points. Never charged.
    pub robustness_penalty: f64,
    /// Reading one data page sequentially: 0 in the flat model, > 0 in
    /// [`CostModel::paged`], where access paths are chosen by the pages
    /// they touch too.
    pub page_io: f64,
    /// How much more a random page read costs than a sequential one
    /// (buffer-pool misses on scattered index fetches).
    pub seq_vs_random: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seq_row: 1.0,
            hash_build_row: 2.0,
            hash_probe_row: 1.0,
            index_probe: 6.0,
            index_fetch_row: 25.0,
            sort_row_log: 0.3,
            temp_write_row: 0.5,
            temp_read_row: 0.2,
            merge_row: 1.0,
            agg_row: 1.5,
            output_row: 0.1,
            check_row: 0.02,
            mem_rows: 10_000.0,
            spill_fanout: 8.0,
            spill_row: 3.0,
            robustness_penalty: 0.0,
            page_io: 0.0,
            seq_vs_random: 8.0,
        }
    }
}

/// Unit functions linear in a row count: `rows × coefficient`.
macro_rules! per_row {
    ($($(#[$doc:meta])* $name:ident => $coef:ident;)*) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&self, rows: f64) -> f64 {
            rows * self.$coef
        }
    )*};
}

impl CostModel {
    /// The page-aware model of the paged backend: the row coefficients
    /// plus a per-page I/O charge. Both backends report the same page
    /// counts, so a model chooses the same plans on either.
    pub fn paged() -> Self {
        CostModel {
            page_io: 4.0,
            ..CostModel::default()
        }
    }

    /// Expected distinct pages touched by `rows` random fetches from a
    /// table of `pages` pages (Cardenas' formula); 0 without pages.
    pub fn touched_pages(rows: f64, pages: f64) -> f64 {
        if pages < 1.0 || rows <= 0.0 {
            return 0.0;
        }
        pages * (1.0 - (1.0 - 1.0 / pages).powf(rows))
    }

    /// *Extra* passes a hash build / sort of `rows` rows needs: 0 when it
    /// fits, stepping up at `mem_rows`, `mem_rows * fanout`, ...
    pub fn spill_passes(&self, rows: f64) -> f64 {
        if rows <= self.mem_rows || rows <= 0.0 {
            return 0.0;
        }
        let ratio = rows / self.mem_rows;
        1.0 + (ratio.ln() / self.spill_fanout.ln()).floor().max(0.0)
    }

    per_row! {
        /// Spill I/O over `rows` × extra passes.
        spill_rows => spill_row;
        /// Inserting `rows` rows into a join's hash table.
        hash_build => hash_build_row;
        /// MGJN's merge step over `rows` input rows.
        merge => merge_row;
        /// Writing `rows` rows to a TEMP buffer.
        temp_write => temp_write_row;
        /// Reading `rows` rows back from a TEMP buffer.
        temp_read => temp_read_row;
        /// Aggregation of `rows` input rows.
        agg_cost => agg_row;
        /// RIDSINK: recording the lineage of `rows` returned rows.
        rid_sink => check_row;
        /// INSERT of `rows` rows (runtime-only).
        insert => temp_write_row;
        /// The compensation anti-join over `rows` rows (runtime-only).
        anti_join => hash_probe_row;
        /// Handing `rows` result rows to the application (runtime-only).
        output => output_row;
    }

    /// Sequential scan of `rows` rows over `pages` pages.
    #[inline]
    pub fn scan_cost(&self, rows: f64, pages: f64) -> f64 {
        rows * self.seq_row + pages.max(0.0) * self.page_io
    }

    /// Reading `rows` rows of a materialized view over `pages` pages.
    #[inline]
    pub fn mv_scan_cost(&self, rows: f64, pages: f64) -> f64 {
        rows * self.temp_read_row + pages.max(0.0) * self.page_io
    }

    /// `probes` index descents, `rows` random fetches and `random_pages`
    /// random page reads: NLJN per outer row, the semi probe per input
    /// row, the index range scan once and per chunk (estimated by
    /// [`CostModel::touched_pages`]: wide ranges go to the scan).
    #[inline]
    pub fn index_access(&self, probes: f64, rows: f64, random_pages: f64) -> f64 {
        probes * self.index_probe
            + rows * self.index_fetch_row
            + random_pages * self.page_io * self.seq_vs_random
    }

    /// The NLJN / semi-probe estimate: `outer` lookups fetching
    /// `matches_per_probe` rows each (random pages are runtime-only).
    pub fn index_lookups(&self, outer: f64, matches_per_probe: f64) -> f64 {
        outer * self.index_access(1.0, matches_per_probe, 0.0)
    }

    /// The spill step of a completed `rows`-row hash build.
    pub fn hash_build_spill(&self, rows: f64) -> f64 {
        self.spill_rows(self.spill_passes(rows) * rows)
    }

    /// `rows` probes, each re-read in the build's `spill_passes`.
    #[inline]
    pub fn hash_probe(&self, rows: f64, spill_passes: f64) -> f64 {
        rows * (self.hash_probe_row + self.spill_rows(spill_passes))
    }

    /// Sort of `rows` rows (including spill penalty).
    pub fn sort_cost(&self, rows: f64) -> f64 {
        let r = rows.max(1.0);
        r * r.log2().max(1.0) * self.sort_row_log + self.spill_rows(self.spill_passes(rows) * rows)
    }

    /// TEMP materialization: every row written, then read back once.
    pub fn temp_cost(&self, rows: f64) -> f64 {
        self.temp_write(rows) + self.temp_read(rows)
    }

    /// A CHECK over `rows` rows: per row when it streams, once when it is
    /// decided on a `materialized` count.
    #[inline]
    pub fn check_cost(&self, rows: f64, materialized: bool) -> f64 {
        if materialized {
            self.check_row
        } else {
            rows * self.check_row
        }
    }

    /// `rows` rows counted into a BUFCHECK's valve: the CHECK's count plus
    /// half a TEMP write each.
    #[inline]
    pub fn bufcheck_rows(&self, rows: f64) -> f64 {
        rows * (self.check_row + self.temp_write_row * 0.5)
    }

    /// A BUFCHECK over `rows` rows: up to `capacity` buffered, the rest
    /// streamed.
    pub fn bufcheck_cost(&self, rows: f64, capacity: f64) -> f64 {
        let buffered = rows.min(capacity);
        self.bufcheck_rows(buffered) + self.check_cost((rows - buffered).max(0.0), false)
    }

    /// `cost` with the planning-only robustness penalty (§7), which the
    /// runtime never charges.
    pub fn robust(&self, cost: f64) -> f64 {
        cost * (1.0 + self.robustness_penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An index range scan's estimate.
    fn ixscan(m: &CostModel, rows: f64, pages: f64) -> f64 {
        m.index_access(1.0, rows, CostModel::touched_pages(rows, pages))
    }

    #[test]
    fn spill_steps() {
        let m = CostModel::default();
        assert_eq!(m.spill_passes(100.0), 0.0);
        assert_eq!(m.spill_passes(10_000.0), 0.0);
        assert_eq!(m.spill_passes(10_001.0), 1.0);
        assert_eq!(m.spill_passes(79_999.0), 1.0);
        assert_eq!(m.spill_passes(81_000.0), 2.0);
        assert_eq!(m.spill_passes(0.0), 0.0);
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        let m = CostModel::default();
        assert!(m.sort_cost(2000.0) > 2.0 * m.sort_cost(1000.0));
        assert!(m.sort_cost(0.0) >= 0.0);
    }

    #[test]
    fn temp_cost_covers_write_and_read() {
        let m = CostModel::default();
        assert_eq!(
            m.temp_cost(100.0),
            100.0 * (m.temp_write_row + m.temp_read_row)
        );
    }

    #[test]
    fn flat_model_ignores_pages() {
        let m = CostModel::default();
        assert_eq!(m.scan_cost(1000.0, 50.0), m.scan_cost(1000.0, 0.0));
        assert_eq!(ixscan(&m, 30.0, 50.0), ixscan(&m, 30.0, 0.0));
    }

    #[test]
    fn paged_model_charges_pages() {
        let m = CostModel::paged();
        assert!(m.scan_cost(1000.0, 50.0) > m.scan_cost(1000.0, 0.0));
        // Random fetches cost more per page than sequential reads.
        let seq_per_page = m.page_io;
        let rand_30 = ixscan(&m, 30.0, 1000.0) - ixscan(&m, 30.0, 0.0);
        assert!(
            rand_30 > 25.0 * seq_per_page,
            "30 scattered rows ≈ 30 random pages"
        );
    }

    #[test]
    fn touched_pages_saturates() {
        assert_eq!(CostModel::touched_pages(10.0, 0.0), 0.0);
        assert!((CostModel::touched_pages(1.0, 100.0) - 1.0).abs() < 1e-9);
        let t = CostModel::touched_pages(1_000_000.0, 100.0);
        assert!(t <= 100.0 && t > 99.9);
    }

    #[test]
    fn guards_cost_per_row_or_once() {
        let m = CostModel::default();
        assert_eq!(m.check_cost(1000.0, true), m.check_row);
        assert_eq!(m.check_cost(1000.0, false), 1000.0 * m.check_row);
        // A valve of 100 buffers 100 rows; the other 900 stream.
        let want = m.bufcheck_rows(100.0) + m.check_cost(900.0, false);
        assert_eq!(m.bufcheck_cost(1000.0, 100.0), want);
        assert_eq!(m.bufcheck_cost(50.0, 100.0), m.bufcheck_rows(50.0));
    }

    #[test]
    fn hash_spill_step_is_charged_once_the_build_overflows() {
        let m = CostModel::default();
        assert_eq!(m.hash_build_spill(10_000.0), 0.0);
        assert_eq!(m.hash_build_spill(12_000.0), 12_000.0 * m.spill_row);
        assert_eq!(
            m.hash_probe(10.0, 1.0),
            10.0 * (m.hash_probe_row + m.spill_row)
        );
    }

    /// What a hash join charges: the build, its spill step, and the probe
    /// rows at the build's spill passes.
    fn hsjn(m: &CostModel, build: f64, probe: f64) -> f64 {
        m.hash_build(build) + m.hash_build_spill(build) + m.hash_probe(probe, m.spill_passes(build))
    }

    #[test]
    fn hash_join_cost_is_discontinuous_at_mem_budget() {
        let m = CostModel::default();
        let (below, above) = (hsjn(&m, 10_000.0, 1000.0), hsjn(&m, 10_100.0, 1000.0));
        assert!(
            above - below > 10_000.0,
            "expected a spill step, got {below} -> {above}"
        );
    }

    #[test]
    fn nljn_cheaper_than_hsjn_for_small_outer() {
        let m = CostModel::default();
        let (n, h) = (m.index_lookups(100.0, 1.0), hsjn(&m, 100.0, 15_000.0));
        assert!(n < h, "NLJN {n} should beat HSJN {h} at outer=100");
        let (n, h) = (m.index_lookups(50_000.0, 1.0), hsjn(&m, 50_000.0, 15_000.0));
        assert!(h < n, "HSJN {h} should beat NLJN {n} at outer=50k");
    }

    #[test]
    fn mgjn_includes_enforcer_sorts() {
        let m = CostModel::default();
        let merge = m.merge(2000.0);
        let sorted = merge + m.sort_cost(1000.0) + m.sort_cost(1000.0);
        assert!(sorted > merge + 2.0 * m.sort_cost(1000.0) - 1e-9);
        assert!(m.sort_cost(1000.0) > m.merge(1000.0));
    }

    #[test]
    fn leaf_and_mv_costs() {
        let m = CostModel::default();
        assert_eq!(m.scan_cost(500.0, 5.0), 500.0);
        assert!(
            m.mv_scan_cost(500.0, 5.0) < 500.0,
            "MV scan should be cheaper than base scan"
        );
    }
}
