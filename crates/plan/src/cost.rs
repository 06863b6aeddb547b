//! Cost-model coefficients, shared by the optimizer (estimation) and the
//! execution engine (work accounting).
//!
//! Costs are expressed in abstract **work units** (one unit ≈ one
//! sequentially processed row). The runtime charges the same coefficients
//! for the work it actually performs, so estimated cost and measured work
//! are directly comparable — the experiments report both.
//!
//! Two properties of real optimizer cost functions that the paper leans on
//! are reproduced deliberately:
//!
//! * cost functions are **not smooth**: the hash-join and sort costs step
//!   when the build/sort input exceeds the memory budget (the paper's
//!   "two-stage hash join becomes a three-stage hash join", §2.2), which
//!   is why validity-range computation uses a guarded Newton-Raphson
//!   rather than closed-form roots or plain binary search;
//! * join method crossovers: NLJN's cost is linear in the outer
//!   cardinality with a steep slope, HSJN's is linear with a shallow slope
//!   plus a constant, MGJN's is dominated by `n log n` sorts — producing
//!   the plan-switch points the CHECK validity ranges guard.

/// Cost-model coefficients (work units per row unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Sequential scan + predicate evaluation, per row.
    pub seq_row: f64,
    /// Inserting a row into a hash table (join build / aggregation).
    pub hash_build_row: f64,
    /// Probing a hash table, per probe row.
    pub hash_probe_row: f64,
    /// Index lookup overhead per outer row (NLJN). Random accesses are
    /// expensive relative to sequential reads (disk-era ratio, scaled
    /// down) — this asymmetry is what makes a misestimated NLJN outer
    /// catastrophic and an accurate small one cheap.
    pub index_probe: f64,
    /// Random fetch of one matching inner row (NLJN).
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
    /// when > 0, the optimizer inflates the cost of join methods that
    /// offer *few* re-optimization opportunities (NLJN and the hash-join
    /// probe pipeline) by this fraction, steering volatile workloads
    /// toward merge-join plans whose sorts are natural materialization
    /// points. The runtime never charges this penalty — it only biases
    /// plan choice.
    pub robustness_penalty: f64,
    /// Cost of reading one data page sequentially. 0 under the flat
    /// (mem-backend) model — row costs already cover everything; the
    /// paged model ([`CostModel::paged`]) sets it > 0 so access-path
    /// choice reacts to how many pages a path touches, not just how many
    /// rows it returns.
    pub page_io: f64,
    /// How much more a random page read costs than a sequential one
    /// (buffer-pool miss amplification on scattered index fetches).
    /// Multiplies `page_io` in [`CostModel::index_range_scan_cost`].
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

impl CostModel {
    /// The page-aware model used with the paged storage backend: same
    /// row coefficients, plus a per-page I/O charge. Both backends report
    /// identical page counts (shared packing rule), so plans chosen under
    /// this model are identical across backends too — the flat default
    /// merely ignores the page terms.
    pub fn paged() -> Self {
        CostModel {
            page_io: 4.0,
            ..CostModel::default()
        }
    }

    /// Expected distinct pages touched when fetching `rows` random rows
    /// from a table of `pages` pages (Cardenas' formula). Saturates at
    /// `pages`; 0 when the table has no pages.
    pub fn touched_pages(rows: f64, pages: f64) -> f64 {
        if pages < 1.0 || rows <= 0.0 {
            return 0.0;
        }
        pages * (1.0 - (1.0 - 1.0 / pages).powf(rows))
    }
    /// Number of *extra* passes a hash build / sort of `rows` rows needs
    /// beyond the in-memory case. 0 when the input fits; steps up at
    /// `mem_rows`, `mem_rows * fanout`, `mem_rows * fanout²`, ...
    pub fn spill_passes(&self, rows: f64) -> f64 {
        if rows <= self.mem_rows || rows <= 0.0 {
            return 0.0;
        }
        let ratio = rows / self.mem_rows;
        1.0 + (ratio.ln() / self.spill_fanout.ln()).floor().max(0.0)
    }

    /// Full table scan with predicate evaluation: every row, every page
    /// (sequential).
    pub fn scan_cost(&self, base_rows: f64, base_pages: f64) -> f64 {
        base_rows * self.seq_row + base_pages.max(0.0) * self.page_io
    }

    /// Reading a materialized view of `rows` rows over `pages` pages.
    pub fn mv_scan_cost(&self, rows: f64, pages: f64) -> f64 {
        rows * self.temp_read_row + pages.max(0.0) * self.page_io
    }

    /// Index range scan fetching `matching_rows` rows from a table of
    /// `table_pages` pages through a sorted index: one descent, a random
    /// fetch per match, and a *random* page read per distinct page the
    /// matches land on (Cardenas). This is the term that makes a low-
    /// selectivity range predicate prefer the index and a wide one prefer
    /// the sequential scan once `page_io > 0`.
    pub fn index_range_scan_cost(&self, matching_rows: f64, table_pages: f64) -> f64 {
        self.index_probe
            + matching_rows.max(0.0) * self.index_fetch_row
            + Self::touched_pages(matching_rows, table_pages) * self.page_io * self.seq_vs_random
    }

    /// Sort of `rows` rows (including spill penalty).
    pub fn sort_cost(&self, rows: f64) -> f64 {
        let r = rows.max(1.0);
        r * r.log2().max(1.0) * self.sort_row_log + self.spill_passes(rows) * rows * self.spill_row
    }

    /// TEMP materialization (write + one read-back).
    pub fn temp_cost(&self, rows: f64) -> f64 {
        rows * (self.temp_write_row + self.temp_read_row)
    }

    /// Aggregation of `rows` input rows.
    pub fn agg_cost(&self, rows: f64) -> f64 {
        rows * self.agg_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            m.index_range_scan_cost(30.0, 50.0),
            m.index_range_scan_cost(30.0, 0.0)
        );
    }

    #[test]
    fn paged_model_charges_pages() {
        let m = CostModel::paged();
        assert!(m.scan_cost(1000.0, 50.0) > m.scan_cost(1000.0, 0.0));
        // Random fetches cost more per page than sequential reads.
        let seq_per_page = m.page_io;
        let rand_30 = m.index_range_scan_cost(30.0, 1000.0) - m.index_range_scan_cost(30.0, 0.0);
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
}
