//! Deterministic TPC-H-like data generation.

use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, PopResult, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Days covered by the date columns (7 years, like TPC-H's 1992–1998).
pub const DATE_RANGE: i32 = 2556;

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const NAME_WORDS: [&str; 10] = [
    "green", "blue", "red", "ivory", "misty", "metallic", "pale", "dark", "light", "spring",
];

/// TPC-H-like generator. Deterministic for a given `(sf, seed)`.
#[derive(Debug, Clone)]
pub struct TpchGen {
    /// Scale factor; `1.0` ≈ classic TPC-H row counts.
    pub sf: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchGen {
    fn default() -> Self {
        TpchGen {
            sf: 0.002,
            seed: 42,
        }
    }
}

impl TpchGen {
    /// Generator at a scale factor with the default seed.
    pub fn new(sf: f64) -> Self {
        TpchGen { sf, seed: 42 }
    }

    fn count(&self, base: f64) -> usize {
        ((base * self.sf).round() as usize).max(1)
    }

    /// Rows per table at this scale factor.
    pub fn sizes(&self) -> TpchSizes {
        TpchSizes {
            supplier: self.count(10_000.0),
            customer: self.count(150_000.0),
            orders: self.count(1_500_000.0),
            lineitem: self.count(6_000_000.0),
            part: self.count(200_000.0),
            partsupp: self.count(800_000.0),
        }
    }

    /// Generate all eight tables plus key indexes into `catalog`. Each
    /// table is written straight into typed columns, a chunk at a time,
    /// each string copied onto its column's buffer.
    pub fn generate(&self, catalog: &Catalog) -> PopResult<()> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sz = self.sizes();

        // REGION
        catalog.generate_table(
            "region",
            Schema::from_pairs(&[("r_regionkey", DataType::Int), ("r_name", DataType::Str)]),
            REGIONS.len(),
            |i, w| {
                w.int(i as i64).fmt(format_args!("{}", REGIONS[i]));
            },
        )?;

        // NATION
        catalog.generate_table(
            "nation",
            Schema::from_pairs(&[
                ("n_nationkey", DataType::Int),
                ("n_name", DataType::Str),
                ("n_regionkey", DataType::Int),
            ]),
            NATIONS.len(),
            |i, w| {
                let (name, region) = NATIONS[i];
                w.int(i as i64).fmt(format_args!("{name}")).int(region);
            },
        )?;

        // SUPPLIER
        catalog.generate_table(
            "supplier",
            Schema::from_pairs(&[
                ("s_suppkey", DataType::Int),
                ("s_name", DataType::Str),
                ("s_nationkey", DataType::Int),
                ("s_acctbal", DataType::Float),
            ]),
            sz.supplier,
            |i, w| {
                w.int(i as i64)
                    .fmt(format_args!("Supplier#{i:09}"))
                    .int(rng.gen_range(0..25))
                    .float(f64::from(rng.gen_range(-99_999..=999_999)) / 100.0);
            },
        )?;

        // CUSTOMER
        catalog.generate_table(
            "customer",
            Schema::from_pairs(&[
                ("c_custkey", DataType::Int),
                ("c_name", DataType::Str),
                ("c_nationkey", DataType::Int),
                ("c_acctbal", DataType::Float),
                ("c_mktsegment", DataType::Str),
            ]),
            sz.customer,
            |i, w| {
                w.int(i as i64)
                    .fmt(format_args!("Customer#{i:09}"))
                    .int(rng.gen_range(0..25))
                    .float(f64::from(rng.gen_range(-99_999..=999_999)) / 100.0)
                    .str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]);
            },
        )?;

        // ORDERS
        let statuses = ["F", "O", "P"];
        catalog.generate_table(
            "orders",
            Schema::from_pairs(&[
                ("o_orderkey", DataType::Int),
                ("o_custkey", DataType::Int),
                ("o_orderstatus", DataType::Str),
                ("o_totalprice", DataType::Float),
                ("o_orderdate", DataType::Date),
                ("o_orderpriority", DataType::Str),
            ]),
            sz.orders,
            |i, w| {
                w.int(i as i64)
                    .int(rng.gen_range(0..sz.customer as i64))
                    .str(statuses[rng.gen_range(0..3usize)])
                    .float(f64::from(rng.gen_range(1_000..=500_000)) / 100.0)
                    .date(rng.gen_range(0..DATE_RANGE))
                    .str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]);
            },
        )?;

        // PART: names, brands and types are drawn from small grids,
        // formatted once per cell of the grid.
        let names: Vec<String> = NAME_WORDS
            .iter()
            .flat_map(|w1| NAME_WORDS.iter().map(move |w2| format!("{w1} {w2} part")))
            .collect();
        let brands: Vec<String> = (1..=5)
            .flat_map(|b1| (1..=5).map(move |b2| format!("Brand#{b1}{b2}")))
            .collect();
        let types: Vec<String> = TYPE_SYLL1
            .iter()
            .flat_map(|s1| TYPE_SYLL2.iter().map(move |s2| (s1, s2)))
            .flat_map(|(s1, s2)| TYPE_SYLL3.iter().map(move |s3| format!("{s1} {s2} {s3}")))
            .collect();
        catalog.generate_table(
            "part",
            Schema::from_pairs(&[
                ("p_partkey", DataType::Int),
                ("p_name", DataType::Str),
                ("p_brand", DataType::Str),
                ("p_type", DataType::Str),
                ("p_size", DataType::Int),
                ("p_retailprice", DataType::Float),
            ]),
            sz.part,
            |i, w| {
                let w1 = rng.gen_range(0..NAME_WORDS.len());
                let w2 = rng.gen_range(0..NAME_WORDS.len());
                let s1 = rng.gen_range(0..TYPE_SYLL1.len());
                let s2 = rng.gen_range(0..TYPE_SYLL2.len());
                let s3 = rng.gen_range(0..TYPE_SYLL3.len());
                w.int(i as i64).str(&names[w1 * NAME_WORDS.len() + w2]);
                let (b1, b2): (i32, i32) = (rng.gen_range(1..=5), rng.gen_range(1..=5));
                w.str(&brands[(b1 as usize - 1) * 5 + b2 as usize - 1])
                    .str(&types[(s1 * TYPE_SYLL2.len() + s2) * TYPE_SYLL3.len() + s3])
                    .int(rng.gen_range(1..=50))
                    .float(f64::from(rng.gen_range(90_000..=200_000)) / 100.0);
            },
        )?;

        // PARTSUPP: each part supplied by 4 suppliers.
        catalog.generate_table(
            "partsupp",
            Schema::from_pairs(&[
                ("ps_partkey", DataType::Int),
                ("ps_suppkey", DataType::Int),
                ("ps_availqty", DataType::Int),
                ("ps_supplycost", DataType::Float),
            ]),
            sz.partsupp,
            |i, w| {
                w.int((i / 4) as i64 % sz.part as i64)
                    .int(rng.gen_range(0..sz.supplier as i64))
                    .int(rng.gen_range(1..=9999))
                    .float(f64::from(rng.gen_range(100..=100_000)) / 100.0);
            },
        )?;

        // LINEITEM: ~4 lines per order.
        let flags = ["R", "A", "N"];
        catalog.generate_table(
            "lineitem",
            Schema::from_pairs(&[
                ("l_orderkey", DataType::Int),
                ("l_partkey", DataType::Int),
                ("l_suppkey", DataType::Int),
                ("l_quantity", DataType::Int),
                ("l_extendedprice", DataType::Float),
                ("l_discount", DataType::Float),
                ("l_returnflag", DataType::Str),
                ("l_shipdate", DataType::Date),
                ("l_commitdate", DataType::Date),
                ("l_receiptdate", DataType::Date),
            ]),
            sz.lineitem,
            |_, w| {
                let ship = rng.gen_range(0..DATE_RANGE);
                let commit = ship + rng.gen_range(-30..60);
                let receipt = ship + rng.gen_range(1..30);
                // The paper notes l_returnflag-style flags are skewed.
                let flag = match rng.gen_range(0..100) {
                    0..=24 => flags[0],
                    25..=49 => flags[1],
                    _ => flags[2],
                };
                w.int(rng.gen_range(0..sz.orders as i64))
                    .int(rng.gen_range(0..sz.part as i64))
                    .int(rng.gen_range(0..sz.supplier as i64))
                    .int(rng.gen_range(1..=50))
                    .float(f64::from(rng.gen_range(90_000..=10_000_000)) / 100.0)
                    .float(f64::from(rng.gen_range(0..=10)) / 100.0)
                    .str(flag)
                    .date(ship)
                    .date(commit)
                    .date(receipt);
            },
        )?;

        // Hash indexes on every key/FK column a join might probe.
        for (table, column) in [
            ("region", "r_regionkey"),
            ("nation", "n_nationkey"),
            ("nation", "n_regionkey"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("customer", "c_custkey"),
            ("customer", "c_nationkey"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("part", "p_partkey"),
            ("partsupp", "ps_partkey"),
            ("partsupp", "ps_suppkey"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_partkey"),
            ("lineitem", "l_suppkey"),
        ] {
            catalog.create_index(table, column, IndexKind::Hash)?;
        }
        // Sorted indexes on range-filtered columns (dates, sizes,
        // quantities) enable index range scans as an access path.
        for (table, column) in [
            ("orders", "o_orderdate"),
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_quantity"),
            ("part", "p_size"),
            ("orders", "o_totalprice"),
        ] {
            catalog.create_index(table, column, IndexKind::Sorted)?;
        }
        Ok(())
    }
}

/// Row counts at a scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchSizes {
    /// SUPPLIER rows.
    pub supplier: usize,
    /// CUSTOMER rows.
    pub customer: usize,
    /// ORDERS rows.
    pub orders: usize,
    /// LINEITEM rows.
    pub lineitem: usize,
    /// PART rows.
    pub part: usize,
    /// PARTSUPP rows.
    pub partsupp: usize,
}

/// Build a fresh catalog holding the TPC-H-like database at scale `sf`.
pub fn tpch_catalog(sf: f64) -> PopResult<Catalog> {
    let catalog = Catalog::new();
    TpchGen::new(sf).generate(&catalog)?;
    Ok(catalog)
}

/// Build the same database over an explicit storage configuration (e.g.
/// the paged backend with a deliberately tiny buffer pool). The load
/// streams through the catalog's chunked bulk loader.
pub fn tpch_catalog_with(sf: f64, storage: pop_storage::StorageConfig) -> PopResult<Catalog> {
    let catalog = Catalog::with_storage(storage);
    TpchGen::new(sf).generate(&catalog)?;
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_linearly() {
        let g = TpchGen::new(0.002);
        let s = g.sizes();
        assert_eq!(s.lineitem, 12_000);
        assert_eq!(s.orders, 3_000);
        assert_eq!(s.customer, 300);
        assert_eq!(s.supplier, 20);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tpch_catalog(0.0005).unwrap();
        let b = tpch_catalog(0.0005).unwrap();
        let ta = a.table("lineitem").unwrap();
        let tb = b.table("lineitem").unwrap();
        assert_eq!(*ta.snapshot(), *tb.snapshot());
    }

    #[test]
    fn all_tables_and_indexes_exist() {
        let cat = tpch_catalog(0.0005).unwrap();
        for t in [
            "region", "nation", "supplier", "customer", "orders", "part", "partsupp", "lineitem",
        ] {
            assert!(cat.table(t).is_ok(), "missing table {t}");
        }
        let orders = cat.table("orders").unwrap();
        assert!(cat.find_index(orders.id(), 0, false).is_some());
        assert_eq!(cat.table("region").unwrap().row_count(), 5);
        assert_eq!(cat.table("nation").unwrap().row_count(), 25);
    }

    #[test]
    fn foreign_keys_in_range() {
        let cat = tpch_catalog(0.0005).unwrap();
        let customers = cat.table("customer").unwrap().row_count() as i64;
        for row in &cat.table("orders").unwrap().snapshot() {
            let cust = row[1].as_i64().unwrap();
            assert!((0..customers).contains(&cust));
        }
    }

    #[test]
    fn returnflag_distribution_is_skewed() {
        let cat = tpch_catalog(0.002).unwrap();
        let li = cat.table("lineitem").unwrap();
        let r = li
            .snapshot()
            .iter()
            .filter(|row| row[6].as_str() == Some("R"))
            .count() as f64;
        let frac = r / li.row_count() as f64;
        assert!((0.2..0.3).contains(&frac), "R fraction {frac}");
    }
}
