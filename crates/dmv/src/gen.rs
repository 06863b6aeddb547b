//! DMV data generation with deliberate cross-column correlations.

use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, PopResult, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Car makes (30, as in "the CAR table contains major correlations").
pub const MAKES: [&str; 30] = [
    "TOYOTA",
    "HONDA",
    "FORD",
    "CHEVROLET",
    "NISSAN",
    "BMW",
    "MERCEDES",
    "AUDI",
    "VOLKSWAGEN",
    "HYUNDAI",
    "KIA",
    "SUBARU",
    "MAZDA",
    "LEXUS",
    "ACURA",
    "VOLVO",
    "JEEP",
    "DODGE",
    "RAM",
    "GMC",
    "BUICK",
    "CADILLAC",
    "LINCOLN",
    "INFINITI",
    "MITSUBISHI",
    "PORSCHE",
    "JAGUAR",
    "LANDROVER",
    "FIAT",
    "MINI",
];

/// Models per make: `model_id / MODELS_PER_MAKE == make_id` (the
/// functional dependency MODEL → MAKE).
pub const MODELS_PER_MAKE: usize = 8;

const COLORS: [&str; 12] = [
    "WHITE", "BLACK", "SILVER", "GRAY", "RED", "BLUE", "GREEN", "BROWN", "BEIGE", "ORANGE",
    "YELLOW", "PURPLE",
];
const BODY_STYLES: [&str; 6] = ["SEDAN", "SUV", "COUPE", "TRUCK", "HATCH", "VAN"];
const VIOLATION_TYPES: [(&str, i64); 10] = [
    ("SPEEDING", 3),
    ("RED LIGHT", 4),
    ("PARKING", 0),
    ("DUI", 8),
    ("NO INSURANCE", 4),
    ("RECKLESS DRIVING", 6),
    ("EXPIRED TAGS", 1),
    ("ILLEGAL TURN", 2),
    ("STOP SIGN", 3),
    ("PHONE USE", 2),
];
const PROVIDERS: [&str; 8] = [
    "GEICO",
    "STATEFARM",
    "PROGRESSIVE",
    "ALLSTATE",
    "LIBERTY",
    "NATIONWIDE",
    "FARMERS",
    "USAA",
];

/// DMV database generator. `scale = 1.0` ≈ the paper's 8M-car database;
/// default is 0.002 (16k cars).
#[derive(Debug, Clone)]
pub struct DmvGen {
    /// Scale factor.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DmvGen {
    fn default() -> Self {
        DmvGen {
            scale: 0.002,
            seed: 7,
        }
    }
}

impl DmvGen {
    /// Generator at `scale` with the default seed.
    pub fn new(scale: f64) -> Self {
        DmvGen { scale, seed: 7 }
    }

    fn n(&self, base: f64) -> usize {
        ((base * self.scale).round() as usize).max(4)
    }

    /// Generate all tables and indexes into `catalog`. Each table is
    /// written straight into typed columns, a chunk at a time, each string
    /// copied onto its column's buffer.
    pub fn generate(&self, catalog: &Catalog) -> PopResult<()> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_owner = self.n(6_000_000.0);
        let n_car = self.n(8_000_000.0);
        let n_models = MAKES.len() * MODELS_PER_MAKE;

        // MAKE(make_id, name, country)
        let countries = ["JAPAN", "USA", "GERMANY", "KOREA", "UK"];
        catalog.generate_table(
            "make",
            Schema::from_pairs(&[
                ("make_id", DataType::Int),
                ("make_name", DataType::Str),
                ("country", DataType::Str),
            ]),
            MAKES.len(),
            |i, w| {
                w.int(i as i64)
                    .fmt(format_args!("{}", MAKES[i]))
                    .str(countries[i % 5]);
            },
        )?;

        // MODEL(model_id, make_id, model_name, body_style, base_weight)
        let mut model_weight = Vec::with_capacity(n_models);
        let mut model_colors: Vec<Vec<usize>> = Vec::with_capacity(n_models);
        catalog.generate_table(
            "model",
            Schema::from_pairs(&[
                ("model_id", DataType::Int),
                ("make_id", DataType::Int),
                ("model_name", DataType::Str),
                ("body_style", DataType::Str),
                ("base_weight", DataType::Int),
            ]),
            n_models,
            |m, w| {
                let make = m / MODELS_PER_MAKE;
                let weight = 900 + 250 * (m % MODELS_PER_MAKE) as i64 + (make as i64 % 7) * 40;
                model_weight.push(weight);
                // Each model ships in a palette of 4 colors: COLOR↔MODEL.
                let first = m % COLORS.len();
                model_colors.push((0..4).map(|k| (first + k) % COLORS.len()).collect());
                w.int(m as i64)
                    .int(make as i64)
                    .fmt(format_args!("{}-{}", MAKES[make], m % MODELS_PER_MAKE))
                    .str(BODY_STYLES[m % BODY_STYLES.len()])
                    .int(weight);
            },
        )?;

        // CITY(city_id, name, zip_base)
        let n_city: i32 = 50;
        catalog.generate_table(
            "city",
            Schema::from_pairs(&[
                ("city_id", DataType::Int),
                ("city_name", DataType::Str),
                ("zip_base", DataType::Int),
            ]),
            n_city as usize,
            |i, w| {
                w.int(i as i64)
                    .fmt(format_args!("CITY{i:02}"))
                    .int(10000 + i as i64 * 100);
            },
        )?;

        // OWNER(owner_id, name, age, zip, city_id, license_class)
        // AGE↔MAKE: age bands prefer make bands (used below when cars are
        // assigned to owners).
        let mut owner_age = Vec::with_capacity(n_owner);
        let mut owner_zip = Vec::with_capacity(n_owner);
        let classes = ["A", "B", "C", "CDL"];
        catalog.generate_table(
            "owner",
            Schema::from_pairs(&[
                ("owner_id", DataType::Int),
                ("owner_name", DataType::Str),
                ("age", DataType::Int),
                ("zip", DataType::Int),
                ("city_id", DataType::Int),
                ("license_class", DataType::Str),
            ]),
            n_owner,
            |i, w| {
                let age = rng.gen_range(18..=90i64);
                let city = i64::from(rng.gen_range(0..n_city));
                let zip = 10000 + city * 100 + rng.gen_range(0..100i64);
                owner_age.push(age);
                owner_zip.push(zip);
                w.int(i as i64)
                    .fmt(format_args!("Owner#{i:08}"))
                    .int(age)
                    .int(zip)
                    .int(city)
                    .str(classes[rng.gen_range(0..4usize)]);
            },
        )?;

        // DEALER(dealer_id, dealer_name, zip, franchise_make)
        let n_dealer = 200.max(n_car / 400);
        catalog.generate_table(
            "dealer",
            Schema::from_pairs(&[
                ("dealer_id", DataType::Int),
                ("dealer_name", DataType::Str),
                ("zip", DataType::Int),
                ("franchise_make", DataType::Int),
            ]),
            n_dealer,
            |i, w| {
                w.int(i as i64)
                    .fmt(format_args!("Dealer#{i:05}"))
                    .int(10000 + rng.gen_range(0..i64::from(n_city)) * 100)
                    .int((i % MAKES.len()) as i64);
            },
        )?;

        // CAR(car_id, owner_id, model_id, make_id, color, weight, year,
        //     zip_reg, dealer_id)
        // Correlations: make determined by model; color from the model
        // palette; weight = model base weight ± noise; the owner's age
        // band biases the make (AGE↔MAKE); zip_reg near the owner's zip,
        // so ZIP↔MAKE inherits the age-make bias per city.
        catalog.generate_table(
            "car",
            Schema::from_pairs(&[
                ("car_id", DataType::Int),
                ("owner_id", DataType::Int),
                ("model_id", DataType::Int),
                ("make_id", DataType::Int),
                ("color", DataType::Str),
                ("weight", DataType::Int),
                ("year", DataType::Int),
                ("zip_reg", DataType::Int),
                ("dealer_id", DataType::Int),
            ]),
            n_car,
            |i, w| {
                let owner = rng.gen_range(0..n_owner);
                let age = owner_age[owner];
                // Age bands prefer different make bands (soft correlation).
                let band = ((age - 18) / 15).min(4) as usize; // 0..5
                let make = if rng.gen_bool(0.7) {
                    (band * 6 + rng.gen_range(0..6usize)) % MAKES.len()
                } else {
                    rng.gen_range(0..MAKES.len())
                };
                let model = make * MODELS_PER_MAKE + rng.gen_range(0..MODELS_PER_MAKE);
                let palette = &model_colors[model];
                let color = COLORS[palette[rng.gen_range(0..palette.len())]];
                let weight = model_weight[model] + rng.gen_range(-25i64..=25);
                w.int(i as i64)
                    .int(owner as i64)
                    .int(model as i64)
                    .int(make as i64)
                    .str(color)
                    .int(weight)
                    .int(rng.gen_range(1995..=2004))
                    .int(owner_zip[owner])
                    .int(rng.gen_range(0..n_dealer as i64));
            },
        )?;

        // PROVIDER(provider_id, provider_name)
        catalog.generate_table(
            "provider",
            Schema::from_pairs(&[
                ("provider_id", DataType::Int),
                ("provider_name", DataType::Str),
            ]),
            PROVIDERS.len(),
            |i, w| {
                w.int(i as i64).fmt(format_args!("{}", PROVIDERS[i]));
            },
        )?;

        // INSURANCE(policy_id, car_id, provider_id, premium, start_year)
        let n_ins = n_car; // ~1 policy per car
        catalog.generate_table(
            "insurance",
            Schema::from_pairs(&[
                ("policy_id", DataType::Int),
                ("car_id", DataType::Int),
                ("provider_id", DataType::Int),
                ("premium", DataType::Float),
                ("start_year", DataType::Int),
            ]),
            n_ins,
            |i, w| {
                w.int(i as i64)
                    .int(rng.gen_range(0..n_car as i64))
                    .int(rng.gen_range(0..PROVIDERS.len() as i64))
                    .float(f64::from(rng.gen_range(40_000..300_000)) / 100.0)
                    .int(rng.gen_range(1995..=2004));
            },
        )?;

        // VIOLATION_TYPE(type_id, description, points)
        catalog.generate_table(
            "violation_type",
            Schema::from_pairs(&[
                ("type_id", DataType::Int),
                ("description", DataType::Str),
                ("points", DataType::Int),
            ]),
            VIOLATION_TYPES.len(),
            |i, w| {
                let (description, points) = VIOLATION_TYPES[i];
                w.int(i as i64)
                    .fmt(format_args!("{description}"))
                    .int(points);
            },
        )?;

        // VIOLATION(violation_id, car_id, type_id, day, fine)
        let n_vio = n_car * 4;
        catalog.generate_table(
            "violation",
            Schema::from_pairs(&[
                ("violation_id", DataType::Int),
                ("car_id", DataType::Int),
                ("type_id", DataType::Int),
                ("day", DataType::Date),
                ("fine", DataType::Float),
            ]),
            n_vio,
            |i, w| {
                w.int(i as i64)
                    .int(rng.gen_range(0..n_car as i64))
                    .int(rng.gen_range(0..VIOLATION_TYPES.len() as i64))
                    .date(rng.gen_range(0..1825))
                    .float(f64::from(rng.gen_range(2_500..100_000)) / 100.0);
            },
        )?;

        // STATION(station_id, station_name, zip)
        let n_station: i32 = 60;
        catalog.generate_table(
            "station",
            Schema::from_pairs(&[
                ("station_id", DataType::Int),
                ("station_name", DataType::Str),
                ("zip", DataType::Int),
            ]),
            n_station as usize,
            |i, w| {
                w.int(i as i64)
                    .fmt(format_args!("Station#{i:03}"))
                    .int(10000 + rng.gen_range(0..i64::from(n_city)) * 100);
            },
        )?;

        // INSPECTION(inspection_id, car_id, station_id, day, passed)
        let n_insp = n_car * 2;
        catalog.generate_table(
            "inspection",
            Schema::from_pairs(&[
                ("inspection_id", DataType::Int),
                ("car_id", DataType::Int),
                ("station_id", DataType::Int),
                ("day", DataType::Date),
                ("passed", DataType::Bool),
            ]),
            n_insp,
            |i, w| {
                w.int(i as i64)
                    .int(rng.gen_range(0..n_car as i64))
                    .int(rng.gen_range(0..i64::from(n_station)))
                    .date(rng.gen_range(0..1825))
                    .bool(rng.gen_bool(0.85));
            },
        )?;

        // ACCIDENT(accident_id, car_id, day, severity, zip)
        let n_acc = n_car;
        catalog.generate_table(
            "accident",
            Schema::from_pairs(&[
                ("accident_id", DataType::Int),
                ("car_id", DataType::Int),
                ("day", DataType::Date),
                ("severity", DataType::Int),
                ("zip", DataType::Int),
            ]),
            n_acc,
            |i, w| {
                w.int(i as i64)
                    .int(rng.gen_range(0..n_car as i64))
                    .date(rng.gen_range(0..1825))
                    .int(rng.gen_range(1..=5))
                    .int(10000 + rng.gen_range(0..i64::from(n_city)) * 100);
            },
        )?;

        for (table, column) in [
            ("make", "make_id"),
            ("model", "model_id"),
            ("model", "make_id"),
            ("city", "city_id"),
            ("owner", "owner_id"),
            ("owner", "city_id"),
            ("dealer", "dealer_id"),
            ("car", "car_id"),
            ("car", "owner_id"),
            ("car", "model_id"),
            ("car", "make_id"),
            ("car", "dealer_id"),
            ("provider", "provider_id"),
            ("insurance", "car_id"),
            ("insurance", "provider_id"),
            ("violation_type", "type_id"),
            ("violation", "car_id"),
            ("violation", "type_id"),
            ("station", "station_id"),
            ("inspection", "car_id"),
            ("inspection", "station_id"),
            ("accident", "car_id"),
        ] {
            catalog.create_index(table, column, IndexKind::Hash)?;
        }
        // Sorted indexes for range predicates (dates, ages, weights,
        // zips) — the access paths the DMV queries filter on.
        for (table, column) in [
            ("violation", "day"),
            ("inspection", "day"),
            ("accident", "day"),
            ("owner", "age"),
            ("car", "weight"),
            ("car", "zip_reg"),
            ("insurance", "start_year"),
        ] {
            catalog.create_index(table, column, IndexKind::Sorted)?;
        }
        Ok(())
    }
}

/// Build a fresh DMV catalog at `scale`.
pub fn dmv_catalog(scale: f64) -> PopResult<Catalog> {
    let catalog = Catalog::new();
    DmvGen::new(scale).generate(&catalog)?;
    Ok(catalog)
}

/// Build the same catalog over an explicit storage configuration (e.g.
/// the paged backend with a deliberately tiny buffer pool). The load
/// streams through the catalog's chunked bulk loader.
pub fn dmv_catalog_with(scale: f64, storage: pop_storage::StorageConfig) -> PopResult<Catalog> {
    let catalog = Catalog::with_storage(storage);
    DmvGen::new(scale).generate(&catalog)?;
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_determines_make() {
        let cat = dmv_catalog(0.0005).unwrap();
        let cars = cat.table("car").unwrap();
        for row in &cars.snapshot() {
            let model = row[2].as_i64().unwrap() as usize;
            let make = row[3].as_i64().unwrap() as usize;
            assert_eq!(model / MODELS_PER_MAKE, make);
        }
    }

    #[test]
    fn weight_tracks_model_base_weight() {
        let cat = dmv_catalog(0.0005).unwrap();
        let models = cat.table("model").unwrap();
        let model_weight: Vec<i64> = models
            .snapshot()
            .iter()
            .map(|r| r[4].as_i64().unwrap())
            .collect();
        for row in &cat.table("car").unwrap().snapshot() {
            let model = row[2].as_i64().unwrap() as usize;
            let weight = row[5].as_i64().unwrap();
            assert!((weight - model_weight[model]).abs() <= 25);
        }
    }

    #[test]
    fn color_palette_is_model_correlated() {
        // Per model, at most 4 distinct colors occur.
        let cat = dmv_catalog(0.001).unwrap();
        use std::collections::{HashMap, HashSet};
        let mut palettes: HashMap<i64, HashSet<String>> = HashMap::new();
        for row in &cat.table("car").unwrap().snapshot() {
            let model = row[2].as_i64().unwrap();
            let color = row[4].as_str().unwrap().to_string();
            palettes.entry(model).or_default().insert(color);
        }
        for (model, colors) in palettes {
            assert!(
                colors.len() <= 4,
                "model {model} has {} colors",
                colors.len()
            );
        }
    }

    #[test]
    fn age_make_correlation_exists() {
        // Young owners should over-index on the first make band.
        let cat = dmv_catalog(0.002).unwrap();
        let owners = cat.table("owner").unwrap();
        let ages: Vec<i64> = owners
            .snapshot()
            .iter()
            .map(|r| r[2].as_i64().unwrap())
            .collect();
        let mut young_band0 = 0u32;
        let mut young_total = 0u32;
        for row in &cat.table("car").unwrap().snapshot() {
            let owner = row[1].as_i64().unwrap() as usize;
            let make = row[3].as_i64().unwrap();
            if ages[owner] < 33 {
                young_total += 1;
                if (0..6).contains(&make) {
                    young_band0 += 1;
                }
            }
        }
        let frac = f64::from(young_band0) / f64::from(young_total);
        // Uniform would be 6/30 = 0.2; correlation pushes well above.
        assert!(frac > 0.5, "young band-0 fraction {frac}");
    }

    #[test]
    fn deterministic_generation() {
        let a = dmv_catalog(0.0005).unwrap();
        let b = dmv_catalog(0.0005).unwrap();
        assert_eq!(
            *a.table("car").unwrap().snapshot(),
            *b.table("car").unwrap().snapshot()
        );
    }

    #[test]
    fn all_tables_exist() {
        let cat = dmv_catalog(0.0005).unwrap();
        for t in [
            "make",
            "model",
            "city",
            "owner",
            "dealer",
            "car",
            "provider",
            "insurance",
            "violation_type",
            "violation",
            "station",
            "inspection",
            "accident",
        ] {
            assert!(cat.table(t).is_ok(), "missing {t}");
        }
    }
}
