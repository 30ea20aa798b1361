//! The generator proper.
//!
//! Cardinalities at scale factor 1 mirror TPC-H: 10 000 suppliers,
//! 200 000 parts, 800 000 partsupp rows (4 suppliers per part), 150 000
//! customers, 1 500 000 orders, ~6 000 000 lineitems. The experiments run
//! at SF 0.002–0.05, which keeps group *counts* and *sizes* in realistic
//! proportion while staying laptop-sized.

use crate::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlpub_algebra::{Catalog, TableDef};
use xmlpub_common::{DataType, Field, Relation, Result, Schema, Tuple, Value};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// TPC-H scale factor; 1.0 ≈ the official 1 GB database's row counts.
    pub scale: f64,
    /// RNG seed — equal seeds generate identical databases.
    pub seed: u64,
    /// Skew knob for the partsupp fan-out: 0.0 keeps the official fixed
    /// 4-suppliers-per-part; larger values draw the per-part supplier
    /// count from [1, 4 + 8·skew], stressing the §4.4 uniformity
    /// assumption in the ablation benches.
    pub skew: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig { scale: 0.01, seed: 0x5EED_CAFE, skew: 0.0 }
    }
}

impl TpchConfig {
    /// Config with the given scale factor and default seed.
    pub fn with_scale(scale: f64) -> Self {
        TpchConfig { scale, ..Default::default() }
    }

    fn count(&self, base: u64) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }

    /// Number of suppliers at this scale.
    pub fn suppliers(&self) -> usize {
        self.count(10_000)
    }

    /// Number of parts at this scale.
    pub fn parts(&self) -> usize {
        self.count(200_000)
    }

    /// Number of customers at this scale.
    pub fn customers(&self) -> usize {
        self.count(150_000)
    }

    /// Number of orders at this scale.
    pub fn orders(&self) -> usize {
        self.count(1_500_000)
    }
}

/// The generator. Create once, then pull tables (or a whole catalog).
#[derive(Debug)]
pub struct TpchGenerator {
    cfg: TpchConfig,
}

impl TpchGenerator {
    /// A generator for the given configuration.
    pub fn new(cfg: TpchConfig) -> Self {
        TpchGenerator { cfg }
    }

    /// Convenience: generator at a scale factor with default seed.
    pub fn with_scale(scale: f64) -> Self {
        TpchGenerator::new(TpchConfig::with_scale(scale))
    }

    fn rng(&self, table_tag: u64) -> StdRng {
        StdRng::seed_from_u64(self.cfg.seed ^ table_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// `region(r_regionkey, r_name)` — the five official regions.
    pub fn region(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("r_regionkey", DataType::Int),
            Field::new("r_name", DataType::Str),
        ]);
        let def = TableDef::new("region", schema).with_primary_key(&["r_regionkey"]);
        let rows = names::REGIONS
            .iter()
            .enumerate()
            .map(|(i, r)| Tuple::new(vec![Value::Int(i as i64), Value::str(*r)]))
            .collect();
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// `nation(n_nationkey, n_name, n_regionkey)`
    pub fn nation(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("n_nationkey", DataType::Int),
            Field::new("n_name", DataType::Str),
            Field::new("n_regionkey", DataType::Int),
        ]);
        let def = TableDef::new("nation", schema)
            .with_primary_key(&["n_nationkey"])
            .with_foreign_key(&["n_regionkey"], "region", &["r_regionkey"]);
        let rows = names::NATIONS
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::str(*n),
                    Value::Int(names::NATION_REGION[i]),
                ])
            })
            .collect();
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// `supplier(s_suppkey, s_name, s_nationkey, s_acctbal)`
    pub fn supplier(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("s_suppkey", DataType::Int),
            Field::new("s_name", DataType::Str),
            Field::new("s_nationkey", DataType::Int),
            Field::new("s_acctbal", DataType::Float),
        ]);
        let def = TableDef::new("supplier", schema)
            .with_primary_key(&["s_suppkey"])
            .with_foreign_key(&["s_nationkey"], "nation", &["n_nationkey"]);
        let mut rng = self.rng(1);
        let n = self.cfg.suppliers();
        let rows = (1..=n)
            .map(|k| {
                Tuple::new(vec![
                    Value::Int(k as i64),
                    Value::str(format!("Supplier#{k:09}")),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Float(round2(rng.gen_range(-999.99..9999.99))),
                ])
            })
            .collect();
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// `part(p_partkey, p_name, p_brand, p_type, p_size, p_container,
    /// p_retailprice)`
    pub fn part(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_brand", DataType::Str),
            Field::new("p_type", DataType::Str),
            Field::new("p_size", DataType::Int),
            Field::new("p_container", DataType::Str),
            Field::new("p_retailprice", DataType::Float),
        ]);
        let def = TableDef::new("part", schema).with_primary_key(&["p_partkey"]);
        let mut rng = self.rng(2);
        let n = self.cfg.parts();
        let rows = (1..=n)
            .map(|k| {
                let name = {
                    // Official dbgen: five distinct colour words.
                    let mut words = Vec::with_capacity(5);
                    while words.len() < 5 {
                        let w = names::COLORS[rng.gen_range(0..names::COLORS.len())];
                        if !words.contains(&w) {
                            words.push(w);
                        }
                    }
                    words.join(" ")
                };
                let brand = format!("Brand#{}{}", rng.gen_range(1..=5u32), rng.gen_range(1..=5u32));
                let ptype = format!(
                    "{} {} {}",
                    names::TYPE_SYLLABLE_1[rng.gen_range(0..names::TYPE_SYLLABLE_1.len())],
                    names::TYPE_SYLLABLE_2[rng.gen_range(0..names::TYPE_SYLLABLE_2.len())],
                    names::TYPE_SYLLABLE_3[rng.gen_range(0..names::TYPE_SYLLABLE_3.len())],
                );
                let container = format!(
                    "{} {}",
                    names::CONTAINER_SIZES[rng.gen_range(0..names::CONTAINER_SIZES.len())],
                    names::CONTAINER_KINDS[rng.gen_range(0..names::CONTAINER_KINDS.len())],
                );
                Tuple::new(vec![
                    Value::Int(k as i64),
                    Value::str(name),
                    Value::str(brand),
                    Value::str(ptype),
                    Value::Int(rng.gen_range(1..=50)),
                    Value::str(container),
                    Value::Float(retail_price(k as i64)),
                ])
            })
            .collect();
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// `partsupp(ps_suppkey, ps_partkey, ps_availqty, ps_supplycost)`
    pub fn partsupp(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_partkey", DataType::Int),
            Field::new("ps_availqty", DataType::Int),
            Field::new("ps_supplycost", DataType::Float),
        ]);
        let def = TableDef::new("partsupp", schema)
            .with_primary_key(&["ps_suppkey", "ps_partkey"])
            .with_foreign_key(&["ps_suppkey"], "supplier", &["s_suppkey"])
            .with_foreign_key(&["ps_partkey"], "part", &["p_partkey"]);
        let mut rng = self.rng(3);
        let parts = self.cfg.parts();
        let suppliers = self.cfg.suppliers() as i64;
        let mut rows = Vec::with_capacity(parts * 4);
        for p in 1..=parts {
            let fanout = if self.cfg.skew <= 0.0 {
                4
            } else {
                let max = (4.0 + 8.0 * self.cfg.skew).round() as usize;
                rng.gen_range(1..=max.max(1))
            };
            for s in 0..fanout {
                // The official assignment spreads a part's suppliers
                // evenly around the supplier keyspace.
                let suppkey = ((p as i64 + (s as i64 * (suppliers / 4 + 1))) % suppliers) + 1;
                rows.push(Tuple::new(vec![
                    Value::Int(suppkey),
                    Value::Int(p as i64),
                    Value::Int(rng.gen_range(1..=9999)),
                    Value::Float(round2(rng.gen_range(1.0..1000.0))),
                ]));
            }
        }
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// `customer(c_custkey, c_name, c_nationkey, c_acctbal)`
    pub fn customer(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("c_custkey", DataType::Int),
            Field::new("c_name", DataType::Str),
            Field::new("c_nationkey", DataType::Int),
            Field::new("c_acctbal", DataType::Float),
        ]);
        let def = TableDef::new("customer", schema)
            .with_primary_key(&["c_custkey"])
            .with_foreign_key(&["c_nationkey"], "nation", &["n_nationkey"]);
        let mut rng = self.rng(4);
        let n = self.cfg.customers();
        let rows = (1..=n)
            .map(|k| {
                Tuple::new(vec![
                    Value::Int(k as i64),
                    Value::str(format!("Customer#{k:09}")),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Float(round2(rng.gen_range(-999.99..9999.99))),
                ])
            })
            .collect();
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// `orders(o_orderkey, o_custkey, o_orderstatus, o_totalprice,
    /// o_orderyear)` — the year stands in for the official order date
    /// (dbgen's seven-year 1992–1998 window), derived from the key
    /// rather than the RNG stream so pre-existing columns stay
    /// byte-identical across versions of this generator.
    pub fn orders(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("o_orderkey", DataType::Int),
            Field::new("o_custkey", DataType::Int),
            Field::new("o_orderstatus", DataType::Str),
            Field::new("o_totalprice", DataType::Float),
            Field::new("o_orderyear", DataType::Int),
        ]);
        let def = TableDef::new("orders", schema)
            .with_primary_key(&["o_orderkey"])
            .with_foreign_key(&["o_custkey"], "customer", &["c_custkey"]);
        let mut rng = self.rng(5);
        let n = self.cfg.orders();
        let customers = self.cfg.customers() as i64;
        let rows = (1..=n)
            .map(|k| {
                let status = ["O", "F", "P"][rng.gen_range(0..3)];
                Tuple::new(vec![
                    Value::Int(k as i64),
                    Value::Int(rng.gen_range(1..=customers)),
                    Value::str(status),
                    Value::Float(round2(rng.gen_range(850.0..560000.0))),
                    Value::Int(1992 + (k as i64 % 7)),
                ])
            })
            .collect();
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// `lineitem(l_orderkey, l_linenumber, l_partkey, l_suppkey,
    /// l_quantity, l_extendedprice, l_discount)` — 1–7 lines per order.
    pub fn lineitem(&self) -> (TableDef, Relation) {
        let schema = Schema::new(vec![
            Field::new("l_orderkey", DataType::Int),
            Field::new("l_linenumber", DataType::Int),
            Field::new("l_partkey", DataType::Int),
            Field::new("l_suppkey", DataType::Int),
            Field::new("l_quantity", DataType::Int),
            Field::new("l_extendedprice", DataType::Float),
            Field::new("l_discount", DataType::Float),
        ]);
        let def = TableDef::new("lineitem", schema)
            .with_primary_key(&["l_orderkey", "l_linenumber"])
            .with_foreign_key(&["l_orderkey"], "orders", &["o_orderkey"])
            .with_foreign_key(&["l_partkey"], "part", &["p_partkey"])
            .with_foreign_key(&["l_suppkey"], "supplier", &["s_suppkey"]);
        let mut rng = self.rng(6);
        let orders = self.cfg.orders();
        let parts = self.cfg.parts() as i64;
        let suppliers = self.cfg.suppliers() as i64;
        let mut rows = Vec::new();
        for o in 1..=orders {
            for line in 1..=rng.gen_range(1..=7) {
                let qty = rng.gen_range(1..=50i64);
                let part = rng.gen_range(1..=parts);
                rows.push(Tuple::new(vec![
                    Value::Int(o as i64),
                    Value::Int(line),
                    Value::Int(part),
                    Value::Int(rng.gen_range(1..=suppliers)),
                    Value::Int(qty),
                    Value::Float(round2(qty as f64 * retail_price(part))),
                    Value::Float(round2(rng.gen_range(0.0..0.1))),
                ]));
            }
        }
        let data = Relation::from_rows_unchecked(def.schema.clone(), rows);
        (def, data)
    }

    /// Generate the full catalog (all eight tables).
    pub fn catalog(&self) -> Result<Catalog> {
        let mut cat = Catalog::new();
        for (def, data) in [
            self.region(),
            self.nation(),
            self.supplier(),
            self.part(),
            self.partsupp(),
            self.customer(),
            self.orders(),
            self.lineitem(),
        ] {
            cat.register(def, data)?;
        }
        Ok(cat)
    }

    /// Generate only the three tables the paper's running examples use
    /// (supplier, part, partsupp) — faster for tests.
    pub fn core_catalog(&self) -> Result<Catalog> {
        let mut cat = Catalog::new();
        for (def, data) in [self.supplier(), self.part(), self.partsupp()] {
            cat.register(def, data)?;
        }
        Ok(cat)
    }
}

/// The official TPC-H retail-price formula.
fn retail_price(partkey: i64) -> f64 {
    (90_000.0 + ((partkey / 10) % 20_001) as f64 + 100.0 * (partkey % 1_000) as f64) / 100.0
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchGenerator {
        TpchGenerator::new(TpchConfig { scale: 0.001, seed: 42, skew: 0.0 })
    }

    #[test]
    fn cardinality_ratios() {
        let g = small();
        let (_, sup) = g.supplier();
        let (_, part) = g.part();
        let (_, ps) = g.partsupp();
        assert_eq!(sup.len(), 10);
        assert_eq!(part.len(), 200);
        assert_eq!(ps.len(), 800); // exactly 4 suppliers per part
    }

    #[test]
    fn determinism() {
        let a = small().part().1;
        let b = small().part().1;
        assert_eq!(a.rows(), b.rows());
        let c = TpchGenerator::new(TpchConfig { scale: 0.001, seed: 43, skew: 0.0 }).part().1;
        assert_ne!(a.rows(), c.rows());
    }

    #[test]
    fn partsupp_references_valid_keys() {
        let g = small();
        let suppliers = g.cfg.suppliers() as i64;
        let parts = g.cfg.parts() as i64;
        let (_, ps) = g.partsupp();
        for row in ps.rows() {
            let s = row.value(0).as_int().unwrap();
            let p = row.value(1).as_int().unwrap();
            assert!((1..=suppliers).contains(&s), "bad suppkey {s}");
            assert!((1..=parts).contains(&p), "bad partkey {p}");
        }
    }

    #[test]
    fn partsupp_pairs_are_unique() {
        let (_, ps) = small().partsupp();
        let mut pairs: Vec<(i64, i64)> = ps
            .rows()
            .iter()
            .map(|r| (r.value(0).as_int().unwrap(), r.value(1).as_int().unwrap()))
            .collect();
        let n = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), n, "duplicate (suppkey, partkey) pairs");
    }

    #[test]
    fn retail_price_formula_matches_spec() {
        assert_eq!(retail_price(1), 901.00);
        assert_eq!(retail_price(10), 910.01);
        let (_, part) = small().part();
        for row in part.rows() {
            let price = row.value(6).as_f64().unwrap();
            assert!((900.0..=2098.99).contains(&price), "price {price} out of spec range");
        }
    }

    #[test]
    fn brands_and_sizes_have_expected_domains() {
        let (_, part) = TpchGenerator::with_scale(0.005).part();
        let brands = part.distinct_values(2);
        assert!(brands.len() <= 25);
        assert!(brands.len() > 15, "brand domain too small: {}", brands.len());
        for row in part.rows() {
            let size = row.value(4).as_int().unwrap();
            assert!((1..=50).contains(&size));
        }
    }

    #[test]
    fn part_names_are_five_words() {
        let (_, part) = small().part();
        for row in part.rows() {
            assert_eq!(row.value(1).as_str().unwrap().split(' ').count(), 5);
        }
    }

    #[test]
    fn catalog_registers_everything() {
        let g = TpchGenerator::new(TpchConfig { scale: 0.0005, seed: 7, skew: 0.0 });
        let cat = g.catalog().unwrap();
        for t in
            ["region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"]
        {
            assert!(cat.table(t).is_ok(), "missing {t}");
            assert!(!cat.data(t).unwrap().is_empty(), "{t} empty");
        }
        let core = g.core_catalog().unwrap();
        assert_eq!(core.tables().count(), 3);
    }

    #[test]
    fn fk_metadata_is_registered() {
        let cat = small().core_catalog().unwrap();
        let fk = |col: usize, ref_table: &str| xmlpub_algebra::ResolvedForeignKey {
            columns: vec![col],
            ref_table: ref_table.to_string(),
            ref_columns: vec![0],
        };
        assert_eq!(cat.foreign_keys("partsupp"), [fk(0, "supplier"), fk(1, "part")]);
    }

    #[test]
    fn skew_changes_fanout() {
        let skewed = TpchGenerator::new(TpchConfig { scale: 0.001, seed: 42, skew: 1.0 });
        let (_, ps) = skewed.partsupp();
        // Fan-out varies between 1 and 12, so the total differs from 4/part.
        assert_ne!(ps.len(), 800);
        let mut counts = std::collections::BTreeMap::new();
        for row in ps.rows() {
            *counts.entry(row.value(1).as_int().unwrap()).or_insert(0usize) += 1;
        }
        let min = counts.values().min().unwrap();
        let max = counts.values().max().unwrap();
        assert!(max > min, "skewed fanout should vary (min={min}, max={max})");
    }

    #[test]
    fn nation_regions_match_spec_and_orders_span_the_date_window() {
        let g = small();
        let (_, nation) = g.nation();
        assert_eq!(nation.len(), 25);
        for row in nation.rows() {
            let r = row.value(2).as_int().unwrap();
            assert!((0..5).contains(&r), "bad regionkey {r}");
        }
        // Official spot checks: ALGERIA→AFRICA, GERMANY→EUROPE,
        // CHINA→ASIA, UNITED STATES→AMERICA, EGYPT→MIDDLE EAST.
        for (key, region) in [(0, 0), (7, 3), (18, 2), (24, 1), (4, 4)] {
            assert_eq!(nation.rows()[key as usize].value(2).as_int().unwrap(), region);
        }
        let (_, region) = g.region();
        assert_eq!(region.len(), 5);
        let (_, orders) = g.orders();
        let years: std::collections::BTreeSet<i64> =
            orders.rows().iter().map(|r| r.value(4).as_int().unwrap()).collect();
        assert!(years.iter().all(|y| (1992..=1998).contains(y)), "{years:?}");
        assert!(years.len() > 1, "order years should vary: {years:?}");
    }

    #[test]
    fn lineitem_orders_link_up() {
        let g = TpchGenerator::new(TpchConfig { scale: 0.0002, seed: 9, skew: 0.0 });
        let (_, orders) = g.orders();
        let (_, items) = g.lineitem();
        let max_order = orders.len() as i64;
        assert!(!items.is_empty());
        for row in items.rows() {
            let o = row.value(0).as_int().unwrap();
            assert!((1..=max_order).contains(&o));
        }
    }
}
