//! Synthetic fraud workload (DESIGN.md substitution #4).
//!
//! The paper's experiments use a real client fraud dataset with **103
//! fields**, chosen to reproduce "real-world dictionary cardinalities for
//! the aggregation states, and the expected load differences among the
//! several Railgun processors". This generator provides the same
//! properties synthetically:
//!
//! * a 103-field schema (ids, amount, and ~99 realistic filler fields);
//! * Zipf-distributed card and merchant populations (heavy hitters create
//!   the load skew across partitions);
//! * log-normal transaction amounts;
//! * low-cardinality categorical fields (country, currency, channel...)
//!   that compress well, mirroring payment-event redundancy.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use railgun_core::lang::{mins, Agg, Query, Window};
use railgun_types::{FieldType, Schema, Value};

/// Number of fields in the paper's dataset.
pub const FIELD_COUNT: usize = 103;

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Distinct cards (group-by cardinality for per-card metrics).
    pub cards: u64,
    /// Distinct merchants.
    pub merchants: u64,
    /// Zipf skew exponent for both populations (1.0 ≈ realistic skew).
    pub zipf_s: f64,
    /// Median transaction amount.
    pub amount_median: f64,
    /// Log-normal shape of amounts.
    pub amount_sigma: f64,
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            cards: 50_000,
            merchants: 5_000,
            zipf_s: 1.05,
            amount_median: 27.5,
            amount_sigma: 1.1,
            seed: 0x0FEE_D2A1,
        }
    }
}

/// Zipf sampler over `{0..n-1}` with exponent `s`, via precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler (O(n) precompute).
    pub fn new(n: u64, s: f64) -> Self {
        let n = n.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank (0 = most popular).
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

const COUNTRIES: [&str; 12] = [
    "PT", "US", "GB", "DE", "FR", "ES", "BR", "NL", "IT", "PL", "IN", "SG",
];
const CURRENCIES: [&str; 8] = ["EUR", "USD", "GBP", "BRL", "PLN", "INR", "SGD", "CHF"];
const CHANNELS: [&str; 5] = ["pos", "ecom", "moto", "atm", "recurring"];
const ENTRY_MODES: [&str; 6] = ["chip", "swipe", "contactless", "manual", "token", "fallback"];

/// The 103-field payments schema.
///
/// Field 0 = `cardId`, field 1 = `merchantId`, field 2 = `amount`; the
/// rest are realistic filler: categorical strings, flags, counters and
/// scores, named `f_<kind><idx>`.
pub fn payments_schema() -> Schema {
    let mut fields: Vec<(String, FieldType)> = vec![
        ("cardId".to_owned(), FieldType::Str),
        ("merchantId".to_owned(), FieldType::Str),
        ("amount".to_owned(), FieldType::Float),
        ("country".to_owned(), FieldType::Str),
        ("currency".to_owned(), FieldType::Str),
        ("channel".to_owned(), FieldType::Str),
        ("entryMode".to_owned(), FieldType::Str),
        ("isCardPresent".to_owned(), FieldType::Bool),
        ("mcc".to_owned(), FieldType::Int),
        ("terminalId".to_owned(), FieldType::Str),
    ];
    let mut i = 0;
    while fields.len() < FIELD_COUNT {
        let ty = match i % 4 {
            0 => FieldType::Str,
            1 => FieldType::Float,
            2 => FieldType::Int,
            _ => FieldType::Bool,
        };
        let name = format!("f_{}{:02}", ["s", "x", "n", "b"][i % 4], i);
        fields.push((name, ty));
        i += 1;
    }
    let pairs: Vec<(&str, FieldType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::from_pairs(&pairs).expect("static schema is valid")
}

/// Stateful event generator.
pub struct FraudGenerator {
    cfg: WorkloadConfig,
    rng: SmallRng,
    cards: Zipf,
    merchants: Zipf,
    schema: Schema,
}

impl FraudGenerator {
    /// Build a generator (precomputes the Zipf tables).
    pub fn new(cfg: WorkloadConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let cards = Zipf::new(cfg.cards, cfg.zipf_s);
        let merchants = Zipf::new(cfg.merchants, cfg.zipf_s);
        FraudGenerator {
            cfg,
            rng,
            cards,
            merchants,
            schema: payments_schema(),
        }
    }

    /// The generator's schema (103 fields).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Generate the positional values of one event.
    pub fn next_values(&mut self) -> Vec<Value> {
        let rng = &mut self.rng;
        let card = self.cards.sample(rng);
        let merchant = self.merchants.sample(rng);
        // Log-normal amount via Box-Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let amount =
            (self.cfg.amount_median.ln() + self.cfg.amount_sigma * z).exp().min(100_000.0);

        let mut values = Vec::with_capacity(FIELD_COUNT);
        values.push(Value::Str(format!("card-{card:08}")));
        values.push(Value::Str(format!("merch-{merchant:06}")));
        values.push(Value::Float((amount * 100.0).round() / 100.0));
        values.push(Value::Str(COUNTRIES[rng.gen_range(0..COUNTRIES.len())].into()));
        values.push(Value::Str(
            CURRENCIES[rng.gen_range(0..CURRENCIES.len())].into(),
        ));
        values.push(Value::Str(CHANNELS[rng.gen_range(0..CHANNELS.len())].into()));
        values.push(Value::Str(
            ENTRY_MODES[rng.gen_range(0..ENTRY_MODES.len())].into(),
        ));
        values.push(Value::Bool(rng.gen_bool(0.7)));
        values.push(Value::Int(rng.gen_range(3000..6000)));
        values.push(Value::Str(format!("term-{:05}", rng.gen_range(0..20_000))));
        let mut i = 0usize;
        while values.len() < FIELD_COUNT {
            let v = match i % 4 {
                0 => Value::Str(format!("v{}", rng.gen_range(0..50u32))),
                1 => Value::Float(rng.gen_range(0.0..1.0)),
                2 => Value::Int(rng.gen_range(0..1000)),
                _ => Value::Bool(rng.gen_bool(0.5)),
            };
            // ~2% NULLs, as real datasets have.
            if rng.gen_bool(0.02) {
                values.push(Value::Null);
            } else {
                values.push(v);
            }
            i += 1;
        }
        values
    }

    /// A compact 3-field variant (cardId, merchantId, amount) for benches
    /// that isolate engine cost from payload size.
    pub fn next_compact(&mut self) -> Vec<Value> {
        let rng = &mut self.rng;
        let card = self.cards.sample(rng);
        let merchant = self.merchants.sample(rng);
        let amount: f64 = rng.gen_range(1.0..500.0);
        vec![
            Value::Str(format!("card-{card:08}")),
            Value::Str(format!("merch-{merchant:06}")),
            Value::Float(amount),
        ]
    }
}

/// The compact 3-field schema matching [`FraudGenerator::next_compact`].
pub fn compact_schema() -> Schema {
    Schema::from_pairs(&[
        ("cardId", FieldType::Str),
        ("merchantId", FieldType::Str),
        ("amount", FieldType::Float),
    ])
    .expect("static schema is valid")
}

/// The standard bench queries, constructed with the typed query builder
/// (which writes Figure 4 text and parses it, so bench results are those
/// of the equivalent hand-written statements).
pub mod queries {
    use super::*;

    /// Per-card `sum(amount), count(*)` over a 5-minute sliding window
    /// (the paper's Q1).
    pub fn per_card() -> Query {
        Query::select(Agg::sum("amount"))
            .select(Agg::count())
            .from("payments")
            .group_by(["cardId"])
            .over(Window::sliding(mins(5)))
            .build()
            .expect("static query is valid")
    }

    /// Per-card `countDistinct(merchantId)` over an infinite window.
    pub fn distinct_merchants() -> Query {
        Query::select(Agg::count_distinct("merchantId"))
            .from("payments")
            .group_by(["cardId"])
            .over(Window::infinite())
            .build()
            .expect("static query is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_exactly_103_fields() {
        let s = payments_schema();
        assert_eq!(s.len(), FIELD_COUNT);
        assert_eq!(s.index_of("cardId"), Some(0));
        assert_eq!(s.index_of("amount"), Some(2));
    }

    #[test]
    fn events_validate_against_schema() {
        let mut g = FraudGenerator::new(WorkloadConfig::default());
        let schema = g.schema().clone();
        for _ in 0..100 {
            let values = g.next_values();
            schema.check_values(&values).expect("valid event");
        }
    }

    #[test]
    fn zipf_is_skewed_and_complete() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 dominates rank 100 heavily.
        assert!(counts[0] > counts[100] * 10);
        // But the tail is populated.
        assert!(counts[500..].iter().sum::<u64>() > 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FraudGenerator::new(WorkloadConfig::default());
        let mut b = FraudGenerator::new(WorkloadConfig::default());
        for _ in 0..10 {
            assert_eq!(a.next_values(), b.next_values());
        }
    }

    #[test]
    fn compact_variant_matches_compact_schema() {
        let mut g = FraudGenerator::new(WorkloadConfig::default());
        let values = g.next_compact();
        compact_schema().check_values(&values).unwrap();
    }

    #[test]
    fn builder_queries_match_their_text_forms() {
        use railgun_core::parse_query;
        assert_eq!(
            queries::per_card(),
            parse_query(
                "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min"
            )
            .unwrap()
        );
        assert_eq!(
            queries::distinct_merchants(),
            parse_query(
                "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite"
            )
            .unwrap()
        );
    }

    #[test]
    fn card_population_creates_partition_skew() {
        // Hash the generated cards into 8 "partitions" and verify the load
        // spread is uneven (the paper's motivation for using real data).
        let mut g = FraudGenerator::new(WorkloadConfig::default());
        let mut loads = [0u64; 8];
        for _ in 0..20_000 {
            let v = g.next_compact();
            let card = v[0].as_str().unwrap().to_owned();
            let p = railgun_messaging::partition_for_key(card.as_bytes(), 8);
            loads[p as usize] += 1;
        }
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max / min > 1.05, "expected visible skew: {loads:?}");
    }
}
