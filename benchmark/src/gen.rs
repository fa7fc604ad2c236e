//! Seeded input generator.
//!
//! Every event is a pure function of `(seed, index)`, so the oracle can
//! regenerate any slice of the stream after the run instead of the
//! harness retaining it, and the same `--seed` always yields the same
//! inputs. Card and merchant ids are Zipf *ranks*: `card-00000000` is the
//! hottest card under every seed, so the partition skew of a workload
//! does not move with the seed.

use railgun_types::{FieldType, Schema, Timestamp, Value};

/// splitmix64: the whole generator is built on this one mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny sequential PRNG (splitmix64 stream).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf sampler over ranks `0..n` with exponent `s` (precomputed CDF).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n.max(1) {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Rank for a uniform draw `u` in `[0, 1)` (0 = most popular).
    pub fn rank(&self, u: f64) -> u32 {
        (self.cdf.partition_point(|&c| c < u) as u32).min(self.cdf.len() as u32 - 1)
    }

    /// Probability mass of `rank`.
    pub fn mass(&self, rank: u32) -> f64 {
        let r = rank as usize;
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    pub fn len(&self) -> u32 {
        self.cdf.len() as u32
    }
}

/// The fields of an event the queries (and therefore the oracle) read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Core {
    pub card: u32,
    pub merchant: u32,
    /// A multiple of 0.25, so window sums are exact in `f64` whatever the
    /// order of additions and subtractions — the oracle can compare
    /// value-for-value instead of within a tolerance.
    pub amount: f64,
    /// Event time in ms.
    pub ts: i64,
    /// Arrives after events with a larger timestamp.
    pub late: bool,
}

/// Number of distinct filler tuples cycled under the 103-field payload.
const FILLER_POOL: usize = 4096;
/// Fields of the paper's dataset.
pub const FULL_FIELDS: usize = 103;
/// First event's timestamp; late events subtract from it, so keep it
/// comfortably positive.
const BASE_TS_MS: i64 = 1_000_000;

/// Stream generator of one workload.
pub struct EventGen {
    seed: u64,
    cards: Zipf,
    merchants: Zipf,
    spacing_ms: i64,
    /// Share of events arriving late, as a threshold on a `u64` draw.
    late_cut: u64,
    late_max_ms: u64,
    /// `Some` for the 103-field payload: fields 3.. of each pool entry.
    filler: Option<Vec<Vec<Value>>>,
}

impl EventGen {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        cards: u32,
        merchants: u32,
        zipf_s: f64,
        spacing_ms: i64,
        late_share: f64,
        late_max_ms: u64,
        full_payload: bool,
    ) -> Self {
        let filler = full_payload.then(|| {
            let mut rng = Rng::new(mix(seed ^ 0x00F1_11E4));
            (0..FILLER_POOL).map(|_| filler_fields(&mut rng)).collect()
        });
        EventGen {
            seed,
            cards: Zipf::new(cards, zipf_s),
            merchants: Zipf::new(merchants, zipf_s),
            spacing_ms,
            late_cut: (late_share * u64::MAX as f64) as u64,
            late_max_ms,
            filler,
        }
    }

    pub fn cards(&self) -> &Zipf {
        &self.cards
    }

    pub fn merchants(&self) -> &Zipf {
        &self.merchants
    }

    /// The queried fields of event `i`.
    pub fn core(&self, i: u64) -> Core {
        let h = mix(self.seed ^ mix(i));
        let h2 = mix(h);
        let h3 = mix(h2);
        let h4 = mix(h3);
        let on_time = BASE_TS_MS + i as i64 * self.spacing_ms;
        let late = h4 < self.late_cut;
        let ts = if late {
            on_time - 1 - (mix(h4) % self.late_max_ms.max(1)) as i64
        } else {
            on_time
        };
        Core {
            card: self.cards.rank(unit(h)),
            merchant: self.merchants.rank(unit(h2)),
            amount: (4 + h3 % 1996) as f64 * 0.25,
            ts,
            late,
        }
    }

    /// Event `i` as the engine receives it.
    pub fn event(&self, i: u64) -> (Timestamp, Vec<Value>) {
        let c = self.core(i);
        let mut values = Vec::with_capacity(if self.filler.is_some() {
            FULL_FIELDS
        } else {
            3
        });
        values.push(Value::Str(card_id(c.card)));
        values.push(Value::Str(merchant_id(c.merchant)));
        values.push(Value::Float(c.amount));
        if let Some(pool) = &self.filler {
            values.extend_from_slice(&pool[(i % FILLER_POOL as u64) as usize]);
        }
        (Timestamp::from_millis(c.ts), values)
    }

    /// Events `from..to`, built ahead of a timed segment.
    pub fn batch(&self, from: u64, to: u64) -> Vec<(Timestamp, Vec<Value>)> {
        (from..to).map(|i| self.event(i)).collect()
    }
}

pub fn card_id(rank: u32) -> String {
    format!("card-{rank:08}")
}

pub fn merchant_id(rank: u32) -> String {
    format!("merch-{rank:06}")
}

const COUNTRIES: [&str; 12] = [
    "PT", "US", "GB", "DE", "FR", "ES", "BR", "NL", "IT", "PL", "IN", "SG",
];
const CURRENCIES: [&str; 8] = ["EUR", "USD", "GBP", "BRL", "PLN", "INR", "SGD", "CHF"];
const CHANNELS: [&str; 5] = ["pos", "ecom", "moto", "atm", "recurring"];
const ENTRY_MODES: [&str; 6] = [
    "chip",
    "swipe",
    "contactless",
    "manual",
    "token",
    "fallback",
];

/// Name and type of every field after `cardId, merchantId, amount`:
/// low-cardinality categoricals, flags, counters and scores, the shape of
/// a payment event (the paper's dataset has 103 fields).
fn filler_schema() -> Vec<(String, FieldType)> {
    let mut fields: Vec<(String, FieldType)> = [
        ("country", FieldType::Str),
        ("currency", FieldType::Str),
        ("channel", FieldType::Str),
        ("entryMode", FieldType::Str),
        ("isCardPresent", FieldType::Bool),
        ("mcc", FieldType::Int),
        ("terminalId", FieldType::Str),
    ]
    .iter()
    .map(|(n, t)| ((*n).to_owned(), *t))
    .collect();
    let mut i = 0;
    while fields.len() < FULL_FIELDS - 3 {
        let (tag, ty) = [
            ("s", FieldType::Str),
            ("x", FieldType::Float),
            ("n", FieldType::Int),
            ("b", FieldType::Bool),
        ][i % 4];
        fields.push((format!("f_{tag}{i:02}"), ty));
        i += 1;
    }
    fields
}

fn filler_fields(rng: &mut Rng) -> Vec<Value> {
    let pick =
        |rng: &mut Rng, set: &[&str]| Value::Str(set[rng.below(set.len() as u64) as usize].into());
    let mut v = vec![
        pick(rng, &COUNTRIES),
        pick(rng, &CURRENCIES),
        pick(rng, &CHANNELS),
        pick(rng, &ENTRY_MODES),
        Value::Bool(rng.unit() < 0.7),
        Value::Int(3000 + rng.below(3000) as i64),
        Value::Str(format!("term-{:05}", rng.below(20_000))),
    ];
    let mut i = 0;
    while v.len() < FULL_FIELDS - 3 {
        let value = match i % 4 {
            0 => Value::Str(format!("v{}", rng.below(50))),
            1 => Value::Float(rng.unit()),
            2 => Value::Int(rng.below(1000) as i64),
            _ => Value::Bool(rng.unit() < 0.5),
        };
        // ~2% NULLs, as real datasets have.
        v.push(if rng.unit() < 0.02 {
            Value::Null
        } else {
            value
        });
        i += 1;
    }
    v
}

/// The stream schema: 3 fields, or the 103-field payload.
pub fn schema(full_payload: bool) -> Schema {
    let mut fields = vec![
        ("cardId".to_owned(), FieldType::Str),
        ("merchantId".to_owned(), FieldType::Str),
        ("amount".to_owned(), FieldType::Float),
    ];
    if full_payload {
        fields.extend(filler_schema());
    }
    let pairs: Vec<(&str, FieldType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::from_pairs(&pairs).expect("static schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> EventGen {
        EventGen::new(seed, 50_000, 5_000, 1.05, 5, 0.02, 500, true)
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_differs() {
        let (a, b, c) = (gen(7), gen(7), gen(8));
        for i in [0, 1, 999, 123_456] {
            assert_eq!(a.event(i), b.event(i));
        }
        assert!((0..100).any(|i| a.core(i) != c.core(i)));
    }

    #[test]
    fn full_payload_matches_its_schema() {
        let g = gen(1);
        let s = schema(true);
        assert_eq!(s.len(), FULL_FIELDS);
        for i in 0..200 {
            s.check_values(&g.event(i).1).expect("valid event");
        }
        schema(false)
            .check_values(&EventGen::new(1, 10, 10, 1.0, 5, 0.0, 0, false).event(3).1)
            .expect("valid compact event");
    }

    #[test]
    fn late_events_trail_their_slot_by_at_most_the_cap() {
        let g = gen(3);
        let mut late = 0;
        for i in 0..50_000u64 {
            let c = g.core(i);
            let slot = BASE_TS_MS + i as i64 * 5;
            if c.late {
                late += 1;
                assert!(c.ts < slot && c.ts >= slot - 500);
            } else {
                assert_eq!(c.ts, slot);
            }
        }
        assert!((700..1300).contains(&late), "about 2% late, got {late}");
    }

    #[test]
    fn zipf_is_skewed_and_its_masses_sum_to_one() {
        let z = Zipf::new(1000, 1.05);
        assert!(z.mass(0) > 10.0 * z.mass(99));
        let total: f64 = (0..1000).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 999);
    }
}
