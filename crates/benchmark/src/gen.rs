//! The stationary, reproducible delta generator.
//!
//! `gpivot_tpch::workload` cannot drive long runs: its generators sample
//! from the *catalog* (whose row order after `apply_delta` follows
//! `HashMap` iteration, so one seed gives different schedules run to run)
//! and `insert_new_rows` runs out of empty orders after one large batch.
//! This generator keeps its own canonically ordered model of the database
//! and draws every choice from one seeded PRNG, so a seed fixes the whole
//! schedule; the program under test receives only the generated deltas.
//!
//! Every batch carries the same mix — the TPC-H refresh pair (new orders
//! with their lineitems, whole-order deletes) in equal numbers, price
//! updates and order re-datings as −/+ pairs, customer nation moves — so
//! epochs are comparable and table sizes stay level over a run.

use gpivot_storage::value::days_from_date;
use gpivot_storage::{Catalog, Delta, Row, Table, Value};
use gpivot_tpch::gen::{customer_schema, lineitem_schema, orders_schema, YEARS};

/// SplitMix64: the benchmark owns its PRNG so the schedule does not move
/// when the workspace's `rand` stand-in is swapped for the real crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Inverse-CDF sampler for Zipf(s) over ranks `1..=n`.
#[derive(Debug, Clone)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> i64 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) + 1) as i64
    }
}

#[derive(Debug, Clone)]
struct Order {
    row: Row,
    lines: Vec<Row>,
}

/// How many operations of each kind one batch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// New orders inserted, and equally many whole orders deleted.
    pub order_turnover: usize,
    /// Lineitem price updates (−/+ pair each).
    pub price_updates: usize,
    /// Orders moved to a new date and year (−/+ pair each).
    pub redates: usize,
    /// Customers moved to a new nation (−/+ pair each).
    pub nation_moves: usize,
    /// Orders inserted early in the epoch and deleted again before its
    /// refresh: they cancel in the ingest queue and reach no table.
    pub transient_orders: usize,
}

/// Expected row-changes of one new or deleted order: its own row plus the
/// generator's 10 % empty / 1–7 lines split.
const ROWS_PER_ORDER: f64 = 1.0 + 0.9 * 4.0;

impl Mix {
    /// The fixed mix scaled to about `rows` surviving row-changes per
    /// batch, plus `cancelling_rows` that cancel before the refresh.
    pub fn for_rows(rows: f64, cancelling_rows: f64) -> Self {
        let n = |share: f64, per_op: f64| ((rows * share / per_op).round() as usize).max(1);
        Mix {
            order_turnover: n(0.70, 2.0 * ROWS_PER_ORDER),
            price_updates: n(0.20, 2.0),
            redates: n(0.06, 2.0),
            nation_moves: n(0.04, 2.0),
            transient_orders: (cancelling_rows / (2.0 * ROWS_PER_ORDER)).round() as usize,
        }
    }
}

/// One `ingest_with` call's worth of changes to one table.
#[derive(Debug, Clone)]
pub struct Call {
    pub table: &'static str,
    pub delta: Delta,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tbl {
    Customer,
    Orders,
    Lineitem,
}

impl Tbl {
    fn name(self) -> &'static str {
        match self {
            Tbl::Customer => "customer",
            Tbl::Orders => "orders",
            Tbl::Lineitem => "lineitem",
        }
    }
}

/// FNV-1a over the canonical byte image of every generated change, in
/// generation order.
#[derive(Debug, Clone)]
struct Fingerprint(u64);

impl Fingerprint {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn change(&mut self, table: Tbl, row: &Row, weight: i64) {
        self.bytes(&[table as u8]);
        self.bytes(&weight.to_le_bytes());
        for v in row.values() {
            match v {
                Value::Null => self.bytes(&[0]),
                Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
                Value::Int(i) => self.bytes(&i.to_le_bytes()),
                Value::Float(f) => self.bytes(&f.to_bits().to_le_bytes()),
                Value::Str(s) => self.bytes(s.as_bytes()),
                Value::Date(d) => self.bytes(&d.to_le_bytes()),
            }
        }
    }
}

/// The generator: a canonically ordered model of the three maintained
/// tables plus the PRNG that mutates it.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    customers: Vec<Row>,
    orders: Vec<Order>,
    parts: Table,
    n_parts: i64,
    next_orderkey: i64,
    mix: Mix,
    /// Present on the skewed workload: `o_custkey` of new orders is drawn
    /// Zipf over customer ranks (rank = `c_custkey`) instead of uniform.
    zipf: Option<Zipf>,
    /// Split each table's changes into calls of at most this many
    /// row-changes (`None` = one call per table per batch).
    max_rows_per_call: Option<usize>,
    fingerprint: Fingerprint,
    batches: usize,
}

/// The schedule fingerprint covers this many leading batches, so runs
/// that measure for a time rather than a count still agree on it.
pub const FINGERPRINT_BATCHES: usize = 16;

impl Generator {
    /// Build the model from a freshly generated catalog (whose row order
    /// is the generator's insertion order, hence deterministic).
    pub fn new(
        catalog: &Catalog,
        seed: u64,
        mix: Mix,
        zipf_s: Option<f64>,
        max_rows_per_call: Option<usize>,
    ) -> Self {
        let table = |name: &str| catalog.table(name).expect("tpch table exists");
        let customers: Vec<Row> = table("customer").rows().to_vec();
        let mut orders: Vec<Order> = table("orders")
            .rows()
            .iter()
            .map(|row| Order {
                row: row.clone(),
                lines: Vec::new(),
            })
            .collect();
        // `generate` numbers orders 1..=n in insertion order.
        for line in table("lineitem").rows() {
            let key = line[0].as_i64().expect("l_orderkey is an integer");
            orders[(key - 1) as usize].lines.push(line.clone());
        }
        let parts = table("part").clone();
        Generator {
            rng: Rng::new(seed),
            zipf: zipf_s.map(|s| Zipf::new(customers.len(), s)),
            n_parts: parts.len().max(1) as i64,
            next_orderkey: orders.len() as i64 + 1,
            customers,
            orders,
            parts,
            mix,
            max_rows_per_call,
            fingerprint: Fingerprint(0xCBF2_9CE4_8422_2325),
            batches: 0,
        }
    }

    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// Hash of the first [`FINGERPRINT_BATCHES`] batches, cut to 48 bits
    /// so it survives a trip through a JSON number unchanged.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.0 & 0xFFFF_FFFF_FFFF
    }

    /// Batches generated so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    fn new_order(&mut self, key: i64) -> Order {
        let rng = &mut self.rng;
        let custkey = match &self.zipf {
            Some(z) => z.sample(rng),
            None => rng.range(1, self.customers.len() as i64),
        };
        let (date, year) = random_date(rng);
        let row = Row::new(vec![
            Value::Int(key),
            Value::Int(custkey),
            Value::Date(date),
            Value::Int(year),
            Value::Float(rng.range(1_000, 499_999) as f64),
        ]);
        let n_lines = if rng.unit() < 0.1 { 0 } else { rng.range(1, 7) };
        let lines = (1..=n_lines)
            .map(|ln| {
                Row::new(vec![
                    Value::Int(key),
                    Value::Int(ln),
                    Value::Int(rng.range(1, self.n_parts)),
                    Value::Int(rng.range(1, 50)),
                    Value::Float(rng.range(1_000, 99_999) as f64),
                    Value::Date(date + rng.range(1, 120) as i32),
                ])
            })
            .collect();
        Order { row, lines }
    }

    /// `n` distinct indices into `orders`, in draw order.
    fn distinct_orders(&mut self, n: usize) -> Vec<usize> {
        let n = n.min(self.orders.len() / 2);
        let mut taken = std::collections::HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let i = self.rng.below(self.orders.len() as u64) as usize;
            if taken.insert(i) {
                out.push(i);
            }
        }
        out
    }

    /// Generate the next batch and advance the model past it. Returns the
    /// `ingest_with` calls in submission order.
    pub fn next_batch(&mut self) -> Vec<Call> {
        let mix = self.mix;
        let mut ops: Vec<(Tbl, Row, i64)> = Vec::new();

        // Transient orders: inserted first, deleted last, so the pair
        // spans the whole epoch's submissions.
        let transient: Vec<Order> = (0..mix.transient_orders)
            .map(|_| {
                let key = self.next_orderkey;
                self.next_orderkey += 1;
                self.new_order(key)
            })
            .collect();
        for o in &transient {
            ops.push((Tbl::Orders, o.row.clone(), 1));
        }
        for o in &transient {
            ops.extend(o.lines.iter().map(|l| (Tbl::Lineitem, l.clone(), 1)));
        }

        // Customer nation moves (the grouping column of view 3).
        for _ in 0..mix.nation_moves {
            let i = self.rng.below(self.customers.len() as u64) as usize;
            let old = self.customers[i].clone();
            let mut new = old.to_vec();
            let nation = new[2].as_i64().expect("c_nationkey is an integer");
            new[2] = Value::Int((nation + self.rng.range(1, 24)) % 25);
            let new = Row::new(new);
            // A customer drawn twice in one batch nets to one move.
            ops.push((Tbl::Customer, old, -1));
            ops.push((Tbl::Customer, new.clone(), 1));
            self.customers[i] = new;
        }

        // One disjoint draw covers deletes, re-datings and price updates,
        // so no order is changed twice in a batch.
        let picked = self.distinct_orders(mix.order_turnover + mix.redates + mix.price_updates);
        let (victims, rest) = picked.split_at(mix.order_turnover.min(picked.len()));
        let (redated, repriced) = rest.split_at(mix.redates.min(rest.len()));

        let fresh: Vec<Order> = (0..victims.len())
            .map(|_| {
                let key = self.next_orderkey;
                self.next_orderkey += 1;
                self.new_order(key)
            })
            .collect();
        let mut line_ops: Vec<(Tbl, Row, i64)> = Vec::new();
        for o in &fresh {
            ops.push((Tbl::Orders, o.row.clone(), 1));
            line_ops.extend(o.lines.iter().map(|l| (Tbl::Lineitem, l.clone(), 1)));
        }
        for &i in victims {
            let o = &self.orders[i];
            ops.push((Tbl::Orders, o.row.clone(), -1));
            line_ops.extend(o.lines.iter().map(|l| (Tbl::Lineitem, l.clone(), -1)));
        }
        for &i in redated {
            let old = self.orders[i].row.clone();
            let mut new = old.to_vec();
            let (date, year) = random_date(&mut self.rng);
            new[2] = Value::Date(date);
            new[3] = Value::Int(year);
            let new = Row::new(new);
            ops.push((Tbl::Orders, old, -1));
            ops.push((Tbl::Orders, new.clone(), 1));
            self.orders[i].row = new;
        }
        for &i in repriced {
            let n_lines = self.orders[i].lines.len();
            if n_lines == 0 {
                continue;
            }
            let j = self.rng.below(n_lines as u64) as usize;
            let old = self.orders[i].lines[j].clone();
            let mut new = old.to_vec();
            new[4] = Value::Float(self.rng.range(1_000, 99_999) as f64);
            let new = Row::new(new);
            line_ops.push((Tbl::Lineitem, old, -1));
            line_ops.push((Tbl::Lineitem, new.clone(), 1));
            self.orders[i].lines[j] = new;
        }
        ops.append(&mut line_ops);

        // Advance the model: remove victims from the back so earlier
        // indices stay valid, then append the new orders.
        let mut doomed = victims.to_vec();
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        for i in doomed {
            self.orders.swap_remove(i);
        }
        self.orders.extend(fresh);

        for o in &transient {
            ops.extend(o.lines.iter().map(|l| (Tbl::Lineitem, l.clone(), -1)));
        }
        for o in &transient {
            ops.push((Tbl::Orders, o.row.clone(), -1));
        }

        self.batches += 1;
        if self.batches <= FINGERPRINT_BATCHES {
            for (t, row, w) in &ops {
                self.fingerprint.change(*t, row, *w);
            }
        }
        self.group_into_calls(ops)
    }

    /// Group the change sequence into single-table calls: all of a table's
    /// changes in one call, or — when calls are size-capped — runs of
    /// consecutive same-table changes cut at the cap, preserving order.
    fn group_into_calls(&self, ops: Vec<(Tbl, Row, i64)>) -> Vec<Call> {
        let mut calls: Vec<(Tbl, Delta, usize)> = Vec::new();
        match self.max_rows_per_call {
            None => {
                for t in [Tbl::Customer, Tbl::Orders, Tbl::Lineitem] {
                    calls.push((t, Delta::new(), 0));
                }
                for (t, row, w) in ops {
                    calls[t as usize].1.add(row, w);
                }
            }
            Some(cap) => {
                for (t, row, w) in ops {
                    match calls.last_mut() {
                        Some((lt, delta, n)) if *lt == t && *n < cap => {
                            delta.add(row, w);
                            *n += 1;
                        }
                        _ => {
                            let mut delta = Delta::new();
                            delta.add(row, w);
                            calls.push((t, delta, 1));
                        }
                    }
                }
            }
        }
        calls
            .into_iter()
            .filter(|(_, delta, _)| !delta.is_empty())
            .map(|(t, delta, _)| Call {
                table: t.name(),
                delta,
            })
            .collect()
    }

    /// The model as a catalog: what the base tables must hold once every
    /// generated batch has been committed.
    pub fn mirror_catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        let customers = Table::from_rows(customer_schema(), self.customers.clone());
        let orders = Table::from_rows(
            orders_schema(),
            self.orders.iter().map(|o| o.row.clone()).collect(),
        );
        let lineitem = Table::from_rows(
            lineitem_schema(),
            self.orders
                .iter()
                .flat_map(|o| o.lines.iter().cloned())
                .collect(),
        );
        c.register("part", self.parts.clone())
            .expect("fresh catalog");
        c.register("customer", customers.expect("model keeps c_custkey unique"))
            .expect("fresh catalog");
        c.register("orders", orders.expect("model keeps o_orderkey unique"))
            .expect("fresh catalog");
        c.register(
            "lineitem",
            lineitem.expect("model keeps lineitem keys unique"),
        )
        .expect("fresh catalog");
        c
    }
}

fn random_date(rng: &mut Rng) -> (i32, i64) {
    let year = YEARS[rng.below(YEARS.len() as u64) as usize];
    let date = days_from_date(year, rng.range(1, 12) as u32, rng.range(1, 28) as u32);
    (date, i64::from(year))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_tpch::{generate, TpchConfig};

    fn generator(seed: u64, cap: Option<usize>) -> Generator {
        let catalog = generate(&TpchConfig {
            seed,
            ..TpchConfig::scale(0.02)
        });
        Generator::new(&catalog, seed, Mix::for_rows(40.0, 20.0), Some(1.1), cap)
    }

    #[test]
    fn one_seed_gives_one_schedule_and_seeds_differ() {
        let run = |seed| {
            let mut g = generator(seed, None);
            for _ in 0..FINGERPRINT_BATCHES + 2 {
                g.next_batch();
            }
            g.fingerprint()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn batches_apply_cleanly_and_the_mirror_tracks_them() {
        let mut g = generator(3, Some(8));
        let mut catalog = g.mirror_catalog();
        for _ in 0..20 {
            let mut merged: std::collections::BTreeMap<&str, Delta> = Default::default();
            for call in g.next_batch() {
                assert!(call.delta.total_multiplicity() <= 8);
                merged.entry(call.table).or_default().merge(&call.delta);
            }
            for (table, delta) in &merged {
                catalog.apply_delta(table, delta).expect("batch applies");
            }
        }
        let mirror = g.mirror_catalog();
        for t in ["customer", "orders", "lineitem"] {
            assert!(catalog.table(t).unwrap().bag_eq(mirror.table(t).unwrap()));
        }
    }

    #[test]
    fn table_sizes_stay_level() {
        let mut g = generator(5, None);
        let rows = |g: &Generator, t: &str| g.mirror_catalog().table(t).unwrap().len();
        let (lines, orders) = (rows(&g, "lineitem") as f64, rows(&g, "orders"));
        for _ in 0..200 {
            g.next_batch();
        }
        assert_eq!(rows(&g, "orders"), orders);
        let drift = (rows(&g, "lineitem") as f64 - lines).abs() / lines;
        assert!(drift < 0.15, "lineitem drifted {drift}");
    }
}
