//! Seeded input generation: the random stream, the Zipf sampler, and the
//! self-describing key/value encoding every correctness check relies on.
//!
//! All of it lives here, not in a program crate, so that a change to the
//! program can never change the workload it is measured on.

/// xoshiro256** seeded through SplitMix64: fast, and the same seed always
/// yields the same stream.
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream for `(seed, stream)`: each load generator gets its own.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut x = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Self {
            s: [
                splitmix(&mut x),
                splitmix(&mut x),
                splitmix(&mut x),
                splitmix(&mut x),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// key-space sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipfian ranks over `0..n` with skew `theta` in `(0, 1)`: Gray et al.'s
/// "Quickly generating billion-record synthetic databases" sampler, the one
/// YCSB uses. Rank 0 is the hottest key.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "zipf needs n >= 2, 0 < theta < 1"
        );
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// How the keys of one workload are drawn.
#[derive(Clone, Copy, Debug)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// A key sampler over `0..n`.
pub enum Keys {
    Uniform(u64),
    Zipf(Zipf),
}

impl Keys {
    pub fn new(n: u64, dist: KeyDist) -> Self {
        match dist {
            KeyDist::Uniform => Keys::Uniform(n),
            KeyDist::Zipf(theta) => Keys::Zipf(Zipf::new(n, theta)),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            Keys::Uniform(n) => rng.below(*n),
            Keys::Zipf(z) => z.sample(rng),
        }
    }
}

/// The wire/storage form of key id `k`.
pub fn key_bytes(k: u64) -> Vec<u8> {
    format!("key{k:08}").into_bytes()
}

/// Every stored value is exactly this long.
pub const VALUE_LEN: usize = 100;

fn pattern_byte(key: u64, version: u64, i: usize) -> u8 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (h.rotate_left((i % 64) as u32) as u8) ^ (i as u8)
}

/// The value written for `key` at `version`: the key id and version in
/// the first 16 bytes, then a filler derived from both, so a value that
/// belongs to another key, or was torn, fails [`check_value`].
pub fn value_bytes(key: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.extend((16..VALUE_LEN).map(|i| pattern_byte(key, version, i)));
    v
}

/// The version `value` carries, if it is a well-formed value of `key`.
pub fn check_value(key: u64, value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_LEN {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(value[at..at + 8].try_into().expect("8 bytes"));
    let (tag, version) = (word(0), word(8));
    let filler_ok = (16..VALUE_LEN).all(|i| value[i] == pattern_byte(key, version, i));
    (tag == key && filler_ok).then_some(version)
}

/// Per-writer version bookkeeping. Writer `w` of `writers` owns the keys
/// `k` with `k % writers == w` and is their only writer, so a read of an
/// owned key must return exactly the writer's latest version.
pub struct Versions {
    writer: u64,
    writers: u64,
    latest: Vec<u64>,
}

impl Versions {
    /// Every key starts at version 0, the preload.
    pub fn new(writer: u64, writers: u64, keys: u64) -> Self {
        Self {
            writer,
            writers,
            latest: vec![0; keys.div_ceil(writers) as usize],
        }
    }

    /// The owned key nearest to `k` (same stride block).
    pub fn owned(&self, k: u64) -> u64 {
        k - k % self.writers + self.writer
    }

    pub fn is_owned(&self, k: u64) -> bool {
        k % self.writers == self.writer
    }

    pub fn latest(&self, k: u64) -> u64 {
        self.latest[(k / self.writers) as usize]
    }

    /// Assigns and returns the next version of owned key `k`.
    pub fn bump(&mut self, k: u64) -> u64 {
        let slot = &mut self.latest[(k / self.writers) as usize];
        *slot += 1;
        *slot
    }
}

/// What the reply to one generated op must look like.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A write acknowledgement.
    Done,
    /// A value of `key`; when the key is owned, its version must lie in
    /// `min..=max` (`max` covers a later write to the same key in the same
    /// batch, which a concurrent freeze may make visible early).
    Value { key: u64, owned: bool, min: u64 },
}

/// One generated batch: the ops' key ids, values and expectations.
pub struct Batch {
    pub keys: Vec<u64>,
    pub puts: Vec<Option<Vec<u8>>>,
    pub expect: Vec<Expect>,
}

impl Batch {
    /// Draws `n` ops: a GET with probability `read_pct`%, otherwise a PUT
    /// to the writer's owned key nearest the drawn one.
    pub fn draw(n: usize, read_pct: u64, keys: &Keys, rng: &mut Rng, v: &mut Versions) -> Self {
        let mut b = Batch {
            keys: Vec::with_capacity(n),
            puts: Vec::with_capacity(n),
            expect: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let k = keys.sample(rng);
            if rng.below(100) < read_pct {
                let owned = v.is_owned(k);
                let min = if owned { v.latest(k) } else { 0 };
                b.keys.push(k);
                b.puts.push(None);
                b.expect.push(Expect::Value { key: k, owned, min });
            } else {
                let k = v.owned(k);
                let version = v.bump(k);
                b.keys.push(k);
                b.puts.push(Some(value_bytes(k, version)));
                b.expect.push(Expect::Done);
            }
        }
        b
    }

    /// Checks a GET reply (`None` = not found) against op `i`. Returns
    /// whether it passed.
    pub fn check_get(&self, i: usize, got: Option<&[u8]>, v: &Versions) -> bool {
        let Expect::Value { key, owned, min } = self.expect[i] else {
            return false;
        };
        match got.and_then(|val| check_value(key, val)) {
            Some(version) => !owned || (min..=v.latest(key)).contains(&version),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut rng = Rng::new(1, 0);
        let draws: Vec<u64> = (0..100_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1 << 16));
        let hot = draws.iter().filter(|&&r| r < 16).count();
        assert!(hot > 20_000, "top 16 ranks drew only {hot} of 100k");
    }

    #[test]
    fn values_round_trip_and_reject_foreign_keys() {
        let v = value_bytes(42, 7);
        assert_eq!(check_value(42, &v), Some(7));
        assert_eq!(check_value(43, &v), None);
        let mut torn = v.clone();
        torn[50] ^= 1;
        assert_eq!(check_value(42, &torn), None);
    }

    #[test]
    fn owned_keys_partition_the_space() {
        let v0 = Versions::new(0, 2, 10);
        let v1 = Versions::new(1, 2, 10);
        for k in 0..10 {
            assert!(v0.is_owned(v0.owned(k)) && v1.is_owned(v1.owned(k)));
            assert_ne!(v0.is_owned(k), v1.is_owned(k));
        }
    }
}
