//! Seeded inputs. Everything a workload sends to the service is derived
//! here from the run's `--seed`; the program under test only ever sees
//! the generated matrices and right-hand sides.

use azul_sparse::suite::{self, Scale};
use azul_sparse::Csr;

/// SplitMix64: tiny, fast and fully specified, so the same seed gives
/// the same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`. Streams keep
    /// the operator scalings and each request's right-hand side
    /// independent of how many requests a run happens to complete.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The Table IV analog `name` at `Scale::Small`.
pub fn base_operator(name: &str) -> Csr {
    suite::by_name(name)
        .unwrap_or_else(|| panic!("{name} is not a suite matrix"))
        .build(Scale::Small)
}

/// `D·A·D` with a seeded diagonal `d_i = 2^u`, `u` uniform in
/// `[-1/2, 1/2)`. The sparsity pattern and SPD-ness are kept, the
/// values (and so the service's operator key) change with the seed.
/// `d_i·d_j` is formed before it multiplies `a_ij`, so the scaled
/// matrix stays exactly symmetric.
pub fn rescaled(base: &Csr, rng: &mut Rng) -> Csr {
    let d: Vec<f64> = (0..base.rows())
        .map(|_| (rng.unit() - 0.5).exp2())
        .collect();
    let mut a = base.clone();
    let row_ptr = a.row_ptr().to_vec();
    let col_idx = a.col_idx().to_vec();
    let values = a.values_mut();
    for (i, row) in row_ptr.windows(2).enumerate() {
        for p in row[0]..row[1] {
            values[p] *= d[i] * d[col_idx[p]];
        }
    }
    a
}

/// A right-hand side with entries uniform in `[-1, 1)`.
pub fn rhs(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect()
}
