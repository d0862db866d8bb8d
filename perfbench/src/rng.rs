//! The benchmark's own seeded generator (SplitMix64), so the generated
//! inputs depend on `--seed` alone and never on the program under test.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order() {
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        let (mut x, mut y): (Vec<u32>, Vec<u32>) = ((0..50).collect(), (0..50).collect());
        a.shuffle(&mut x);
        b.shuffle(&mut y);
        assert_eq!(x, y);
        let mut z: Vec<u32> = (0..50).collect();
        SplitMix64::new(8).shuffle(&mut z);
        assert_ne!(x, z);
        x.sort();
        assert_eq!(x, (0..50).collect::<Vec<_>>());
    }
}
