//! The benchmark's fixed inputs: platform files and the seeded
//! platforms of serve misses. The program only ever sees their text.

use crate::report::Rng;

/// The paper's Table 1 testbed (§5.1): 16 processors, linear costs,
/// root `dinadan`, where the data set lives.
pub const TABLE1: &str = "\
# Table 1 of Genaud, Giersch & Vivien (IPPS 2003): seconds per ray
proc dinadan   beta=0       alpha=0.009288
proc pellinore beta=1.12e-5 alpha=0.009365
proc caseb     beta=1.00e-5 alpha=0.004629
proc sekhmet   beta=1.70e-5 alpha=0.004885
proc merlin-1  beta=8.15e-5 alpha=0.003976
proc merlin-2  beta=8.15e-5 alpha=0.003976
proc seven-1   beta=2.10e-5 alpha=0.016156
proc seven-2   beta=2.10e-5 alpha=0.016156
proc leda-1    beta=3.53e-5 alpha=0.009677
proc leda-2    beta=3.53e-5 alpha=0.009677
proc leda-3    beta=3.53e-5 alpha=0.009677
proc leda-4    beta=3.53e-5 alpha=0.009677
proc leda-5    beta=3.53e-5 alpha=0.009677
proc leda-6    beta=3.53e-5 alpha=0.009677
proc leda-7    beta=3.53e-5 alpha=0.009677
proc leda-8    beta=3.53e-5 alpha=0.009677
root dinadan
";

/// The paper's data set size: rays of the 1999 seismic catalogue.
pub const N_RAYS: usize = 817_101;

/// The synthetic affine platform of `gs_bench::experiments::runtimes::
/// dp_perf_platform(p)` for `p > 16`, as platform-file text: dyadic,
/// compute-dominated coefficients varying with the index, root first.
pub fn affine_platform(p: usize) -> String {
    let two = |e: i32| 2f64.powi(e);
    let mut text = String::from("# synthetic affine platform (dyadic coefficients)\n");
    text.push_str("proc root beta=0 alpha=0.004 comp_intercept=0.001\n");
    for i in 1..p {
        let comm_i = two(-20) + (i % 7) as f64 * two(-22);
        let comm_s = two(-26) + (i % 5) as f64 * two(-28);
        let comp_i = two(-10) + (i % 3) as f64 * two(-11);
        let comp_s = two(-9) + (i % 13) as f64 * two(-12);
        text.push_str(&format!(
            "proc s{i} beta={comm_s} alpha={comp_s} comm_intercept={comm_i} comp_intercept={comp_i}\n"
        ));
    }
    text.push_str("root root\n");
    text
}

/// A fresh `p`-processor linear platform for a serve miss. Link and CPU
/// slopes are drawn from a fixed grid of 16 dyadic values each, so the
/// daemon's cost tables stay bounded however many misses it answers;
/// the drawn combination (and the caller's item count) makes the key
/// new.
pub fn miss_platform(rng: &mut Rng, p: usize) -> String {
    let mut text = String::new();
    for i in 0..p {
        let beta = if i == 0 { 0.0 } else { rng.range(1, 17) as f64 * 2f64.powi(-20) };
        let alpha = rng.range(1, 17) as f64 * 2f64.powi(-12);
        text.push_str(&format!("proc m{i} beta={beta} alpha={alpha}\n"));
    }
    text.push_str("root m0\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_scatter::platform_file::parse_platform;

    #[test]
    fn inputs_parse() {
        assert_eq!(parse_platform(TABLE1).unwrap().len(), 16);
        let affine = parse_platform(&affine_platform(32)).unwrap();
        assert_eq!(affine.len(), 32);
        assert_eq!(
            affine.procs()[5].comm.affine_params(),
            Some((2f64.powi(-20) + 5.0 * 2f64.powi(-22), 2f64.powi(-26)))
        );
        let miss = parse_platform(&miss_platform(&mut Rng::new(1), 8)).unwrap();
        assert_eq!(miss.len(), 8);
    }
}
