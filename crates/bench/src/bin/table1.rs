//! Table 1: grid definitions of the QAOA ansatz.

use oscar_core::grid::{Grid2d, Shape};

fn main() {
    oscar_bench::print_header("Table 1", "grid definitions of the QAOA ansatz");
    let p1 = Grid2d::standard_p1();
    let p2 = Shape::qaoa(2, 12, 15).to_tensor();
    // Axes 0-1 are the two β parameters, axes 2-3 the two γ parameters.
    let (beta, gamma) = (p2.axes()[0], p2.axes()[2]);
    println!(
        "{:<7}{:<30}{:<30}{:<15}",
        "Depth", "beta range, #samples", "gamma range, #samples", "Total #samples"
    );
    println!(
        "{:<7}{:<30}{:<30}{:<15}",
        "p=1",
        format!("[{:.4}, {:.4}], {}", p1.beta.lo, p1.beta.hi, p1.beta.n),
        format!("[{:.4}, {:.4}], {}", p1.gamma.lo, p1.gamma.hi, p1.gamma.n),
        format!("{} x {} = {}", p1.beta.n, p1.gamma.n, p1.len()),
    );
    println!(
        "{:<7}{:<30}{:<30}{:<15}",
        "p=2",
        format!("[{:.4}, {:.4}], {}", beta.lo, beta.hi, beta.n),
        format!("[{:.4}, {:.4}], {}", gamma.lo, gamma.hi, gamma.n),
        format!("{}^2 x {}^2 = {}", beta.n, gamma.n, p2.len()),
    );
    println!("\npaper: p=1 -> 5k samples, p=2 -> 32k samples (12^2 x 15^2 = 32,400).");
}
