//! Strong/weak scaling study (Fig. 13): model both supercomputers AND run
//! the real distributed SSE schemes on the thread-backed MPI world at
//! reduced scale, comparing measured communication bytes against the
//! closed-form model.
//!
//! ```sh
//! cargo run --release --example scaling_sim
//! ```

use dace_omen::core::device::Device;
use dace_omen::core::gf::{self, GfConfig};
use dace_omen::core::grids::Grids;
use dace_omen::core::hamiltonian::{ElectronModel, PhononModel};
use dace_omen::core::sse;
use dace_omen::model::scaling;
use dace_omen::prelude::*;

fn main() {
    // ---- Part 1: model-scale reproduction of Fig. 13. ----
    let p = SimParams::paper_si_4864(7);
    println!("== Fig. 13 model: strong scaling, NA = 4,864, Nkz = 7 ==");
    for (m, nodes) in [
        (&PIZ_DAINT, vec![112usize, 224, 448, 896, 1792, 2700, 5400]),
        (&SUMMIT, vec![19, 38, 76, 152, 228]),
    ] {
        println!("\n{} ({} GPUs/node):", m.name, m.gpus_per_node);
        println!(
            "  {:>6} {:>7} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
            "nodes", "GPUs", "OMEN comp", "OMEN comm", "DaCe comp", "DaCe comm", "speedup"
        );
        for &n in &nodes {
            let o = scaling::predict(&p, m, n, Variant::Omen);
            let d = scaling::predict(&p, m, n, Variant::Dace);
            println!(
                "  {:>6} {:>7} | {:>8.1}s {:>8.1}s | {:>8.1}s {:>8.1}s | {:>7.1}x",
                n,
                m.gpus(n),
                o.compute(),
                o.t_comm,
                d.compute(),
                d.t_comm,
                o.total() / d.total()
            );
        }
    }

    println!("\n== Fig. 13 model: weak scaling (nodes grow with Nkz) ==");
    let base = SimParams::paper_si_4864(3);
    for (m, nodes_per_kz) in [(&PIZ_DAINT, 128usize), (&SUMMIT, 22usize)] {
        println!("\n{}:", m.name);
        let omen = scaling::weak_scaling(&base, m, &[3, 5, 7, 9, 11], nodes_per_kz, Variant::Omen);
        let dace = scaling::weak_scaling(&base, m, &[3, 5, 7, 9, 11], nodes_per_kz, Variant::Dace);
        println!(
            "  {:>4} {:>6} | {:>10} | {:>10} | {:>8}",
            "Nkz", "nodes", "OMEN total", "DaCe total", "speedup"
        );
        for (o, d) in omen.iter().zip(&dace) {
            println!(
                "  {:>4} {:>6} | {:>9.1}s | {:>9.1}s | {:>7.1}x",
                o.0,
                o.1.nodes,
                o.1.times.total(),
                d.1.times.total(),
                o.1.times.total() / d.1.times.total()
            );
        }
    }

    // ---- Part 2: run both schemes for real on the thread world. ----
    println!("\n== measured bytes: thread-MPI runs at reduced scale ==");
    let p = SimParams {
        nkz: 3,
        nqz: 3,
        ne: 24,
        nw: 3,
        na: 24,
        nb: 4,
        norb: 2,
        bnum: 6,
    };
    let dev = Device::new(&p);
    let em = ElectronModel::for_params(&p);
    let pm = PhononModel::default();
    let grids = Grids::new(&p, -1.2, 1.2);
    let cfg = GfConfig::default();
    let egf = gf::electron_gf_phase(
        &dev,
        &em,
        &p,
        &grids,
        &gf::ElectronSelfEnergy::zeros(&p),
        &cfg,
    )
    .expect("electron GF");
    let pgf = gf::phonon_gf_phase(
        &dev,
        &pm,
        &p,
        &grids,
        &gf::PhononSelfEnergy::zeros(&p),
        &cfg,
    )
    .expect("phonon GF");
    let (dl, dg) = sse::preprocess_d(&dev, &p, &pgf);
    let dh = em.dh_tensor(&dev);
    let ctx = SseDistContext {
        p: &p,
        dev: &dev,
        grids: &grids,
        dh: &dh,
        g_lesser: &egf.g_lesser,
        g_greater: &egf.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    println!(
        "  {:>6} | {:>12} | {:>12} | {:>8}",
        "ranks", "OMEN bytes", "DaCe bytes", "ratio"
    );
    for procs in [2usize, 4, 6] {
        let (sig_o, _, so) = omen_scheme(&ctx, procs);
        let (te, ta) = match procs {
            2 => (2, 1),
            4 => (2, 2),
            _ => (3, 2),
        };
        let tiling = ElasticTiling::new(&p, te, ta);
        let (sig_d, _, sd) =
            elastic_sse_exchange(&ctx, &tiling, &LivenessConfig::default()).expect("no faults");
        let agree = sig_o.lesser.max_abs_diff(&sig_d.lesser) / sig_o.lesser.norm().max(1e-30);
        println!(
            "  {:>6} | {:>12} | {:>12} | {:>7.1}x   (results agree to {agree:.1e})",
            procs,
            so.world_bytes,
            sd.world_bytes,
            so.world_bytes as f64 / sd.world_bytes.max(1) as f64
        );
    }
}
