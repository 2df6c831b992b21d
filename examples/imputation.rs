//! Imputation — the paper's core definition of graph learning:
//! "acquisition of unknown graph node features using observed node
//! features".
//!
//! Half the stock tickers report; the machine infers the rest. Two
//! models are compared: the per-node forecaster (stage 1) and the
//! Gaussian-programmed machine whose target-target couplings encode the
//! residual precision matrix (stage 2). With common market shocks in the
//! data, the joint relaxation of stage 2 lets observed tickers correct
//! their unobserved peers — something per-node prediction cannot do.
//!
//! ```sh
//! cargo run --release --example imputation
//! ```

use dsgl::core::inference::infer_dense_imputation;
use dsgl::core::ridge::{fit_gaussian_couplings, fit_ridge_validated};
use dsgl::core::{DsGlModel, RunCtx, VariableLayout};
use dsgl::data::{stock, WindowConfig};
use dsgl::ising::AnnealConfig;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = stock::generate(7).truncate(40, 300);
    let n = dataset.node_count();
    let wc = WindowConfig::one_step(4);
    let (train, val, test) = dataset.split_windows(&wc, 0.6, 0.15);

    // Stage 1: per-node forecaster.
    let layout = VariableLayout::new(4, n, 1);
    let mut stage1 = DsGlModel::new(layout);
    stage1.h_mut().iter_mut().for_each(|h| *h = -2.0);
    stage1.init_diffusion_prior(&dataset.graph, 0.72, 0.22);
    fit_ridge_validated(&mut stage1, &train, &val, &[0.1, 1.0, 10.0, 100.0])?;

    // Stage 2: program the residual Gaussian graphical model.
    let mut stage2 = stage1.clone();
    fit_gaussian_couplings(&mut stage2, &train, 0.5, 2.0)?;

    // Impute the odd tickers from the even ones.
    let observed: Vec<usize> = (0..n).step_by(2).collect();
    let hidden: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();

    let evaluate = |model: &DsGlModel| -> Result<f64, dsgl::core::CoreError> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut sse = 0.0;
        let mut count = 0;
        for s in &test[..test.len().min(25)] {
            let (pred, _) = infer_dense_imputation(
                model,
                s,
                &observed,
                &AnnealConfig::default(),
                &mut rng,
                &mut RunCtx::default(),
            )?;
            for &i in &hidden {
                sse += (pred[i] - s.target[i]) * (pred[i] - s.target[i]);
                count += 1;
            }
        }
        Ok((sse / count as f64).sqrt())
    };

    let r1 = evaluate(&stage1)?;
    let r2 = evaluate(&stage2)?;
    println!("imputing {} hidden tickers from {} observed ones:", hidden.len(), observed.len());
    println!("  per-node forecaster RMSE      {r1:.4}");
    println!("  joint Gaussian machine RMSE   {r2:.4}");
    println!(
        "  joint relaxation wins by {:.1}% — observed outputs correct their peers",
        (1.0 - r2 / r1) * 100.0
    );
    assert!(r2 < r1, "the joint machine should win under common shocks");
    Ok(())
}
