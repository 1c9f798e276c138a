//! Figure 2: t-SNE visualisation of intermediate features on the Chinese
//! corpus for M3FEND, the plain student (TextCNN-U), the DAT-IE student and
//! the DTDBD student, coloured by domain.
//!
//! Rendered as ASCII scatter grids plus a quantitative "domain purity" score
//! (fraction of occupied cells containing a single domain) so the paper's
//! qualitative reading — DTDBD mixes domains more while M3FEND / DAT-IE leave
//! domain-pure regions — can be checked numerically.

use dtdbd_bench::experiments::{
    chinese_split, Ablation, CleanTeacherKind, Pipeline, Role, RunOptions, StudentArch,
};
use dtdbd_core::dat::DatMode;
use dtdbd_core::extract_features;
use dtdbd_viz::scatter::single_class_cell_fraction;
use dtdbd_viz::{render_scatter, ScatterConfig, Tsne, TsneConfig};

fn main() {
    let opts = RunOptions::from_args();
    let split = chinese_split(&opts);
    // t-SNE is O(n^2); embed a stratified subsample of the test set.
    let viz_set = split
        .test
        .subsample(if opts.quick { 0.25 } else { 0.12 }, opts.seed);
    eprintln!("visualising {} test items", viz_set.len());

    let tsne = Tsne::new(if opts.quick {
        TsneConfig::quick()
    } else {
        TsneConfig::default()
    });
    let scatter_cfg = ScatterConfig::default();
    let names = split.test.domain_names();

    let mut pipeline = Pipeline::new(&split, &opts);
    let student = StudentArch::TextCnn;
    let panels: Vec<(&str, dtdbd_tensor::Tensor, Vec<usize>)> = [
        ("(a) M3FEND", Role::Baseline("M3FEND")),
        ("(b) TextCNN-U", Role::Student(student)),
        (
            "(c) TextCNN-U + DAT-IE",
            Role::Adversarial(student, DatMode::DatIe),
        ),
        (
            "(d) TextCNN-U + DTDBD",
            Role::Dtdbd(CleanTeacherKind::M3Fend, student, Ablation::Full),
        ),
    ]
    .into_iter()
    .map(|(title, role)| {
        let trained = pipeline.model(role);
        let (feats, domains, _) =
            extract_features(&trained.model, &mut trained.store, &viz_set, 256);
        (title, feats, domains)
    })
    .collect();

    println!("== Figure 2 — t-SNE of intermediate features (one letter per domain) ==");
    println!(
        "legend: {}",
        names
            .iter()
            .enumerate()
            .map(|(i, n)| format!(
                "{}={}",
                scatter_cfg.symbols[i % scatter_cfg.symbols.len()],
                n
            ))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for (title, feats, domains) in &panels {
        eprintln!("running t-SNE for {title} ...");
        let embedding = tsne.embed(feats);
        let purity = single_class_cell_fraction(&embedding, domains, &scatter_cfg);
        println!("\n{title}  (domain-pure cell fraction: {purity:.3})");
        println!("{}", render_scatter(&embedding, domains, &scatter_cfg));
    }
    println!(
        "Expected shape (paper Fig. 2): the DTDBD panel mixes domains the most (lowest purity),\n\
         while M3FEND and especially DAT-IE keep more domain-pure regions."
    );
}
