//! Table VII: performance and bias comparison of DTDBD against every
//! baseline on the English corpus.

use dtdbd_bench::experiments::{
    baseline_names, english_split, Ablation, CleanTeacherKind, Pipeline, Role, RunOptions,
    StudentArch,
};
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions::from_args();
    let split = english_split(&opts);
    let mut pipeline = Pipeline::new(&split, &opts);

    let mut header = vec!["Method".to_string()];
    header.extend(split.test.domain_names().iter().map(|s| s.to_string()));
    header.extend(
        ["F1", "FNED", "FPED", "Total"]
            .iter()
            .map(|s| s.to_string()),
    );
    let mut table = TableBuilder::new("Table VII — English dataset comparison").header(header);

    for name in baseline_names() {
        pipeline.row(Role::Baseline(name)).push_full(&mut table);
    }
    for kind in [CleanTeacherKind::Mdfend, CleanTeacherKind::M3Fend] {
        let role = Role::Dtdbd(kind, StudentArch::TextCnn, Ablation::Full);
        pipeline.row(role).push_full(&mut table);
    }
    println!("{}", table.render());
    println!(
        "Expected shape (paper Table VII): Our(MD)/Our(M3) achieve the lowest Total; F1 is\n\
         competitive but may sit slightly below MDFEND/M3FEND on this 3-domain corpus."
    );
}
