//! Table VIII: ablation study of DTDBD on the Chinese corpus, for both the
//! TextCNN-S and the BiGRU-S student architectures.
//!
//! Rows: Student, Student+DAT-IE, Teacher(M3), Student+DND (clean teacher
//! only), Student+ADD (unbiased teacher only), w/o DAA (both teachers, fixed
//! weights), Our(M3) (full DTDBD). Teacher(M3) and Student+DAT-IE are the
//! frozen teachers every distilled row of the same architecture learns from;
//! the one M3FEND serves both architectures.
//!
//! With at most 2 epochs (the `--quick` default) "w/o DAA" and "Our(M3)"
//! print the same row: the dynamic adjustment first updates the weights after
//! the second epoch, for a third epoch that such a run never reaches.

use dtdbd_bench::experiments::{
    chinese_split, Ablation, CleanTeacherKind, Pipeline, Role, RunOptions, StudentArch,
};
use dtdbd_core::dat::DatMode;
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions::from_args();
    let split = chinese_split(&opts);
    let mut pipeline = Pipeline::new(&split, &opts);

    let mut table = TableBuilder::new("Table VIII — ablation study (Chinese dataset)")
        .header(["Model", "F1", "FNED", "FPED", "Total"]);

    let teacher = Role::Baseline(CleanTeacherKind::M3Fend.model_name());
    let mut teacher_row = pipeline.row(teacher);
    teacher_row.name = "Teacher(M3)".to_string();

    for arch in [StudentArch::TextCnn, StudentArch::BiGru] {
        table.row([
            format!("--- {} ---", arch.name()),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        pipeline.row(Role::Student(arch)).push_overall(&mut table);
        pipeline
            .row(Role::Adversarial(arch, DatMode::DatIe))
            .push_overall(&mut table);
        teacher_row.push_overall(&mut table);
        for ablation in [
            Ablation::OnlyDkd,
            Ablation::OnlyAdd,
            Ablation::WithoutDaa,
            Ablation::Full,
        ] {
            let role = Role::Dtdbd(CleanTeacherKind::M3Fend, arch, ablation);
            pipeline.row(role).push_overall(&mut table);
        }
    }

    println!("{}", table.render());
    println!(
        "Expected shape (paper Table VIII): DAT-IE and ADD cut Total sharply (ADD with less F1\n\
         loss); DND lifts F1; the full DTDBD achieves the best F1/Total trade-off. With at\n\
         most 2 epochs (--quick) w/o DAA equals Our(M3): DAA first moves the weights after epoch 2."
    );
}
