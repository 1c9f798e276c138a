//! Table VIII: ablation study of DTDBD on the Chinese corpus, for both the
//! TextCNN-S and the BiGRU-S student architectures.
//!
//! Rows: Student, Student+DAT-IE, Teacher(M3), Student+DND (clean teacher
//! only), Student+ADD (unbiased teacher only), w/o DAA (both teachers, fixed
//! weights), Our(M3) (full DTDBD).

use dtdbd_bench::experiments::{
    chinese_split, distill_config, run_baseline, train_adversarial_student, train_dtdbd,
    train_plain_student, CleanTeacherKind, RunOptions, StudentArch,
};
use dtdbd_core::dat::DatMode;
use dtdbd_core::DistillConfig;
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions::from_args();
    let split = chinese_split(&opts);

    let mut table = TableBuilder::new("Table VIII — ablation study (Chinese dataset)")
        .header(["Model", "F1", "FNED", "FPED", "Total"]);

    // Teacher(M3) is shared between the two halves of the table.
    eprintln!("training Teacher(M3) ...");
    let (mut teacher_row, _) = run_baseline("M3FEND", &split, &opts);
    teacher_row.name = "Teacher(M3)".to_string();

    for arch in [StudentArch::TextCnn, StudentArch::BiGru] {
        let arch_name = arch.name();
        table.row([
            format!("--- {arch_name} ---"),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);

        eprintln!("[{arch_name}] training plain student ...");
        let (row, _) = train_plain_student(arch, &split, &opts);
        row.push_overall(&mut table);

        eprintln!("[{arch_name}] training Student+DAT-IE ...");
        let (row, _) = train_adversarial_student(arch, DatMode::DatIe, &split, &opts);
        row.push_overall(&mut table);

        teacher_row.push_overall(&mut table);

        eprintln!("[{arch_name}] training Student+DND (clean teacher only) ...");
        let base = distill_config(&opts);
        let dnd = DistillConfig {
            epochs: base.epochs,
            batch_size: base.batch_size,
            learning_rate: base.learning_rate,
            seed: base.seed,
            ..DistillConfig::only_dkd()
        };
        let (row, _) = train_dtdbd(
            CleanTeacherKind::M3Fend,
            arch,
            &split,
            &opts,
            dnd,
            "Student+DND",
        );
        row.push_overall(&mut table);

        eprintln!("[{arch_name}] training Student+ADD (unbiased teacher only) ...");
        let add = DistillConfig {
            epochs: base.epochs,
            batch_size: base.batch_size,
            learning_rate: base.learning_rate,
            seed: base.seed,
            ..DistillConfig::only_add()
        };
        let (row, _) = train_dtdbd(
            CleanTeacherKind::M3Fend,
            arch,
            &split,
            &opts,
            add,
            "Student+ADD",
        );
        row.push_overall(&mut table);

        eprintln!("[{arch_name}] training w/o DAA ...");
        let no_daa = DistillConfig {
            epochs: base.epochs,
            batch_size: base.batch_size,
            learning_rate: base.learning_rate,
            seed: base.seed,
            ..DistillConfig::without_daa()
        };
        let (row, _) = train_dtdbd(
            CleanTeacherKind::M3Fend,
            arch,
            &split,
            &opts,
            no_daa,
            "w/o DAA",
        );
        row.push_overall(&mut table);

        eprintln!("[{arch_name}] training full DTDBD Our(M3) ...");
        let (row, _) = train_dtdbd(
            CleanTeacherKind::M3Fend,
            arch,
            &split,
            &opts,
            distill_config(&opts),
            "Our(M3)",
        );
        row.push_overall(&mut table);
    }

    println!("{}", table.render());
    println!(
        "Expected shape (paper Table VIII): DAT-IE and ADD cut Total sharply (ADD with less F1\n\
         loss); DND lifts F1; the full DTDBD achieves the best F1/Total trade-off."
    );
}
