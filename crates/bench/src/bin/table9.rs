//! Table IX: traditional domain-adversarial training (DAT) versus the
//! paper's DAT-IE on both student architectures (Chinese corpus).

use dtdbd_bench::experiments::{
    chinese_split, train_adversarial_student, train_plain_student, RunOptions, StudentArch,
};
use dtdbd_core::dat::DatMode;
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions::from_args();
    let split = chinese_split(&opts);

    let mut table = TableBuilder::new("Table IX — DAT vs DAT-IE")
        .header(["Model", "F1", "FNED", "FPED", "Total"]);

    for arch in [StudentArch::TextCnn, StudentArch::BiGru] {
        let arch_name = arch.name();
        table.row([
            format!("--- {arch_name} ---"),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);

        eprintln!("[{arch_name}] plain student ...");
        let (row, _) = train_plain_student(arch, &split, &opts);
        row.push_overall(&mut table);

        eprintln!("[{arch_name}] Student+DAT ...");
        let (row, _) = train_adversarial_student(arch, DatMode::Dat, &split, &opts);
        row.push_overall(&mut table);

        eprintln!("[{arch_name}] Student+DAT-IE ...");
        let (row, _) = train_adversarial_student(arch, DatMode::DatIe, &split, &opts);
        row.push_overall(&mut table);
    }

    println!("{}", table.render());
    println!(
        "Expected shape (paper Table IX): both adversarial variants cut Total roughly in half\n\
         relative to the plain student; DAT-IE keeps a higher F1 and a lower Total than DAT."
    );
}
