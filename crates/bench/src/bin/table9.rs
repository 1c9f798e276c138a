//! Table IX: traditional domain-adversarial training (DAT) versus the
//! paper's DAT-IE on both student architectures (Chinese corpus).

use dtdbd_bench::experiments::{chinese_split, Pipeline, Role, RunOptions, StudentArch};
use dtdbd_core::dat::DatMode;
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions::from_args();
    let split = chinese_split(&opts);
    let mut pipeline = Pipeline::new(&split, &opts);

    let mut table = TableBuilder::new("Table IX — DAT vs DAT-IE")
        .header(["Model", "F1", "FNED", "FPED", "Total"]);

    for arch in [StudentArch::TextCnn, StudentArch::BiGru] {
        table.row([
            format!("--- {} ---", arch.name()),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        for role in [
            Role::Student(arch),
            Role::Adversarial(arch, DatMode::Dat),
            Role::Adversarial(arch, DatMode::DatIe),
        ] {
            pipeline.row(role).push_overall(&mut table);
        }
    }

    println!("{}", table.render());
    println!(
        "Expected shape (paper Table IX): both adversarial variants cut Total roughly in half\n\
         relative to the plain student; DAT-IE keeps a higher F1 and a lower Total than DAT."
    );
}
