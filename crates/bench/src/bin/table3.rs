//! Table III: FNR / FPR of four advanced models (EANN, EDDFN, MDFEND,
//! M3FEND) on the four most unbalanced domains of the Chinese corpus
//! (Disaster, Politics, Finance, Entertainment).

use dtdbd_bench::experiments::{chinese_split, Pipeline, Role, RunOptions};
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions::from_args();
    let split = chinese_split(&opts);
    let mut pipeline = Pipeline::new(&split, &opts);
    let focus = ["Disaster", "Politics", "Finance", "Ent."];

    let mut header = vec!["Model".to_string()];
    for d in &focus {
        header.push(format!("{d} FNR"));
        header.push(format!("{d} FPR"));
    }
    let mut table = TableBuilder::new("Table III — FNR/FPR on unbalanced domains").header(header);

    for name in ["EANN", "EDDFN", "MDFEND", "M3FEND"] {
        let eval = pipeline.model(Role::Baseline(name)).evaluate(&split.test);
        let mut values = Vec::new();
        for domain_name in &focus {
            let dm = eval
                .domains()
                .iter()
                .find(|d| d.name == *domain_name)
                .expect("domain present");
            values.push(dm.fnr());
            values.push(dm.fpr());
        }
        table.metric_row(name, &values, 4);
    }
    println!("{}", table.render());
    println!(
        "Expected shape (paper Table III): fake-heavy domains (Disaster, Politics) show high FPR,\n\
         real-heavy domains (Finance, Ent.) show high FNR."
    );
}
