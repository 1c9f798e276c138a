//! Table V: data statistics of the English corpus (fake / real / total per
//! domain).

use dtdbd_bench::experiments::{dataset_stats_table, english_dataset, RunOptions};

fn main() {
    let opts = RunOptions::from_args();
    let ds = english_dataset(&opts);
    let table = dataset_stats_table("Table V — English dataset statistics", &ds);
    println!("{}", table.render());
}
