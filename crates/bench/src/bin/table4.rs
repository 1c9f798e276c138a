//! Table IV: data statistics of the Chinese corpus (fake / real / total per
//! domain).

use dtdbd_bench::experiments::{chinese_dataset, dataset_stats_table, RunOptions};

fn main() {
    let opts = RunOptions::from_args();
    let ds = chinese_dataset(&opts);
    let table = dataset_stats_table("Table IV — Chinese dataset statistics", &ds);
    println!("{}", table.render());
}
